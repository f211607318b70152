//! Restart reconciliation: journal belief vs live network.
//!
//! After a crash the replayed [`ControllerState`] is what the
//! controller *intended*; the network holds what actually *landed*
//! (write-ahead means the journal can be ahead of reality by exactly
//! the in-flight push the crash interrupted). Reconciliation closes the
//! gap in three steps (DESIGN.md §13):
//!
//! 1. **Observe** — query every journaled node's `NC_STATS` snapshot
//!    and read back its fence gauges (`relay.ctrl_epoch`,
//!    `relay.ctrl_seq`) and table digest (`relay.table_digest`).
//! 2. **Plan** — pure diff: τ-expired lingerers are *expired*, silent
//!    nodes are *unreachable* (failover territory), nodes whose live
//!    digest matches the journal belief are *re-adopted* untouched, and
//!    everything else gets its believed table *re-pushed*.
//! 3. **Act** — re-push the diverged tables under the new epoch via
//!    [`SignalSender`], which fences off any zombie predecessor.

use std::net::SocketAddr;

use crate::journal::{ControllerState, NodeStatus};
use crate::metrics::ControlMetrics;
use crate::sender::{SendError, SignalSender};
use crate::signal::Signal;

/// What one live node reported during the observe step.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeObservation {
    /// Node id (journal key).
    pub node: u32,
    /// Highest controller epoch the node has accepted.
    pub ctrl_epoch: u64,
    /// Last applied sequence number within that epoch.
    pub ctrl_seq: u64,
    /// Digest of the node's live forwarding table
    /// ([`crate::ForwardingTable::digest`]), if the gauge was present.
    pub table_digest: Option<u64>,
    /// The relay's `relay.daemon_state` gauge (0 Idle, 1 Running,
    /// 2 Paused, 3 Draining, 4 Stopped), if present. Lets the planner
    /// spot a journaled drain whose `NC_VNF_END` never landed.
    pub daemon_state: Option<u8>,
}

/// Reads a numeric value out of a flat snapshot-JSON section by metric
/// name (the `ncvnf-obs` `Snapshot::to_json` format). A deliberate
/// string scan, not a JSON parser: metric names are the full keys and
/// values are bare numbers, so this stays dependency-free.
pub fn snapshot_value(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Builds a [`NodeObservation`] from a node's `NC_STATS` JSON reply.
fn observation_from_stats(node: u32, json: &str) -> NodeObservation {
    NodeObservation {
        node,
        ctrl_epoch: snapshot_value(json, "relay.ctrl_epoch").unwrap_or(0.0) as u64,
        ctrl_seq: snapshot_value(json, "relay.ctrl_seq").unwrap_or(0.0) as u64,
        table_digest: snapshot_value(json, "relay.table_digest").map(|v| v as u64),
        daemon_state: snapshot_value(json, "relay.daemon_state").map(|v| v as u8),
    }
}

/// The reconciliation plan: what to do with each journaled node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconcilePlan {
    /// Healthy nodes whose live table matches the journal belief; the
    /// controller re-adopts them without touching them.
    pub readopt: Vec<u32>,
    /// Nodes whose live table diverged (typically the push the crash
    /// interrupted): `(node, believed table text)` to re-push.
    pub repush: Vec<(u32, String)>,
    /// Lingering instances whose τ deadline passed during the outage;
    /// drop them from the pool and stop billing them.
    pub expired: Vec<u32>,
    /// Journaled nodes that did not answer the observe step — dead or
    /// partitioned; failover planning takes over from here.
    pub unreachable: Vec<u32>,
    /// Nodes the journal believes are draining but whose live daemon
    /// still reports another state — the `NC_VNF_END` the crash
    /// interrupted never landed; re-push it with the remaining τ.
    pub redrain: Vec<u32>,
}

/// Pure planning step: diffs the replayed state against observations
/// taken at controller-clock time `now_secs`. Nodes are bucketed in
/// id order, each into exactly one bucket.
pub fn plan(
    state: &ControllerState,
    observations: &[NodeObservation],
    now_secs: f64,
) -> ReconcilePlan {
    let mut plan = ReconcilePlan::default();
    for (&node, belief) in &state.nodes {
        let draining = if let NodeStatus::Draining { deadline_secs } = belief.status {
            if deadline_secs <= now_secs {
                plan.expired.push(node);
                continue;
            }
            true
        } else {
            false
        };
        let Some(obs) = observations.iter().find(|o| o.node == node) else {
            plan.unreachable.push(node);
            continue;
        };
        // The journal says this node was sent NC_VNF_END, but its live
        // daemon is still Idle/Running/Paused: the drain signal is the
        // push the crash interrupted. (Draining or Stopped daemons need
        // nothing; an absent gauge proves nothing either way.)
        if draining && matches!(obs.daemon_state, Some(s) if s < 3) {
            plan.redrain.push(node);
            continue;
        }
        if obs.table_digest == Some(belief.table.digest()) {
            plan.readopt.push(node);
        } else {
            plan.repush.push((node, belief.table.to_text()));
        }
    }
    plan
}

/// Outcome of a full reconciliation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconcileReport {
    /// The plan that was executed.
    pub plan: ReconcilePlan,
    /// Diverged tables successfully re-pushed (fenced ACK received).
    pub repushed_ok: u32,
    /// Interrupted drains successfully re-sent (`NC_VNF_END` with the
    /// remaining τ, fenced ACK received).
    pub redrained_ok: u32,
    /// Re-pushes (tables or drains) that failed, with the sender's
    /// error rendered.
    pub repush_failures: Vec<(u32, String)>,
}

/// Observe → plan → act against live relays: queries every journaled
/// node's `NC_STATS` through `sender`, plans at `now_secs`, then
/// re-pushes each diverged table as a fenced `NC_FORWARD_TAB` under the
/// sender's (new) epoch. Unreachable nodes and failed re-pushes are
/// reported, not fatal — failover handles them.
pub fn reconcile(
    sender: &mut SignalSender,
    state: &ControllerState,
    now_secs: f64,
    metrics: Option<&ControlMetrics>,
) -> ReconcileReport {
    let mut observations = Vec::new();
    for (&node, belief) in &state.nodes {
        // Expired lingerers are not worth a probe; plan() buckets them.
        if let NodeStatus::Draining { deadline_secs } = belief.status {
            if deadline_secs <= now_secs {
                continue;
            }
        }
        let Ok(addr) = belief.control_addr.parse::<SocketAddr>() else {
            continue;
        };
        if let Ok(json) = sender.query_stats(addr) {
            observations.push(observation_from_stats(node, &json));
        }
    }
    let plan = plan(state, &observations, now_secs);
    let mut repushed_ok = 0;
    let mut repush_failures = Vec::new();
    for (node, table) in &plan.repush {
        let outcome = state.nodes[node]
            .control_addr
            .parse::<SocketAddr>()
            .map_err(|e| SendError::Rejected(format!("bad control addr: {e}")))
            .and_then(|addr| {
                sender.push(
                    addr,
                    &Signal::NcForwardTab {
                        table: table.clone(),
                    },
                )
            });
        match outcome {
            Ok(_) => repushed_ok += 1,
            Err(e) => repush_failures.push((*node, e.to_string())),
        }
    }
    let mut redrained_ok = 0;
    for node in &plan.redrain {
        let belief = &state.nodes[node];
        let NodeStatus::Draining { deadline_secs } = belief.status else {
            continue;
        };
        // Re-send the interrupted NC_VNF_END with the τ that remains.
        let tau_secs = (deadline_secs - now_secs).ceil().max(1.0) as u32;
        let outcome = belief
            .control_addr
            .parse::<SocketAddr>()
            .map_err(|e| SendError::Rejected(format!("bad control addr: {e}")))
            .and_then(|addr| sender.push(addr, &Signal::NcVnfEnd { tau_secs }));
        match outcome {
            Ok(_) => redrained_ok += 1,
            Err(e) => repush_failures.push((*node, e.to_string())),
        }
    }
    if let Some(m) = metrics {
        m.record_reconcile(
            plan.readopt.len() as u64,
            repushed_ok as u64,
            plan.expired.len() as u64,
            plan.unreachable.len() as u64,
        );
    }
    ReconcileReport {
        plan,
        repushed_ok,
        redrained_ok,
        repush_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{ControlRecord, ControllerState};

    fn replayed_state() -> ControllerState {
        ControllerState::replay(&[
            ControlRecord::EpochStarted { epoch: 1 },
            ControlRecord::VnfLaunched {
                node: 0,
                data_center: "dc".into(),
                control_addr: "127.0.0.1:9000".into(),
            },
            ControlRecord::VnfLaunched {
                node: 1,
                data_center: "dc".into(),
                control_addr: "127.0.0.1:9001".into(),
            },
            ControlRecord::VnfLaunched {
                node: 2,
                data_center: "dc".into(),
                control_addr: "127.0.0.1:9002".into(),
            },
            ControlRecord::VnfLaunched {
                node: 3,
                data_center: "dc".into(),
                control_addr: "127.0.0.1:9003".into(),
            },
            ControlRecord::TablePushed {
                node: 0,
                epoch: 1,
                seq: 1,
                table: "session 1 a:1\n".into(),
            },
            ControlRecord::TablePushed {
                node: 1,
                epoch: 1,
                seq: 1,
                table: "session 1 b:1\n".into(),
            },
            ControlRecord::VnfEnded {
                node: 3,
                linger_deadline_secs: 500.0,
            },
        ])
    }

    #[test]
    fn plan_buckets_every_node_exactly_once() {
        let state = replayed_state();
        let healthy_digest = state.nodes[&0].table.digest();
        let observations = vec![
            NodeObservation {
                node: 0,
                ctrl_epoch: 1,
                ctrl_seq: 1,
                table_digest: Some(healthy_digest),
                daemon_state: Some(1),
            },
            NodeObservation {
                node: 1,
                ctrl_epoch: 1,
                ctrl_seq: 0,
                table_digest: Some(12345), // diverged
                daemon_state: Some(1),
            },
            // node 2 answered nothing, node 3 expired at 500
        ];
        let p = plan(&state, &observations, 600.0);
        assert_eq!(p.readopt, vec![0]);
        assert_eq!(p.repush, vec![(1, state.nodes[&1].table.to_text())]);
        assert_eq!(p.unreachable, vec![2]);
        assert_eq!(p.expired, vec![3]);
    }

    #[test]
    fn lingerer_inside_tau_is_probed_not_expired() {
        let state = replayed_state();
        let obs = vec![NodeObservation {
            node: 3,
            ctrl_epoch: 1,
            ctrl_seq: 0,
            table_digest: Some(state.nodes[&3].table.digest()),
            daemon_state: Some(3),
        }];
        let p = plan(&state, &obs, 100.0);
        assert!(p.readopt.contains(&3), "lingerer still inside τ re-adopted");
        assert!(p.expired.is_empty());
        assert!(p.redrain.is_empty());
    }

    #[test]
    fn journaled_drain_that_never_landed_is_redrained() {
        let state = replayed_state();
        // The journal says node 3 drains until 500, but the live daemon
        // still reports Running: the NC_VNF_END was the interrupted push.
        let obs = vec![NodeObservation {
            node: 3,
            ctrl_epoch: 1,
            ctrl_seq: 0,
            table_digest: Some(state.nodes[&3].table.digest()),
            daemon_state: Some(1),
        }];
        let p = plan(&state, &obs, 100.0);
        assert_eq!(p.redrain, vec![3]);
        assert!(p.readopt.is_empty());
        assert!(p.expired.is_empty());
        // A node whose gauge is missing proves nothing: not redrained.
        let obs = vec![NodeObservation {
            node: 3,
            ctrl_epoch: 1,
            ctrl_seq: 0,
            table_digest: Some(state.nodes[&3].table.digest()),
            daemon_state: None,
        }];
        let p = plan(&state, &obs, 100.0);
        assert!(p.redrain.is_empty());
        assert!(p.readopt.contains(&3));
    }

    #[test]
    fn snapshot_values_scan_the_json_shape() {
        let json = r#"{"counters":{"relay.signals":4},"gauges":{"relay.ctrl_epoch":2,"relay.ctrl_seq":7,"relay.table_digest":8888123,"relay.daemon_state":3}}"#;
        assert_eq!(snapshot_value(json, "relay.ctrl_epoch"), Some(2.0));
        assert_eq!(snapshot_value(json, "relay.signals"), Some(4.0));
        assert_eq!(snapshot_value(json, "missing.metric"), None);
        let obs = observation_from_stats(9, json);
        assert_eq!(
            obs,
            NodeObservation {
                node: 9,
                ctrl_epoch: 2,
                ctrl_seq: 7,
                table_digest: Some(8888123),
                daemon_state: Some(3),
            }
        );
    }

    #[test]
    fn missing_digest_gauge_forces_a_repush() {
        let state = replayed_state();
        let obs = vec![NodeObservation {
            node: 0,
            ctrl_epoch: 0,
            ctrl_seq: 0,
            table_digest: None,
            daemon_state: None,
        }];
        let p = plan(&state, &obs, 0.0);
        assert_eq!(p.repush.len(), 1, "no digest means no proof: re-push");
        assert!(p.readopt.is_empty());
    }
}
