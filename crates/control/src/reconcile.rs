//! Restart reconciliation: journal belief vs live network.
//!
//! After a crash the replayed [`ControllerState`] is what the
//! controller *intended*; the network holds what actually *landed*
//! (write-ahead means the journal can be ahead of reality by exactly
//! the in-flight push the crash interrupted). Reconciliation closes the
//! gap and fences the fleet in three steps (DESIGN.md §13):
//!
//! 1. **Observe** — query every journaled node's `NC_STATS` snapshot;
//!    a node that answers is reachable.
//! 2. **Plan** — pure bucketing: τ-expired lingerers are *expired*,
//!    silent nodes are *unreachable* (failover territory), draining
//!    nodes get their *remaining drain*, nodes never sent a table are
//!    *unarmed* (nothing to re-push), and every other node gets its
//!    believed table *re-pushed*, withdrawals included.
//! 3. **Act** — push under the new epoch through the [`ControlLink`] (a
//!    [`crate::SignalSender`] in production): tables in dependency order,
//!    downstream first, then drains in the reverse order. A table merge
//!    is idempotent on a matching digest, so re-pushing a table the node
//!    already holds changes nothing but its fence: every reachable node
//!    leaves reconciliation on the new epoch, and no frame of the dead
//!    incarnation can land after it.
//!
//! [`crate::Autoscaler::start`] is the one caller that restarts a
//! controller; it runs this pass with its fleet's dependency order.

use std::net::SocketAddr;

use crate::autoscale::{wave_step, ControlLink, Wave};
use crate::journal::{ControllerState, NodeStatus};
use crate::metrics::ControlMetrics;
use crate::signal::Signal;

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

/// The reconciliation plan: what to do with each journaled node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconcilePlan {
    /// Nodes that get their believed table re-pushed under the new
    /// epoch: `(node, believed table text)`. Typically every reachable
    /// armed node; for most the push changes only the fence.
    pub repush: Vec<(u32, String)>,
    /// Lingering instances whose τ deadline passed during the outage;
    /// drop them from the pool and stop billing them.
    pub expired: Vec<u32>,
    /// Journaled nodes that did not answer the observe step — dead or
    /// partitioned; failover planning takes over from here.
    pub unreachable: Vec<u32>,
    /// Nodes the journal believes are draining: re-push `NC_VNF_END`
    /// with the τ that remains (the drain the crash interrupted, or a
    /// drain that landed and now only moves to the new epoch).
    pub redrain: Vec<u32>,
    /// Launched nodes never sent a table: nothing to re-push. The start
    /// entry arms those whose answer shows their settings never landed.
    pub unarmed: Vec<u32>,
}

/// Pure planning step: buckets the replayed state at controller-clock
/// time `now_secs`, given the nodes that answered the observe step.
/// Nodes are bucketed in id order, each into exactly one bucket.
pub fn plan(state: &ControllerState, reachable: &[u32], now_secs: f64) -> ReconcilePlan {
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
        if !reachable.contains(&node) {
            plan.unreachable.push(node);
        } else if draining {
            plan.redrain.push(node);
        } else if belief.last_seq == 0 {
            plan.unarmed.push(node);
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
    /// Believed tables re-pushed and ACKed under the new epoch.
    pub repushed_ok: u32,
    /// Remaining drains re-sent and ACKed under the new epoch
    /// (`NC_VNF_END` with the τ that remains).
    pub redrained_ok: u32,
    /// Pushes (tables or drains) that failed, with the sender's error
    /// rendered.
    pub repush_failures: Vec<(u32, String)>,
}

/// Observe → plan → act against live relays: queries every journaled
/// node's `NC_STATS` through `link` at once, plans at `now_secs`, then
/// pushes every reachable armed node its believed table and every
/// draining one its remaining drain, all fenced under the link's (new)
/// epoch. Here every table goes in one wave, then every drain;
/// [`crate::Autoscaler::start`] runs the same pass in its fleet's
/// dependency order. Unreachable nodes and failed pushes are reported,
/// not fatal — failover handles them.
pub fn reconcile(
    link: &mut dyn ControlLink,
    state: &ControllerState,
    now_secs: f64,
    metrics: Option<&ControlMetrics>,
) -> ReconcileReport {
    reconcile_in_order(link, state, now_secs, metrics, &[]).0
}

/// [`reconcile`] with tables pushed in `order`'s waves (node ids,
/// downstream first) and drains in its reverse. Nodes `order` omits form
/// one more wave after it, so their drains go first. Also returns each
/// reachable node's `NC_STATS` answer.
pub(crate) fn reconcile_in_order(
    link: &mut dyn ControlLink,
    state: &ControllerState,
    now_secs: f64,
    metrics: Option<&ControlMetrics>,
    order: &[Vec<u32>],
) -> (ReconcileReport, Vec<(u32, String)>) {
    let mut probed = Vec::new();
    for (&node, belief) in &state.nodes {
        // Expired lingerers are not worth a probe; plan() buckets them.
        if let NodeStatus::Draining { deadline_secs } = belief.status {
            if deadline_secs <= now_secs {
                continue;
            }
        }
        if let Ok(addr) = belief.control_addr.parse::<SocketAddr>() {
            probed.push((node, addr));
        }
    }
    let addrs: Vec<SocketAddr> = probed.iter().map(|&(_, addr)| addr).collect();
    let answers: Vec<(u32, String)> = probed
        .iter()
        .zip(link.query_all(&addrs))
        .filter_map(|(&(node, _), answer)| Some((node, answer.ok()?)))
        .collect();
    let reachable: Vec<u32> = answers.iter().map(|&(node, _)| node).collect();
    let plan = plan(state, &reachable, now_secs);
    let addr_of = |node: u32| probed.iter().find(|&&(n, _)| n == node).map(|&(_, a)| a);
    let rank = |node: u32| {
        order
            .iter()
            .position(|wave| wave.contains(&node))
            .unwrap_or(order.len())
    };
    let mut tables: Vec<Wave> = (0..=order.len()).map(|_| Wave::default()).collect();
    let mut drains: Vec<Wave> = (0..=order.len()).map(|_| Wave::default()).collect();
    for (node, table) in &plan.repush {
        if let Some(addr) = addr_of(*node) {
            let table = table.clone();
            tables[rank(*node)]
                .frames
                .push((addr, Signal::NcForwardTab { table }));
        }
    }
    for &node in &plan.redrain {
        if let (Some(addr), NodeStatus::Draining { deadline_secs }) =
            (addr_of(node), state.nodes[&node].status)
        {
            let tau_secs = (deadline_secs - now_secs).ceil().max(1.0) as u32;
            drains[rank(node)]
                .frames
                .push((addr, Signal::NcVnfEnd { tau_secs }));
        }
    }
    let waves = tables.into_iter().chain(drains.into_iter().rev());
    let waves = waves.filter(|w| !w.frames.is_empty()).collect();
    let (mut repushed_ok, mut redrained_ok) = (0, 0);
    let mut repush_failures = Vec::new();
    // A failed push is reported, not fatal, so the step runs every wave.
    wave_step(None, link, waves, |to, signal, outcome| {
        match outcome {
            Ok(_) if matches!(signal, Signal::NcVnfEnd { .. }) => redrained_ok += 1,
            Ok(_) => repushed_ok += 1,
            Err(e) => {
                for &(node, _) in probed.iter().filter(|&&(_, a)| a == to) {
                    repush_failures.push((node, e.to_string()));
                }
            }
        }
        Ok(())
    })
    .expect("without a journal, only `answered` can stop the wave step");
    if let Some(m) = metrics {
        m.record_reconcile(
            repushed_ok as u64,
            plan.expired.len() as u64,
            plan.unreachable.len() as u64,
        );
    }
    let report = ReconcileReport {
        plan,
        repushed_ok,
        redrained_ok,
        repush_failures,
    };
    (report, answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{ControlRecord, ControllerState};
    use crate::sender::SendError;

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

    /// Every node in exactly one bucket.
    fn assert_partition(p: &ReconcilePlan, nodes: usize) {
        let mut seen: Vec<u32> = p.repush.iter().map(|(n, _)| *n).collect();
        for bucket in [&p.expired, &p.unreachable, &p.redrain, &p.unarmed] {
            seen.extend(bucket);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..nodes as u32).collect::<Vec<_>>());
    }

    #[test]
    fn plan_buckets_every_node_exactly_once() {
        let state = replayed_state();
        let table = |n: u32| state.nodes[&n].table.to_text();
        // Everyone answers inside τ: armed nodes get their table, node 2
        // (never sent one) is left to the start entry, node 3 drains on.
        let p = plan(&state, &[0, 1, 2, 3], 100.0);
        assert_eq!(p.repush, vec![(0, table(0)), (1, table(1))]);
        assert_eq!(p.unarmed, vec![2]);
        assert_eq!(p.redrain, vec![3]);
        assert_partition(&p, 4);
        // Node 2 answers nothing; node 3's τ ran out at 500.
        let p = plan(&state, &[0, 1], 600.0);
        assert_eq!(p.unreachable, vec![2]);
        assert_eq!(p.expired, vec![3]);
        assert_partition(&p, 4);
    }

    #[test]
    fn lingerer_inside_tau_is_probed_not_expired() {
        let state = replayed_state();
        let p = plan(&state, &[3], 100.0);
        assert_eq!(p.redrain, vec![3], "lingerer inside τ drains on");
        assert!(p.expired.is_empty());
        assert!(!p.unreachable.contains(&3));
    }

    /// Serves `NC_STATS` for `reachable` and records every push.
    struct MockLink {
        reachable: Vec<SocketAddr>,
        pushed: Vec<(u16, Signal)>,
    }

    impl ControlLink for MockLink {
        fn epoch(&self) -> u64 {
            2
        }

        fn next_seq(&self, _: SocketAddr) -> u64 {
            1
        }

        fn push(
            &mut self,
            to: SocketAddr,
            signal: &Signal,
        ) -> Result<crate::SendReceipt, SendError> {
            self.pushed.push((to.port(), signal.clone()));
            Ok(crate::SendReceipt {
                seq: 1,
                attempts: 1,
                rtt: std::time::Duration::ZERO,
            })
        }

        fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
            if self.reachable.contains(&to) {
                Ok("{}".into())
            } else {
                Err(SendError::Timeout { attempts: 1 })
            }
        }
    }

    fn link(ports: &[u16]) -> MockLink {
        MockLink {
            reachable: ports
                .iter()
                .map(|p| SocketAddr::from(([127, 0, 0, 1], *p)))
                .collect(),
            pushed: Vec::new(),
        }
    }

    #[test]
    fn journaled_drain_that_never_landed_is_redrained() {
        let state = replayed_state();
        // The journal says node 3 drains until 500; whether or not its
        // NC_VNF_END landed, it gets the τ that remains at 100.
        let mut link = link(&[9003]);
        let report = reconcile(&mut link, &state, 100.0, None);
        assert_eq!(report.plan.redrain, vec![3]);
        assert_eq!(report.redrained_ok, 1);
        assert_eq!(
            link.pushed,
            vec![(9003, Signal::NcVnfEnd { tau_secs: 400 })]
        );
    }

    #[test]
    fn launched_node_never_sent_a_table_gets_no_table_push() {
        let state = replayed_state();
        let mut link = link(&[9000, 9001, 9002]);
        let report = reconcile(&mut link, &state, 100.0, None);
        assert_eq!(report.plan.unarmed, vec![2]);
        assert!(report.repush_failures.is_empty());
        let ports: Vec<u16> = link.pushed.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![9000, 9001], "node 2 is left to the start entry");
    }

    #[test]
    fn pushes_follow_the_order_and_drains_its_reverse() {
        let mut state = replayed_state();
        state.nodes.get_mut(&1).unwrap().status = NodeStatus::Draining {
            deadline_secs: 500.0,
        };
        let mut link = link(&[9000, 9001, 9003]);
        let (report, _) =
            reconcile_in_order(&mut link, &state, 100.0, None, &[vec![3], vec![1], vec![0]]);
        assert_eq!(report.repushed_ok, 1);
        assert_eq!(report.redrained_ok, 2);
        let ports: Vec<u16> = link.pushed.iter().map(|(p, _)| *p).collect();
        assert_eq!(
            ports,
            vec![9000, 9001, 9003],
            "tables, then drains upstream first"
        );
    }

    #[test]
    fn snapshot_values_scan_the_json_shape() {
        let json = r#"{"counters":{"relay.signals":4},"gauges":{"relay.ctrl_epoch":2,"relay.ctrl_seq":7,"relay.table_digest":8888123,"relay.daemon_state":3}}"#;
        assert_eq!(snapshot_value(json, "relay.ctrl_epoch"), Some(2.0));
        assert_eq!(snapshot_value(json, "relay.signals"), Some(4.0));
        assert_eq!(snapshot_value(json, "relay.table_digest"), Some(8888123.0));
        assert_eq!(snapshot_value(json, "relay.daemon_state"), Some(3.0));
        assert_eq!(snapshot_value(json, "missing.metric"), None);
    }
}
