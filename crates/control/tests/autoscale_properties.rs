//! Property tests for the autoscaler decision loop.
//!
//! Three invariants, driven by randomized traffic traces:
//!
//! 1. **Persistence** — a capability dip shorter than τ1 never causes an
//!    adoption (Algorithm 1's hysteresis holds end to end through the
//!    telemetry → controller → actuation pipeline).
//! 2. **Write-ahead** — at the instant any `NC_FORWARD_TAB` leaves the
//!    controller, the WAL already contains the pushed table as the
//!    node's belief; at the instant a poll reports an adoption, the WAL
//!    already contains the matching `ScaleDecision`.
//! 3. **Drain safety** — `NC_VNF_END` is only ever pushed to a node
//!    whose datagram counters did not move across the last poll gap
//!    *and* whose idle clock exceeds the idle τ: scale-to-zero never
//!    winds down a node with in-flight traffic.
//!
//! The link runs the real [`ExchangeTable`] over in-memory delivery: it
//! re-opens the WAL as each push leaves and asserts the write-ahead
//! invariants then, not after the fact.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use proptest::prelude::*;

use ncvnf_control::{
    Ack, AutoscaleConfig, Autoscaler, Completed, ControlLink, ControllerState, ExchangeTable,
    FencedSignal, Journal, NodeStatus, RelayTarget, SendError, SendReceipt, Signal, VnfRoleWire,
};
use ncvnf_deploy::{
    Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
};
use ncvnf_rlnc::SessionId;

const IDLE_TAU_SECS: f64 = 5.0;
const TAU1_SECS: f64 = 5.0;

fn addr(port: u16) -> SocketAddr {
    format!("127.0.0.1:{port}").parse().unwrap()
}

fn temp_wal(tag: &str, case: u64) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ncvnf-autoscale-prop-{tag}-{case}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// A scripted link over the real exchange table that checks the
/// write-ahead invariants *as each push leaves* by replaying the WAL, and
/// records everything it served so drain safety can be checked against
/// the stats history.
struct VerifyingLink {
    table: ExchangeTable,
    wal: PathBuf,
    node_of: HashMap<SocketAddr, u32>,
    /// Stats history served per address: (datagrams_out, idle_ms).
    served: HashMap<SocketAddr, Vec<(u64, u64)>>,
    stats: HashMap<SocketAddr, String>,
    pushes: Vec<Signal>,
}

fn replayed(wal: &Path) -> ControllerState {
    let (_, state, _) = Journal::open(wal).expect("wal replays");
    state
}

impl VerifyingLink {
    fn new(epoch: u64, wal: PathBuf, node_of: HashMap<SocketAddr, u32>) -> Self {
        VerifyingLink {
            table: ExchangeTable::new(epoch),
            wal,
            node_of,
            served: HashMap::new(),
            stats: HashMap::new(),
            pushes: Vec::new(),
        }
    }

    fn set_stats(&mut self, to: SocketAddr, out: u64, idle_ms: u64) {
        self.stats.insert(
            to,
            format!(
                r#"{{"counters":{{"relay.datagrams_out":{out}}},"gauges":{{"relay.idle_ms":{idle_ms},"relay.daemon_state":1}}}}"#
            ),
        );
    }

    fn replayed(&self) -> ControllerState {
        replayed(&self.wal)
    }

    /// Runs `requests` through the table: a stats query is answered from
    /// the script (a node without stats stays silent), a push is checked
    /// and ACKed.
    fn settle(&mut self, requests: &[(SocketAddr, Signal)]) -> Vec<Completed> {
        let VerifyingLink {
            table,
            wal,
            node_of,
            served,
            stats,
            pushes,
        } = self;
        let requests = requests.iter().map(|(to, s)| (*to, s));
        table.settle(Instant::now(), requests, |to, wire| {
            let Ok((frame, _)) = FencedSignal::from_bytes(wire) else {
                let json = stats.get(&to)?.clone();
                let value = |name| {
                    ncvnf_control::reconcile::snapshot_value(&json, name).unwrap_or(0.0) as u64
                };
                let seen = (value("relay.datagrams_out"), value("relay.idle_ms"));
                served.entry(to).or_default().push(seen);
                return Some(json.into_bytes());
            };
            let node = *node_of.get(&to).expect("push to a known target");
            check_push(&replayed(wal), node, &frame.signal, served.get(&to));
            pushes.push(frame.signal);
            Some(Ack::Ok { seq: frame.seq }.to_string().into_bytes())
        })
    }
}

/// The write-ahead and drain-safety invariants at the instant a push of
/// `signal` to `node` leaves, given the journal's replay and the stats
/// served to the node so far.
fn check_push(
    state: &ControllerState,
    node: u32,
    signal: &Signal,
    history: Option<&Vec<(u64, u64)>>,
) {
    match signal {
        Signal::NcForwardTab { table } => {
            // Write-ahead: the WAL's belief for this node must already
            // equal the table being pushed (full-table pushes merge to
            // exactly the last delta).
            let belief = state
                .nodes
                .get(&node)
                .unwrap_or_else(|| panic!("node {node} journaled before any push"));
            assert_eq!(
                belief.table.to_text(),
                *table,
                "table push to node {node} not journaled write-ahead"
            );
        }
        Signal::NcVnfEnd { .. } => {
            // Write-ahead + drain safety.
            let belief = state
                .nodes
                .get(&node)
                .unwrap_or_else(|| panic!("node {node} journaled before drain"));
            assert!(
                matches!(belief.status, NodeStatus::Draining { .. }),
                "drain of node {node} not journaled write-ahead"
            );
            let history = history.map(Vec::as_slice).unwrap_or(&[]);
            assert!(
                history.len() >= 2,
                "node {node} drained before two observations existed"
            );
            let (last_out, last_idle) = history[history.len() - 1];
            let (prev_out, _) = history[history.len() - 2];
            assert_eq!(
                last_out, prev_out,
                "node {node} drained while its counters were moving"
            );
            assert!(
                last_idle as f64 >= IDLE_TAU_SECS * 1000.0,
                "node {node} drained at idle {last_idle} ms < τ"
            );
        }
        _ => {}
    }
}

impl ControlLink for VerifyingLink {
    fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    fn next_seq(&self, to: SocketAddr) -> u64 {
        self.table.next_seq(to)
    }

    fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
        self.settle(&[(to, signal.clone())]).remove(0).into_push()
    }

    fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
        self.settle(&[(to, Signal::NcStats)]).remove(0).into_stats()
    }

    fn push_wave(
        &mut self,
        frames: &[(SocketAddr, Signal)],
    ) -> Vec<Result<SendReceipt, SendError>> {
        let done = self.settle(frames);
        done.into_iter().map(Completed::into_push).collect()
    }

    fn query_all(&mut self, to: &[SocketAddr]) -> Vec<Result<String, SendError>> {
        let queries: Vec<_> = to.iter().map(|to| (*to, Signal::NcStats)).collect();
        let done = self.settle(&queries);
        done.into_iter().map(Completed::into_stats).collect()
    }
}

/// src → dcA (recoder) → dcB (decoder) → rx with τ1 = 5 s hysteresis.
fn harness(wal: &Path) -> (Autoscaler, VerifyingLink) {
    let mut b = TopologyBuilder::new();
    let spec = VnfSpec {
        bin_bps: 920e6,
        bout_bps: 920e6,
        coding_bps: 1000e6,
    };
    let dc_a = b.data_center("dc-a", spec);
    let dc_b = b.data_center("dc-b", spec);
    let s = b.source("src", 400e6);
    let r = b.receiver("rx", 400e6);
    b.link(s, dc_a, 5.0)
        .link(dc_a, dc_b, 5.0)
        .link(dc_b, r, 5.0);
    let params = ScalingParams {
        alpha: 20e6,
        rho1: 0.05,
        tau1_secs: TAU1_SECS,
        rho2: 0.05,
        tau2_secs: TAU1_SECS,
        pool_tau_secs: 600.0,
        launch_latency_secs: 0.0,
    };
    let mut controller = ScalingController::new(b.build(), Planner::new(), params);
    controller
        .handle(
            ScalingEvent::SessionJoin(SessionSpec::elastic(SessionId::new(5), s, vec![r], 200.0)),
            0.0,
        )
        .unwrap();
    let (journal, _, _) = Journal::open(wal).unwrap();
    let settings = |role| {
        vec![Signal::NcSettings {
            session: SessionId::new(5),
            role,
            data_port: 7000,
            block_size: 1024,
            generation_size: 4,
            buffer_generations: 64,
        }]
    };
    let targets = vec![
        RelayTarget {
            node: 1,
            dc: dc_a,
            control_addr: addr(7101),
            role: VnfRoleWire::Recoder,
            settings: settings(VnfRoleWire::Recoder),
        },
        RelayTarget {
            node: 2,
            dc: dc_b,
            control_addr: addr(7102),
            role: VnfRoleWire::Decoder,
            settings: settings(VnfRoleWire::Decoder),
        },
    ];
    let mut node_of = HashMap::new();
    node_of.insert(addr(7101), 1u32);
    node_of.insert(addr(7102), 2u32);
    let mut data_addrs = HashMap::new();
    data_addrs.insert(dc_a, "127.0.0.1:7201".to_owned());
    data_addrs.insert(dc_b, "127.0.0.1:7202".to_owned());
    data_addrs.insert(r, "127.0.0.1:7203".to_owned());
    let config = AutoscaleConfig {
        min_rel_change: 0.02,
        telemetry_window: 1,
        idle_tau_secs: IDLE_TAU_SECS,
        drain_tau_secs: 60,
    };
    let auto = Autoscaler::new(controller, journal, targets, data_addrs, config);
    let link = VerifyingLink::new(1, wal.to_path_buf(), node_of);
    (auto, link)
}

const BASE_STEP: u64 = 10_000;

/// Drives `polls` one-second polls; per poll the closure gives each
/// target's counter step and idle gauge. Returns whether any poll
/// adopted, verifying decision durability at every adopting poll.
fn drive(
    auto: &mut Autoscaler,
    link: &mut VerifyingLink,
    polls: usize,
    mut step_of: impl FnMut(usize) -> (u64, u64),
) -> bool {
    let mut adopted = false;
    let mut out = 0u64;
    for i in 0..polls {
        let (step, idle_ms) = step_of(i);
        out += step;
        link.set_stats(addr(7101), out, idle_ms);
        link.set_stats(addr(7102), out, idle_ms);
        let report = auto.poll(link, 1.0 + i as f64).expect("poll runs");
        if report.adopted {
            adopted = true;
            // Decision durability: by the time poll() reports the
            // adoption, the WAL already carries its sequence number.
            assert_eq!(
                link.replayed().scale_decisions,
                auto.decisions(),
                "adoption reported before the decision was durable"
            );
        }
    }
    adopted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A dip shorter than τ1 — whatever its depth — never adopts.
    #[test]
    fn short_dips_never_adopt(
        dip_frac in 0.2f64..0.8,
        dip_len in 1usize..=4,
        case in 0u64..1_000_000,
    ) {
        let wal = temp_wal("shortdip", case);
        let (mut auto, mut link) = harness(&wal);
        auto.bootstrap(&mut link, 0.0).unwrap();
        let dip_step = (BASE_STEP as f64 * dip_frac) as u64;
        let adopted = drive(&mut auto, &mut link, 16, |i| {
            // 4 polls of baseline, `dip_len` polls of dip, recovery.
            if (4..4 + dip_len).contains(&i) {
                (dip_step, 10)
            } else {
                (BASE_STEP, 10)
            }
        });
        prop_assert!(!adopted, "sub-τ dip was adopted");
        prop_assert_eq!(link.replayed().scale_decisions, 0);
        let _ = std::fs::remove_file(&wal);
    }

    /// A dip persisting well past τ1 always adopts, and the decision is
    /// journaled before the report (checked inside `drive`) with every
    /// table push write-ahead (checked inside the link).
    #[test]
    fn persistent_dips_always_adopt_durably(
        // Deep enough that the shrunken capability binds the session's
        // source-capped demand (400e6 of a 920e6 spec ≈ 0.435): a
        // shallower dip is correctly adopted as belief without changing
        // the deployment, which is not what this property probes.
        dip_frac in 0.2f64..0.40,
        dip_len in 8usize..=12,
        case in 0u64..1_000_000,
    ) {
        let wal = temp_wal("longdip", case);
        let (mut auto, mut link) = harness(&wal);
        auto.bootstrap(&mut link, 0.0).unwrap();
        let dip_step = (BASE_STEP as f64 * dip_frac) as u64;
        let adopted = drive(&mut auto, &mut link, 4 + dip_len, |i| {
            if i < 4 { (BASE_STEP, 10) } else { (dip_step, 10) }
        });
        prop_assert!(adopted, "persistent dip was never adopted");
        prop_assert!(link.replayed().scale_decisions >= 1);
        let _ = std::fs::remove_file(&wal);
    }

    /// Scale-to-zero never drains a node with in-flight traffic: every
    /// `NC_VNF_END` the link ever sees follows a zero counter delta and
    /// an over-τ idle gauge (asserted at push time inside the link),
    /// regardless of the idle/traffic pattern driven here.
    #[test]
    fn drains_only_fire_on_genuinely_idle_nodes(
        trace in proptest::collection::vec(
            (any::<bool>(), 0u64..20_000),
            6..18,
        ),
        case in 0u64..1_000_000,
    ) {
        let wal = temp_wal("drain", case);
        let (mut auto, mut link) = harness(&wal);
        auto.bootstrap(&mut link, 0.0).unwrap();
        let steps: Vec<(u64, u64)> = trace
            .iter()
            .map(|&(moving, idle)| {
                if moving {
                    // Traffic flowed this second; the relay's idle clock
                    // would read near zero.
                    (BASE_STEP, 5)
                } else {
                    (0, idle)
                }
            })
            .collect();
        drive(&mut auto, &mut link, steps.len(), |i| steps[i]);
        // The invariant lives in VerifyingLink::push; reaching here
        // without a panic means every drain (if any) was legitimate.
        // Cross-check the WAL agrees with the autoscaler's own view.
        let state = link.replayed();
        for node in auto.draining() {
            prop_assert!(matches!(
                state.nodes.get(&node).map(|b| &b.status),
                Some(NodeStatus::Draining { .. })
            ));
        }
        let _ = std::fs::remove_file(&wal);
    }
}
