//! The controller crashes at every byte of its journal (DESIGN.md §13).
//!
//! An in-memory fleet of VNFs — each the relay's own receiver, a real
//! [`Daemon`] handed every frame's bytes as a relay's control socket
//! would hand them — sits behind a [`ControlLink`] that runs the real
//! [`ExchangeTable`]: the table frames, sequences and matches every
//! exchange, and the link only carries bytes. The real [`Autoscaler`]
//! and [`Journal`] run a scripted scenario on it over a diamond fleet
//! (dc-a → {dc-b | dc-c} → rx, dc-c idle at first): the first start, a
//! capability drift that is adopted, a spell in which dc-b's VNF answers
//! nothing (lost on the second unanswered sweep and routed around through
//! dc-c), its return (re-armed, routed through again), an idle spell
//! that drains the fleet, a second silent spell while drained (lost
//! again), its return (re-armed and woken alone, then drained again),
//! returning traffic that wakes the fleet. That no-crash run records its
//! journal bytes and every frame it sends.
//!
//! Then the controller dies at every byte offset of that journal (inside
//! frames too, not only at their boundaries) and at every push index:
//! the network holds the frames sent before the crash, the disk holds the
//! journal up to the offset. Every such crash runs twice: once on a file
//! that ends at the offset, once on one whose zero padding follows up to
//! the length the live journal file had then (the journal writes into
//! preallocated zeros, so that is what a crash leaves). A new
//! incarnation does what every start does, the first one included: it
//! opens the journal (which cuts everything past the last valid frame
//! and replays), builds its link at `next_epoch()`, and calls
//! `Autoscaler::start` once. Then it finishes the scenario.
//! Meanwhile the dead incarnation's frames are still on the wire: each
//! one it sent (and the one it was sending) arrives again, one after
//! every step of its successor. A VNF that answers nothing at a tick
//! receives nothing then either: no query, no frame, no zombie.
//!
//! Checked after every step, on ghost state kept apart from the code
//! under test:
//!
//! 1. every frame's record was durable in the sender's journal before
//!    the frame left (its epoch, the node's launch, and the table, drain
//!    or re-arm the frame carries; a table is the `TablePushed` record of
//!    its own `(node, epoch, seq)`, or the believed table a restart's
//!    reconciliation re-pushes);
//! 2. no VNF applies a frame whose epoch is below the highest it has
//!    accepted;
//! 3. no VNF applies one `(epoch, seq)` twice — every frame is delivered
//!    twice, as after a lost ACK;
//! 4. the final tables and daemon states equal the no-crash run's;
//! 5. no frame of the dead incarnation is applied after the start entry
//!    returns;
//! 6. make-before-break: no Running VNF's table names a fleet VNF that
//!    is not armed (Running, with the session's settings and a table
//!    entry for it);
//! 7. a retransmission gets the answer its first delivery got;
//! 8. every reachable Running VNF holds exactly the routes the durable
//!    journal believes it holds, and after a step that journaled a
//!    decision or a table, that belief is the adopted plan's table for
//!    every reachable VNF: a session the plan dropped there is withdrawn.
//!
//! Pure state machines and a temporary journal file: no socket, no
//! sleep. Every reply is immediate, so the table's retry schedule never
//! fires.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ncvnf_control::diff::tables_from_deployment;
use ncvnf_control::journal::scan_frames;
use ncvnf_control::{
    Ack, Admit, AutoscaleConfig, Autoscaler, Completed, ControlLink, ControlRecord,
    ControllerState, Daemon, DaemonState, ExchangeTable, FencedSignal, ForwardingTable, Journal,
    NodeStatus, Received, RelayTarget, SendError, SendReceipt, Signal, VnfRoleWire,
};
use ncvnf_deploy::{
    Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
};
use ncvnf_rlnc::SessionId;

const SESSION: u16 = 5;
const IDLE_TAU_SECS: f64 = 2.0;
const TAU1_SECS: f64 = 2.0;
/// The fleet: node ids and their roles, one per data center.
const NODES: [(u32, VnfRoleWire); 3] = [
    (1, VnfRoleWire::Recoder),
    (2, VnfRoleWire::Decoder),
    (3, VnfRoleWire::Decoder),
];
/// The node that stops answering, and comes back.
const SILENT: u32 = 2;
/// The standby: the plan routes through it only while `SILENT` is lost.
const STANDBY: u32 = 3;
/// The data-plane port of each topology node, by label: a fleet VNF's is
/// 7200 + its node id.
const DATA_PORTS: [(&str, u16); 4] = [("dc-a", 7201), ("dc-b", 7202), ("dc-c", 7203), ("rx", 7204)];
/// Polls after the first start, as (counter step, polls, `SILENT`
/// answers nothing): 3 at the base rate, 5 at 30 % (adopted), 4 silent
/// (lost on the second, so a successor started anywhere in the spell
/// still sees two), 3 back (returned), 3 idle (drained), 2 silent while
/// drained (a successor started in the spell sees one miss, then the
/// answer), 4 idle and back (re-armed, drained again), 4 with traffic
/// back (woken).
const PHASES: [(u64, usize, bool); 8] = [
    (10_000, 3, false),
    (3_000, 5, false),
    (3_000, 4, true),
    (3_000, 3, false),
    (0, 3, false),
    (0, 2, true),
    (0, 4, false),
    (10_000, 4, false),
];

/// The script tick at which phase `k` starts.
fn phase_start(k: usize) -> usize {
    1 + PHASES[..k].iter().map(|p| p.1).sum::<usize>()
}

fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Node id of each VNF's control address.
fn node_of(to: SocketAddr) -> u32 {
    u32::from(to.port() - 7100)
}

/// The control address of the fleet VNF whose data address a table names.
fn control_of_hop(hop: &str) -> Option<SocketAddr> {
    let port = hop.parse::<SocketAddr>().ok()?.port();
    Some(addr(port.checked_sub(100)?))
}

/// One scripted instant: the controller clock, the datagram counter
/// and idle clock every VNF reports, and whether `SILENT` answers.
#[derive(Clone, Copy)]
struct Tick {
    now: f64,
    out: u64,
    idle_ms: u64,
    silent: bool,
}

/// The script: tick 0 is the first start, every later tick one poll.
fn script() -> Vec<Tick> {
    let mut ticks = vec![Tick {
        now: 0.0,
        out: 0,
        idle_ms: 0,
        silent: false,
    }];
    let (mut out, mut idle_ms) = (0, 0);
    for (step, polls, silent) in PHASES {
        for _ in 0..polls {
            out += step;
            idle_ms = if step == 0 { idle_ms + 1000 } else { 5 };
            ticks.push(Tick {
                now: ticks.len() as f64,
                out,
                idle_ms,
                silent,
            });
        }
    }
    ticks
}

/// The relay's receiver, plus the ghost state the checkers keep.
#[derive(Default)]
struct Vnf {
    daemon: Daemon,
    /// Highest epoch accepted, tracked apart from the daemon.
    highest: u64,
    applied: HashSet<(u64, u64)>,
}

/// What one VNF ended the run as: lifecycle state, table, role.
type Final = (DaemonState, String, Option<VnfRoleWire>);

#[derive(Default)]
struct Fleet {
    vnfs: BTreeMap<SocketAddr, Vnf>,
    tick: usize,
    ticks: Vec<Tick>,
}

impl Fleet {
    fn new() -> Fleet {
        Fleet {
            vnfs: NODES
                .iter()
                .map(|&(node, _)| (addr(7100 + node as u16), Vnf::default()))
                .collect(),
            tick: 0,
            ticks: script(),
        }
    }

    /// Whether `to` answers nothing at the current tick.
    fn silent(&self, to: SocketAddr) -> bool {
        self.ticks[self.tick].silent && node_of(to) == SILENT
    }

    /// One datagram's bytes arrive at `to`'s daemon, as at a relay's
    /// control socket: `NC_STATS` is answered with the script's snapshot,
    /// a fenced frame with its ACK, with checkers 2, 3 and 6 on every frame
    /// applied. Returns the fence's verdict (`None` for a stats query) and
    /// the reply.
    fn deliver(&mut self, to: SocketAddr, wire: &[u8]) -> (Option<Admit>, Vec<u8>) {
        let vnf = self.vnfs.get_mut(&to).expect("a fleet member");
        let (admit, ack) = match vnf.daemon.receive(wire) {
            Received::Stats => return (None, self.stats(to).into_bytes()),
            Received::Reply {
                admit: Some(admit),
                ack,
                ..
            } => (admit, ack),
            Received::Reply { admit: None, .. } => {
                panic!("node {} did not fence a fenced frame", node_of(to))
            }
        };
        let frame = fence_of(wire);
        if admit == Admit::Apply {
            assert!(
                frame.epoch >= vnf.highest,
                "node {} applied epoch {} after accepting epoch {}",
                node_of(to),
                frame.epoch,
                vnf.highest
            );
            assert!(
                vnf.applied.insert((frame.epoch, frame.seq)),
                "node {} applied ({}, {}) twice",
                node_of(to),
                frame.epoch,
                frame.seq
            );
        }
        if admit != Admit::Stale {
            vnf.highest = vnf.highest.max(frame.epoch);
        }
        if admit == Admit::Apply {
            self.assert_make_before_break();
        }
        (Some(admit), ack.to_string().into_bytes())
    }

    /// Checker 6: every fleet VNF a Running VNF's table names is armed.
    fn assert_make_before_break(&self) {
        let session = SessionId::new(SESSION);
        let armed = |v: &Vnf| {
            v.daemon.state() == DaemonState::Running
                && v.daemon.role(session).is_some()
                && v.daemon.table().next_hops(session).is_some()
        };
        for (&at, vnf) in &self.vnfs {
            if vnf.daemon.state() != DaemonState::Running {
                continue;
            }
            for (_, hops) in vnf.daemon.table().iter() {
                for next in hops.iter().filter_map(|h| control_of_hop(h)) {
                    if let Some(downstream) = self.vnfs.get(&next) {
                        assert!(
                            armed(downstream),
                            "node {} forwards to node {} before it is armed (tick {})",
                            node_of(at),
                            node_of(next),
                            self.tick
                        );
                    }
                }
            }
        }
    }

    fn stats(&self, to: SocketAddr) -> String {
        let daemon = &self.vnfs[&to].daemon;
        let tick = self.ticks[self.tick];
        let state = daemon.state().code();
        format!(
            r#"{{"counters":{{"relay.datagrams_out":{}}},"gauges":{{"relay.idle_ms":{},"relay.daemon_state":{state},"relay.table_digest":{},"relay.ctrl_epoch":{},"relay.ctrl_seq":{}}}}}"#,
            tick.out,
            tick.idle_ms,
            daemon.table().digest(),
            daemon.epoch(),
            daemon.last_seq(),
        )
    }

    fn finals(&self) -> Vec<Final> {
        self.vnfs
            .values()
            .map(|v| {
                let role = v.daemon.role(SessionId::new(SESSION));
                (v.daemon.state(), v.daemon.table().to_text(), role)
            })
            .collect()
    }
}

/// The fence and signal of a frame's bytes, as the checkers read them.
fn fence_of(wire: &[u8]) -> FencedSignal {
    FencedSignal::from_bytes(wire).expect("a fenced frame").0
}

/// A frame one incarnation sent, as its bytes left, with the length of
/// the journal's valid frames and of its file (padding included) at that
/// moment, and the script tick it left in.
#[derive(Clone)]
struct Sent {
    to: SocketAddr,
    wire: Vec<u8>,
    wal_len: usize,
    file_len: usize,
    tick: usize,
}

/// One controller incarnation's link to the fleet: the real exchange
/// table, with the fleet as its network.
struct FleetLink {
    table: ExchangeTable,
    wal: PathBuf,
    fleet: Fleet,
    sent: Vec<Sent>,
}

impl FleetLink {
    fn new(epoch: u64, wal: &Path, fleet: Fleet) -> FleetLink {
        FleetLink {
            table: ExchangeTable::new(epoch),
            wal: wal.to_path_buf(),
            fleet,
            sent: Vec::new(),
        }
    }

    /// Runs `requests` through the table. Each push is checked durable
    /// as it leaves (checker 1), then delivered twice, as after a lost
    /// ACK, and must be answered as it was the first time (checker 7).
    fn settle(&mut self, requests: &[(SocketAddr, Signal)]) -> Vec<Completed> {
        let (wal, fleet, sent) = (&self.wal, &mut self.fleet, &mut self.sent);
        let requests = requests.iter().map(|(to, s)| (*to, s));
        self.table.settle(Instant::now(), requests, |to, wire| {
            let Ok((frame, _)) = FencedSignal::from_bytes(wire) else {
                // A bare `NC_STATS` query.
                return (!fleet.silent(to)).then(|| fleet.deliver(to, wire).1);
            };
            assert!(
                !fleet.silent(to),
                "a frame to node {} while it answers nothing (tick {})",
                node_of(to),
                fleet.tick
            );
            let journal = std::fs::read(wal).expect("journal readable");
            assert_durable(&journal, &frame, node_of(to));
            sent.push(Sent {
                to,
                wire: wire.to_vec(),
                wal_len: scan_frames(&journal).1,
                file_len: journal.len(),
                tick: fleet.tick,
            });
            let (_, reply) = fleet.deliver(to, wire);
            let (_, again) = fleet.deliver(to, wire);
            assert_eq!(
                again,
                reply,
                "node {} answered a retransmission of ({}, {}) differently",
                node_of(to),
                frame.epoch,
                frame.seq
            );
            Some(reply)
        })
    }
}

/// Checker 1: what the journal on disk says must already cover `frame`.
fn assert_durable(wal: &[u8], frame: &FencedSignal, node: u32) {
    let (epoch, signal) = (frame.epoch, &frame.signal);
    let records = scan_frames(wal).0;
    let state = ControllerState::replay(&records);
    assert!(
        state.epoch >= epoch,
        "epoch {epoch} pushed before journaled"
    );
    let belief = state
        .nodes
        .get(&node)
        .unwrap_or_else(|| panic!("push to node {node} before its launch was journaled"));
    match signal {
        Signal::NcForwardTab { table } => {
            let journaled = records.iter().any(|r| {
                *r == ControlRecord::TablePushed {
                    node,
                    epoch,
                    seq: frame.seq,
                    table: table.clone(),
                }
            });
            assert!(
                journaled || belief.table.to_text() == *table,
                "table ({epoch}, {}) for node {node} is neither journaled nor the belief",
                frame.seq
            );
            let pushed = ForwardingTable::parse(table).expect("the controller pushes tables");
            let mut believed = belief.table.clone();
            assert_eq!(
                believed.merge(&pushed),
                0,
                "table for node {node} pushed before journaled"
            );
        }
        Signal::NcVnfEnd { .. } => assert!(
            matches!(belief.status, NodeStatus::Draining { .. }),
            "drain of node {node} pushed before journaled"
        ),
        Signal::NcSettings { .. } => assert!(
            belief.status == NodeStatus::Active,
            "re-arm of node {node} pushed before journaled"
        ),
        other => panic!("the autoscaler does not send {other:?}"),
    }
}

impl ControlLink for FleetLink {
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

/// The routes `table` gives: its withdrawals left out.
fn routes(table: &ForwardingTable) -> ForwardingTable {
    let mut routes = ForwardingTable::new();
    routes.merge(table);
    routes
}

/// The table the autoscaler's current deployment gives each fleet VNF,
/// by control address (empty where it routes nothing).
fn planned(auto: &Autoscaler) -> BTreeMap<SocketAddr, ForwardingTable> {
    let controller = auto.controller();
    let topo = controller.topology();
    let port = |n| {
        let label = topo.label(n);
        let found = DATA_PORTS.iter().find(|(l, _)| *l == label);
        found.map(|&(_, port)| port)
    };
    let tables = controller.deployment().map_or_else(HashMap::new, |dep| {
        let addr_of = |n| addr(port(n).expect("a next hop with a port")).to_string();
        tables_from_deployment(topo, controller.sessions(), dep, &addr_of)
    });
    let mut planned: BTreeMap<SocketAddr, ForwardingTable> = NODES
        .iter()
        .map(|&(node, _)| (addr(7100 + node as u16), ForwardingTable::new()))
        .collect();
    for (n, table) in tables {
        if let Some(at) = port(n).and_then(|p| planned.get_mut(&addr(p - 100))) {
            *at = table;
        }
    }
    planned
}

/// Checker 8 after a step that began with `since` records in the
/// journal; returns how many it holds now.
fn assert_holds_the_plan(link: &FleetLink, auto: &Autoscaler, since: usize) -> usize {
    let records = scan_frames(&std::fs::read(&link.wal).expect("journal readable")).0;
    let state = ControllerState::replay(&records);
    let actuated = records[since..].iter().any(|r| {
        matches!(
            r,
            ControlRecord::ScaleDecision { .. } | ControlRecord::TablePushed { .. }
        )
    });
    let plan = actuated.then(|| planned(auto));
    for (&at, vnf) in &link.fleet.vnfs {
        if link.fleet.silent(at) {
            continue;
        }
        let node = node_of(at);
        let believed = state
            .nodes
            .get(&node)
            .map_or_else(ForwardingTable::new, |b| routes(&b.table));
        if vnf.daemon.state() == DaemonState::Running {
            assert_eq!(
                vnf.daemon.table(),
                &believed,
                "node {node} holds other routes than the journal believes (tick {})",
                link.fleet.tick
            );
        }
        if let Some(plan) = &plan {
            assert_eq!(
                believed, plan[&at],
                "node {node}'s belief is not the adopted plan's table (tick {})",
                link.fleet.tick
            );
        }
    }
    records.len()
}

/// src → dc-a (recoder, node 1) → {dc-b (decoder, node 2) | dc-c
/// (decoder, node 3)} → rx. dc-c's VNF is the weaker: the plan leaves it
/// idle while dc-b serves.
fn autoscaler(journal: Journal) -> Autoscaler {
    let mut b = TopologyBuilder::new();
    let spec = |bps: f64| VnfSpec {
        bin_bps: bps,
        bout_bps: bps,
        coding_bps: 1000e6,
    };
    let dc_a = b.data_center("dc-a", spec(920e6));
    let dc_b = b.data_center("dc-b", spec(920e6));
    let dc_c = b.data_center("dc-c", spec(300e6));
    let s = b.source("src", 400e6);
    let r = b.receiver("rx", 400e6);
    b.link(s, dc_a, 5.0)
        .link(dc_a, dc_b, 5.0)
        .link(dc_b, r, 5.0)
        .link(dc_a, dc_c, 5.0)
        .link(dc_c, r, 5.0);
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
            ScalingEvent::SessionJoin(SessionSpec::elastic(
                SessionId::new(SESSION),
                s,
                vec![r],
                200.0,
            )),
            0.0,
        )
        .unwrap();
    let mut data_addrs = HashMap::new();
    data_addrs.insert(dc_a, "127.0.0.1:7201".to_owned());
    data_addrs.insert(dc_b, "127.0.0.1:7202".to_owned());
    data_addrs.insert(dc_c, "127.0.0.1:7203".to_owned());
    data_addrs.insert(r, "127.0.0.1:7204".to_owned());
    let config = AutoscaleConfig {
        min_rel_change: 0.02,
        telemetry_window: 1,
        idle_tau_secs: IDLE_TAU_SECS,
        drain_tau_secs: 60,
    };
    Autoscaler::new(
        controller,
        journal,
        targets(&[dc_a, dc_b, dc_c]),
        data_addrs,
        config,
    )
}

fn targets(dcs: &[ncvnf_flowgraph::NodeId]) -> Vec<RelayTarget> {
    NODES
        .iter()
        .zip(dcs)
        .map(|(&(node, role), &dc)| RelayTarget {
            node,
            dc,
            control_addr: addr(7100 + node as u16),
            role,
            settings: vec![Signal::NcSettings {
                session: SessionId::new(SESSION),
                role,
                data_port: 7200 + node as u16,
                block_size: 1024,
                generation_size: 4,
                buffer_generations: 64,
            }],
        })
        .collect()
}

/// Starts an incarnation at script tick `fleet.tick` on the journal
/// `Journal::open` replayed into `state`: its link is built at
/// `next_epoch()` and the start entry is called once.
fn start(
    journal: Journal,
    state: &ControllerState,
    wal: &Path,
    fleet: Fleet,
) -> (Autoscaler, FleetLink) {
    let now = fleet.ticks[fleet.tick].now;
    let since = scan_frames(&std::fs::read(wal).expect("journal readable"))
        .0
        .len();
    let mut link = FleetLink::new(state.next_epoch(), wal, fleet);
    let mut auto = autoscaler(journal);
    let report = auto.start(&mut link, state, now).expect("start");
    assert!(report.repush_failures.is_empty(), "{report:?}");
    assert_holds_the_plan(&link, &auto, since);
    (auto, link)
}

/// Runs script polls `from..` on `auto`, checker 8 after each; after
/// each, `between` runs once. Returns the ticks whose poll adopted a plan.
fn run_ticks(
    auto: &mut Autoscaler,
    link: &mut FleetLink,
    from: usize,
    mut between: impl FnMut(&mut FleetLink),
) -> Vec<usize> {
    let mut adopted = Vec::new();
    let mut records = scan_frames(&std::fs::read(&link.wal).expect("journal readable"))
        .0
        .len();
    for tick in from..link.fleet.ticks.len() {
        link.fleet.tick = tick;
        let now = link.fleet.ticks[tick].now;
        if auto.poll(link, now).expect("poll").adopted {
            adopted.push(tick);
        }
        records = assert_holds_the_plan(link, auto, records);
        between(link);
    }
    adopted
}

fn temp_wal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ncvnf-crash-every-byte-{tag}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The no-crash run: its journal bytes, every frame it sent, the length
/// of the journal's valid frames after each tick, the journal file's
/// length at the end of the run, and the fleet it left.
struct Reference {
    wal: Vec<u8>,
    sent: Vec<Sent>,
    wal_after_tick: Vec<usize>,
    end_file_len: usize,
    finals: Vec<Final>,
    decisions: u64,
    /// The ticks whose poll adopted a plan.
    adopted: Vec<usize>,
}

impl Reference {
    /// The journal file's length (frames and zero padding) when the
    /// controller had sent `pushed` frames.
    fn file_len(&self, pushed: usize) -> usize {
        self.sent
            .get(pushed)
            .map_or(self.end_file_len, |s| s.file_len)
    }
}

fn reference() -> Reference {
    let path = temp_wal("reference");
    let (journal, state, _) = Journal::open(&path).unwrap();
    let (mut auto, mut link) = start(journal, &state, &path, Fleet::new());
    let wal_len = |link: &FleetLink| scan_frames(&std::fs::read(&link.wal).unwrap()).1;
    let mut wal_after_tick = vec![wal_len(&link)];
    let adopted = run_ticks(&mut auto, &mut link, 1, |link| {
        wal_after_tick.push(wal_len(link))
    });
    let decisions = auto.decisions();
    let end_file_len = std::fs::metadata(&path).unwrap().len() as usize;
    drop(auto);
    let wal = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    Reference {
        wal,
        sent: link.sent,
        wal_after_tick,
        end_file_len,
        finals: link.fleet.finals(),
        decisions,
        adopted,
    }
}

/// How the dead incarnation's frames fared after the restart.
#[derive(Default, Debug)]
struct ZombieTally {
    stale: u64,
    duplicate: u64,
    applied: u64,
    /// Arrived while their VNF answered nothing.
    lost: u64,
}

/// One crash: `pushed` frames had left and `wal_len` journal bytes were
/// durable, followed by zero padding up to the live file's length if
/// `padded`. Returns the zombie's tally.
fn crash_and_recover(
    reference: &Reference,
    wal_len: usize,
    pushed: usize,
    padded: bool,
) -> ZombieTally {
    // The tick the controller died in: the earliest of the push it never
    // made and the journal write it never finished.
    let last_tick = reference.wal_after_tick.len() - 1;
    let torn_in = reference
        .wal_after_tick
        .iter()
        .position(|&len| len > wal_len)
        .unwrap_or(last_tick);
    let push_in = reference.sent.get(pushed).map_or(last_tick, |s| s.tick);
    let died_in = torn_in.min(push_in);

    // The network as the dead incarnation left it.
    let mut fleet = Fleet::new();
    for s in &reference.sent[..pushed] {
        let (_, ack) = fleet.deliver(s.to, &s.wire);
        assert!(
            matches!(Ack::parse(&ack), Some(Ack::Ok { .. })),
            "the reference applied it"
        );
    }
    // Its frames still in flight: every one it sent, and the one it was
    // sending if the journal already held that frame's record.
    let mut zombie: Vec<Sent> = reference.sent[..pushed].to_vec();
    if let Some(next) = reference.sent.get(pushed) {
        if next.wal_len <= wal_len {
            zombie.push(next.clone());
        }
    }

    // Incarnation 2 on the journal's durable prefix. Open cuts everything
    // past the last valid frame, and calls it a torn tail only if the cut
    // holds a non-zero byte.
    let path = temp_wal(&format!("crash-{wal_len}-{pushed}-{padded}"));
    let mut image = reference.wal[..wal_len].to_vec();
    if padded {
        image.resize(reference.file_len(pushed), 0);
    }
    std::fs::write(&path, &image).unwrap();
    let (journal, state, replay) = Journal::open(&path).unwrap();
    let valid = scan_frames(&image).1;
    let torn = image[valid..].iter().any(|&b| b != 0);
    assert_eq!(
        replay.torn_tail, torn,
        "crash at WAL byte {wal_len} (padded: {padded})"
    );
    let cut = if torn { image.len() - valid } else { 0 };
    assert_eq!(replay.truncated_bytes as usize, cut);
    assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, valid);
    fleet.tick = died_in;
    let (mut auto, mut link) = start(journal, &state, &path, fleet);
    let mut tally = ZombieTally::default();
    let mut zombie_step = |link: &mut FleetLink, frame: Option<&Sent>| {
        if let Some(s) = frame {
            if link.fleet.silent(s.to) {
                tally.lost += 1;
                return;
            }
            match link.fleet.deliver(s.to, &s.wire).0 {
                Some(Admit::Stale) => tally.stale += 1,
                Some(Admit::Duplicate) => tally.duplicate += 1,
                Some(Admit::Apply) => tally.applied += 1,
                None => unreachable!("a zombie frame is a push"),
            }
        }
    };
    let mut in_flight = zombie.iter();
    zombie_step(&mut link, in_flight.next());
    let _ = run_ticks(&mut auto, &mut link, died_in + 1, |link| {
        zombie_step(link, in_flight.next());
    });
    for s in in_flight {
        zombie_step(&mut link, Some(s));
    }
    drop(auto);
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        link.fleet.finals(),
        reference.finals,
        "crash at WAL byte {wal_len} after {pushed} pushes (tick {died_in}, padded: {padded}) \
         ends elsewhere"
    );
    tally
}

/// Crashes the controller at every (durable bytes, frames sent) pair a
/// crash can leave: before push p the journal holds between what it held
/// at push p-1 and at push p, torn anywhere in between; with `padded`,
/// the file's zero padding follows. Returns the cases run and the
/// zombies' tally.
fn explore(reference: &Reference, padded: bool) -> (u64, ZombieTally) {
    let sent = &reference.sent;
    let mut cases = 0u64;
    let mut tally = ZombieTally::default();
    for pushed in 0..=sent.len() {
        let from = if pushed == 0 {
            0
        } else {
            sent[pushed - 1].wal_len
        };
        let to = sent.get(pushed).map_or(reference.wal.len(), |s| s.wal_len);
        for wal_len in from..=to {
            let t = crash_and_recover(reference, wal_len, pushed, padded);
            assert_eq!(
                t.applied, 0,
                "crash at WAL byte {wal_len} after {pushed} pushes (padded: {padded}): a frame \
                 of the dead incarnation was applied after the start entry returned"
            );
            tally.stale += t.stale;
            tally.duplicate += t.duplicate;
            tally.applied += t.applied;
            tally.lost += t.lost;
            cases += 1;
        }
    }
    assert_eq!(
        cases,
        (reference.wal.len() + sent.len() + 1) as u64,
        "every byte offset and every push index"
    );
    (cases, tally)
}

#[test]
fn controller_crash_at_every_wal_byte_and_push_converges() {
    let started = Instant::now();
    let reference = reference();
    let sent = &reference.sent;
    assert!(reference.decisions >= 1, "the drift was never adopted");
    // The silent spell routed around node 2: node 1 named node 3 then.
    assert!(
        sent.iter().any(|s| node_of(s.to) == 1
            && matches!(&fence_of(&s.wire).signal,
                Signal::NcForwardTab { table } if table.contains("127.0.0.1:7203"))),
        "node 2 was never lost"
    );
    assert!(
        sent.iter()
            .any(|s| matches!(fence_of(&s.wire).signal, Signal::NcVnfEnd { .. })),
        "the idle spell never drained"
    );
    // Back from the silence while drained, node 2 was re-armed before the
    // traffic returned, and drained again.
    let after_silence: Vec<Signal> = sent
        .iter()
        .filter(|s| node_of(s.to) == SILENT && (phase_start(6)..phase_start(7)).contains(&s.tick))
        .map(|s| fence_of(&s.wire).signal)
        .collect();
    assert!(
        matches!(
            after_silence[..],
            [Signal::NcSettings { .. }, .., Signal::NcVnfEnd { .. }]
        ),
        "node 2 was not re-armed after its silence while drained: {after_silence:?}"
    );
    // It ends armed and woken, routing through node 2 again: the standby's
    // route from the loss was withdrawn.
    let routed: Vec<bool> = reference
        .finals
        .iter()
        .map(|(state, table, _)| {
            assert_eq!(*state, DaemonState::Running, "{:?}", reference.finals);
            !table.is_empty()
        })
        .collect();
    assert_eq!(
        routed,
        NODES.map(|(node, _)| node != STANDBY),
        "{:?}",
        reference.finals
    );

    // A crash between a withdrawal's record and its frame: the return's
    // withdrawal of the standby's route is durable and not sent. The
    // restart re-pushes it (checker 8 right after the start entry), and
    // the run ends where the no-crash run did.
    let withdrawal = sent
        .iter()
        .position(|s| {
            node_of(s.to) == STANDBY
                && matches!(&fence_of(&s.wire).signal, Signal::NcForwardTab { table }
                    if ForwardingTable::parse(table).is_ok_and(|t| routes(&t).is_empty()))
        })
        .expect("the standby's route was withdrawn");
    let wal_len = sent[withdrawal].wal_len;
    let durable = ControllerState::replay(&scan_frames(&reference.wal[..wal_len]).0);
    assert!(routes(&durable.nodes[&STANDBY].table).is_empty());
    assert_eq!(
        crash_and_recover(&reference, wal_len, withdrawal, false).applied,
        0
    );

    let (cases, plain) = explore(&reference, false);
    let (padded_cases, padded) = explore(&reference, true);
    println!(
        "crash_every_byte: {} crash cases ({} WAL bytes, {} pushes) and {} over zero padding \
         (file {} bytes at the end); zombie frames: {} / {} stale, {} / {} acked as \
         duplicates, {} / {} applied, {} / {} lost at a silent VNF; plans adopted at ticks \
         {:?}; wall {:.2} s",
        cases,
        reference.wal.len(),
        sent.len(),
        padded_cases,
        reference.end_file_len,
        plain.stale,
        padded.stale,
        plain.duplicate,
        padded.duplicate,
        plain.applied,
        padded.applied,
        plain.lost,
        padded.lost,
        reference.adopted,
        started.elapsed().as_secs_f64()
    );
}
