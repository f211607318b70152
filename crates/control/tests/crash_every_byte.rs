//! The controller crashes at every byte of its journal (DESIGN.md §13).
//!
//! An in-memory fleet of VNFs — each the relay's own receiver, a real
//! [`Daemon`] handed every frame's bytes as a relay's control socket
//! would hand them — sits behind a [`ControlLink`] that runs the real
//! [`ExchangeTable`]: the table frames, sequences and matches every
//! exchange, and the link only carries bytes. The real [`Autoscaler`]
//! and [`Journal`] run a scripted scenario on it: the first start, a
//! capability drift that is adopted, an idle spell that drains the fleet,
//! returning traffic that wakes it. That no-crash run records its journal bytes and every frame
//! it sends.
//!
//! Then the controller dies at every byte offset of that journal (inside
//! frames too, not only at their boundaries) and at every push index:
//! the network holds the frames sent before the crash, the disk holds the
//! journal up to the offset. A new incarnation does what every start
//! does, the first one included: it opens the journal (which truncates
//! the torn tail and replays), builds its link at `next_epoch()`, and
//! calls `Autoscaler::start` once. Then it finishes the scenario.
//! Meanwhile the dead incarnation's frames are still on the wire: each
//! one it sent (and the one it was sending) arrives again, one after
//! every step of its successor.
//!
//! Checked after every step, on ghost state kept apart from the code
//! under test:
//!
//! 1. every frame's record was durable in the sender's journal before
//!    the frame left (its epoch, the node's launch, and the table, drain
//!    or re-arm the frame carries);
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
//! 7. a retransmission gets the answer its first delivery got.
//!
//! Pure state machines and a temporary journal file: no socket, no
//! sleep. Every reply is immediate, so the table's retry schedule never
//! fires.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ncvnf_control::journal::scan_frames;
use ncvnf_control::{
    Ack, Admit, AutoscaleConfig, Autoscaler, Completed, ControlLink, ControllerState, Daemon,
    DaemonState, ExchangeTable, FencedSignal, ForwardingTable, Journal, NodeStatus, Received,
    RelayTarget, SendError, SendReceipt, Signal, VnfRoleWire,
};
use ncvnf_deploy::{
    Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
};
use ncvnf_rlnc::SessionId;

const SESSION: u16 = 5;
const IDLE_TAU_SECS: f64 = 2.0;
const TAU1_SECS: f64 = 2.0;
/// The fleet: node ids and their roles.
const NODES: [(u32, VnfRoleWire); 2] = [(1, VnfRoleWire::Recoder), (2, VnfRoleWire::Decoder)];
/// Polls after the first start: 3 at the base rate, 5 at 30 % (adopted), 6
/// idle (drained), 4 with traffic back (woken).
const PHASES: [(u64, usize); 4] = [(10_000, 3), (3_000, 5), (0, 6), (10_000, 4)];

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

/// One scripted instant: the controller clock and the datagram counter
/// and idle clock every VNF reports.
#[derive(Clone, Copy)]
struct Tick {
    now: f64,
    out: u64,
    idle_ms: u64,
}

/// The script: tick 0 is the first start, every later tick one poll.
fn script() -> Vec<Tick> {
    let mut ticks = vec![Tick {
        now: 0.0,
        out: 0,
        idle_ms: 0,
    }];
    let (mut out, mut idle_ms) = (0, 0);
    for (step, polls) in PHASES {
        for _ in 0..polls {
            out += step;
            idle_ms = if step == 0 { idle_ms + 1000 } else { 5 };
            ticks.push(Tick {
                now: ticks.len() as f64,
                out,
                idle_ms,
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

/// A frame one incarnation sent, as its bytes left, with the journal
/// length at that moment and the script tick it left in.
#[derive(Clone)]
struct Sent {
    to: SocketAddr,
    wire: Vec<u8>,
    wal_len: usize,
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
                return Some(fleet.deliver(to, wire).1);
            };
            let journal = std::fs::read(wal).expect("journal readable");
            assert_durable(&journal, frame.epoch, node_of(to), &frame.signal);
            sent.push(Sent {
                to,
                wire: wire.to_vec(),
                wal_len: journal.len(),
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

/// Checker 1: what the journal on disk says must already cover `signal`.
fn assert_durable(wal: &[u8], epoch: u64, node: u32, signal: &Signal) {
    let state = ControllerState::replay(&scan_frames(wal).0);
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

/// src → dc-a (recoder, node 1) → dc-b (decoder, node 2) → rx.
fn autoscaler(journal: Journal) -> Autoscaler {
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
    data_addrs.insert(r, "127.0.0.1:7203".to_owned());
    let config = AutoscaleConfig {
        min_rel_change: 0.02,
        telemetry_window: 1,
        idle_tau_secs: IDLE_TAU_SECS,
        drain_tau_secs: 60,
    };
    Autoscaler::new(
        controller,
        journal,
        targets(&[dc_a, dc_b]),
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
    let mut link = FleetLink::new(state.next_epoch(), wal, fleet);
    let mut auto = autoscaler(journal);
    let report = auto.start(&mut link, state, now).expect("start");
    assert!(report.repush_failures.is_empty(), "{report:?}");
    (auto, link)
}

/// Runs script polls `from..` on `auto`; after each, `between` runs once.
fn run_ticks(
    auto: &mut Autoscaler,
    link: &mut FleetLink,
    from: usize,
    mut between: impl FnMut(&mut FleetLink),
) {
    for tick in from..link.fleet.ticks.len() {
        link.fleet.tick = tick;
        let now = link.fleet.ticks[tick].now;
        auto.poll(link, now).expect("poll");
        between(link);
    }
}

fn temp_wal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ncvnf-crash-every-byte-{tag}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The no-crash run: its journal bytes, every frame it sent, the
/// journal length after each tick, and the fleet it left.
struct Reference {
    wal: Vec<u8>,
    sent: Vec<Sent>,
    wal_after_tick: Vec<usize>,
    finals: Vec<Final>,
    decisions: u64,
}

fn reference() -> Reference {
    let path = temp_wal("reference");
    let (journal, state, _) = Journal::open(&path).unwrap();
    let (mut auto, mut link) = start(journal, &state, &path, Fleet::new());
    let wal_len = |link: &FleetLink| std::fs::metadata(&link.wal).unwrap().len() as usize;
    let mut wal_after_tick = vec![wal_len(&link)];
    run_ticks(&mut auto, &mut link, 1, |link| {
        wal_after_tick.push(wal_len(link))
    });
    let decisions = auto.decisions();
    drop(auto);
    let wal = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    Reference {
        wal,
        sent: link.sent,
        wal_after_tick,
        finals: link.fleet.finals(),
        decisions,
    }
}

/// How the dead incarnation's frames fared after the restart.
#[derive(Default, Debug)]
struct ZombieTally {
    stale: u64,
    duplicate: u64,
    applied: u64,
}

/// One crash: `pushed` frames had left and `wal_len` journal bytes were
/// durable. Returns the zombie's tally.
fn crash_and_recover(reference: &Reference, wal_len: usize, pushed: usize) -> ZombieTally {
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

    // Incarnation 2 on the journal's durable prefix.
    let path = temp_wal(&format!("crash-{wal_len}-{pushed}"));
    std::fs::write(&path, &reference.wal[..wal_len]).unwrap();
    let (journal, state, replay) = Journal::open(&path).unwrap();
    let valid = scan_frames(&reference.wal[..wal_len]).1;
    assert_eq!(replay.truncated_bytes as usize, wal_len - valid);
    assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, valid);
    fleet.tick = died_in;
    let (mut auto, mut link) = start(journal, &state, &path, fleet);
    let mut tally = ZombieTally::default();
    let mut zombie_step = |link: &mut FleetLink, frame: Option<&Sent>| {
        if let Some(s) = frame {
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
    run_ticks(&mut auto, &mut link, died_in + 1, |link| {
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
        "crash at WAL byte {wal_len} after {pushed} pushes (tick {died_in}) ends elsewhere"
    );
    tally
}

#[test]
fn controller_crash_at_every_wal_byte_and_push_converges() {
    let started = Instant::now();
    let reference = reference();
    let sent = &reference.sent;
    assert!(reference.decisions >= 1, "the drift was never adopted");
    assert!(
        sent.iter()
            .any(|s| matches!(fence_of(&s.wire).signal, Signal::NcVnfEnd { .. })),
        "the idle spell never drained"
    );
    assert!(
        reference
            .finals
            .iter()
            .all(|(state, table, _)| *state == DaemonState::Running && !table.is_empty()),
        "the no-crash run must end armed and woken: {:?}",
        reference.finals
    );

    // Every (durable bytes, frames sent) pair a crash can leave: before
    // push p the journal holds between what it held at push p-1 and at
    // push p, torn anywhere in between.
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
            let t = crash_and_recover(&reference, wal_len, pushed);
            assert_eq!(
                t.applied, 0,
                "crash at WAL byte {wal_len} after {pushed} pushes: a frame of the dead \
                 incarnation was applied after the start entry returned"
            );
            tally.stale += t.stale;
            tally.duplicate += t.duplicate;
            tally.applied += t.applied;
            cases += 1;
        }
    }
    assert_eq!(
        cases,
        (reference.wal.len() + sent.len() + 1) as u64,
        "every byte offset and every push index"
    );
    println!(
        "crash_every_byte: {cases} crash cases ({} WAL bytes, {} pushes); zombie frames: \
         {} stale, {} acked as duplicates, {} applied; wall {:.2} s",
        reference.wal.len(),
        sent.len(),
        tally.stale,
        tally.duplicate,
        tally.applied,
        started.elapsed().as_secs_f64()
    );
}
