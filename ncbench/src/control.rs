//! `control_react`: the closed control loop against two live relays.
//!
//! Topology and wiring follow `perf_report`'s autoscale section:
//! src → dc-a (recoder) → dc-b (decoder) → rx. A scripted `NC_STATS`
//! out-rate alternates between 100 % and 30 % of baseline on a virtual
//! 1 Hz clock, each level held until the `Autoscaler::poll` that adopts
//! it. One sample is one adopting poll: planner re-solve, fsync'd
//! `ScaleDecision`, and whatever table deltas the new plan needs, pushed
//! fenced and ACKed. Stats are scripted so the timeline is a function of
//! the seed alone; every journal write and push is real.
//!
//! The commit is an `fdatasync` on a disk this host shares, and for
//! minutes at a time that disk is half again as slow: the wall time of an
//! adopting poll is reported (notes, `control.autoscale.react_p50_us`)
//! but cannot be gated. The end-to-end metrics count the CPU time of the
//! controller's thread instead, and of that the undisturbed cost: a low
//! percentile ([`FLOOR`]) of the run's samples.
//!
//! [`Pieces`] drives the same steps one public call at a time — a real
//! `NC_STATS` query, `ScalingController::handle`, `Journal::log`,
//! `SignalSender::push` — for the traced slice and the control rungs.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ncvnf_control::journal::scan_frames;
use ncvnf_control::{
    AutoscaleConfig, Autoscaler, ControlLink, ControlRecord, ForwardingTable, Journal, PollReport,
    RelayTarget, SendError, SendReceipt, SenderConfig, Signal, SignalSender, VnfRoleWire,
};
use ncvnf_deploy::{
    Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
};
use ncvnf_flowgraph::NodeId;
use ncvnf_relay::RelayConfig;
use ncvnf_rlnc::{GenerationConfig, SessionId};

use crate::cputime::thread_cpu;
use crate::inputs::{derive, SESSION};
use crate::relay::LiveRelay;
use crate::stats::{median, quantile, PerSlice, Percentiles};
use crate::trace::Tracer;
use crate::{out_dir, timed_setup, Options, Report};

/// Scripted `relay.datagrams_out` step per virtual second at 100 %.
const BASE_STEP: u64 = 10_000;
/// The collapsed level: 30 % of baseline.
const LOW_STEP: u64 = 3_000;
/// Nominal per-VNF capability of both data centers.
const NOMINAL: VnfSpec = VnfSpec {
    bin_bps: 920e6,
    bout_bps: 920e6,
    coding_bps: 1000e6,
};

/// The quantile of a run's CPU-time samples that the end-to-end metrics
/// report. The host adds to a poll's CPU time too (exits to the
/// hypervisor get slower while the disk is busy), for minutes at a time
/// and to most polls, but never takes away: over 80 runs the 0.5th
/// percentile stayed within 6 % while the median ranged over 150 %, and
/// ten-run groups of it agreed within 4 %. It still has ≈ 500 samples
/// below it, which the rare fast stretch (some 256 adoptions at 50 µs
/// instead of 57) does not fill.
const FLOOR: f64 = 0.005;

/// τ1: a capability change is applied by the tick that sees it persist
/// this long — at 1 Hz, the third poll of a held level.
const TAU1_SECS: f64 = 2.0;

/// A write-ahead-log path inside the benchmark's output directory,
/// unique within and across processes.
pub(crate) fn wal_path(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{tag}_{}_{}.wal",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    Ok(path)
}

fn spawn_relay(seed: u64) -> Result<LiveRelay, String> {
    LiveRelay::spawn(RelayConfig {
        generation: GenerationConfig::paper_default(),
        buffer_generations: 64,
        seed,
        heartbeat: None,
        registry: None,
        shards: 1,
        batch: crate::relay::BURST,
    })
    .map_err(|e| e.to_string())
}

fn settings(relay: &LiveRelay, role: VnfRoleWire) -> Vec<Signal> {
    let config = GenerationConfig::paper_default();
    vec![Signal::NcSettings {
        session: SessionId::new(SESSION),
        role,
        data_port: relay.node().data_addr.port(),
        block_size: config.block_size() as u32,
        generation_size: config.blocks_per_generation() as u32,
        buffer_generations: 64,
    }]
}

/// Real fenced pushes to live relays; scripted `NC_STATS` replies.
/// Counts push attempts and ACKs and remembers the last table pushed to
/// each relay, for the correctness pass.
struct ScriptedLink {
    inner: SignalSender,
    stats: HashMap<SocketAddr, String>,
    attempts: u64,
    acked: u64,
    unacked: u64,
    tables: HashMap<SocketAddr, String>,
}

impl ScriptedLink {
    fn set_stats(&mut self, to: SocketAddr, out: u64) {
        self.stats.insert(
            to,
            format!(
                r#"{{"counters":{{"relay.datagrams_out":{out}}},"gauges":{{"relay.idle_ms":10,"relay.daemon_state":1}}}}"#
            ),
        );
    }
}

impl ControlLink for ScriptedLink {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn next_seq(&self, to: SocketAddr) -> u64 {
        self.inner.next_seq(to)
    }

    fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
        match self.inner.push(to, signal) {
            Ok(receipt) => {
                self.attempts += u64::from(receipt.attempts);
                self.acked += 1;
                if let Signal::NcForwardTab { table } = signal {
                    self.tables.insert(to, table.clone());
                }
                Ok(receipt)
            }
            Err(e) => {
                self.unacked += 1;
                Err(e)
            }
        }
    }

    fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
        self.stats
            .get(&to)
            .cloned()
            .ok_or(SendError::Timeout { attempts: 1 })
    }
}

/// The bench topology with one elastic session planned on it.
/// Returns the controller and the ids of dc-a, dc-b and the receiver.
fn controller() -> Result<(ScalingController, [NodeId; 3]), String> {
    let mut b = TopologyBuilder::new();
    let dc_a = b.data_center("dc-a", NOMINAL);
    let dc_b = b.data_center("dc-b", NOMINAL);
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
        tau2_secs: 2.0,
        pool_tau_secs: 60.0,
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
        .map_err(|e| format!("bench session does not plan: {e}"))?;
    Ok((controller, [dc_a, dc_b, r]))
}

/// The autoscaler, its two relays and its write-ahead log, bootstrapped.
struct Fleet {
    relays: [LiveRelay; 2],
    auto: Option<Autoscaler>,
    link: ScriptedLink,
    wal: PathBuf,
    now: f64,
    out: u64,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        drop(self.auto.take());
        let _ = std::fs::remove_file(&self.wal);
    }
}

impl Fleet {
    fn new(seed: u64) -> Result<Fleet, String> {
        let (controller, [dc_a, dc_b, rx]) = controller()?;
        let relays = [spawn_relay(derive(seed, 7))?, spawn_relay(derive(seed, 8))?];
        let targets = vec![
            RelayTarget {
                node: 1,
                dc: dc_a,
                control_addr: relays[0].node().control_addr,
                role: VnfRoleWire::Recoder,
                settings: settings(&relays[0], VnfRoleWire::Recoder),
            },
            RelayTarget {
                node: 2,
                dc: dc_b,
                control_addr: relays[1].node().control_addr,
                role: VnfRoleWire::Decoder,
                settings: settings(&relays[1], VnfRoleWire::Decoder),
            },
        ];
        let data_addrs = HashMap::from([
            (dc_a, relays[0].node().data_addr.to_string()),
            (dc_b, relays[1].node().data_addr.to_string()),
            (rx, "127.0.0.1:9".to_owned()),
        ]);
        let wal = wal_path("control_react")?;
        let (journal, _, _) = Journal::open(&wal).map_err(|e| e.to_string())?;
        let mut auto = Autoscaler::new(
            controller,
            journal,
            targets,
            data_addrs,
            AutoscaleConfig {
                min_rel_change: 0.02,
                telemetry_window: 1,
                idle_tau_secs: 1e9,
                drain_tau_secs: 30,
            },
        );
        let mut link = ScriptedLink {
            inner: SignalSender::new(1, SenderConfig::default()).map_err(|e| e.to_string())?,
            stats: HashMap::new(),
            attempts: 0,
            acked: 0,
            unacked: 0,
            tables: HashMap::new(),
        };
        auto.bootstrap(&mut link, 0.0)
            .map_err(|e| format!("bootstrap: {e}"))?;
        Ok(Fleet {
            relays,
            auto: Some(auto),
            link,
            wal,
            now: 0.0,
            out: 0,
        })
    }

    /// Advances the virtual clock one second with the scripted counters
    /// moving by `step`, and polls. Returns the report and what the poll
    /// cost.
    fn poll(&mut self, step: u64) -> Result<(PollReport, Cost), String> {
        self.out += step;
        self.now += 1.0;
        for relay in &self.relays {
            self.link.set_stats(relay.node().control_addr, self.out);
        }
        let auto = self.auto.as_mut().expect("alive until dropped");
        let (t0, cpu0) = (Instant::now(), thread_cpu());
        let report = auto
            .poll(&mut self.link, self.now)
            .map_err(|e| format!("poll: {e}"))?;
        let (wall, cpu_end) = (t0.elapsed(), thread_cpu());
        let cost = Cost {
            wall_us: wall.as_secs_f64() * 1e6,
            cpu_us: (cpu_end - cpu0).as_secs_f64() * 1e6,
            cpu_end,
        };
        Ok((report, cost))
    }
}

/// What one `Autoscaler::poll` cost the thread that called it.
struct Cost {
    wall_us: f64,
    /// CPU time: the wall time less what the thread spent off the CPU,
    /// which is the wait for the disk.
    cpu_us: f64,
    /// The thread's CPU clock when the poll returned.
    cpu_end: Duration,
}

/// What one slice of the closed loop measured.
#[derive(Default)]
struct Slice {
    /// Wall time of each adopting poll.
    react_us: Vec<f64>,
    /// CPU time of each adopting poll.
    react_cpu_us: Vec<f64>,
    /// CPU time of the whole cycle each adoption closed: the steady
    /// polls before it, the scripting between polls, and the adopting
    /// poll.
    cycle_cpu_us: Vec<f64>,
    steady_us: Vec<f64>,
    polls_to_adopt: Vec<f64>,
    /// Polls that found a relay unreachable.
    failed: u64,
    secs: f64,
}

/// Runs the closed loop on `fleet` for `dur` (and until at least one
/// adoption): baselines form at 100 %, then the level alternates, each
/// held until the poll that adopts it.
fn run_slice(fleet: &mut Fleet, dur: Duration) -> Result<Slice, String> {
    for _ in 0..8 {
        fleet.poll(BASE_STEP)?;
    }
    let mut slice = Slice::default();
    let (mut low, mut held) = (true, 0u64);
    let (t0, mut cycle_start) = (Instant::now(), thread_cpu());
    while t0.elapsed() < dur || slice.react_us.is_empty() {
        let (report, cost) = fleet.poll(if low { LOW_STEP } else { BASE_STEP })?;
        held += 1;
        if report.adopted {
            slice.react_us.push(cost.wall_us);
            slice.react_cpu_us.push(cost.cpu_us);
            slice
                .cycle_cpu_us
                .push((cost.cpu_end - cycle_start).as_secs_f64() * 1e6);
            cycle_start = cost.cpu_end;
            slice.polls_to_adopt.push(held as f64);
            held = 0;
            low = !low;
        } else {
            slice.steady_us.push(cost.wall_us);
            if held > 30 {
                return Err("a held level was never adopted".into());
            }
        }
        slice.failed += u64::from(report.unreachable > 0);
    }
    slice.secs = t0.elapsed().as_secs_f64();
    Ok(slice)
}

/// Every push ACKed, the relays' tables equal to the last ones pushed,
/// and the WAL replaying clean with one `ScaleDecision` per adoption.
/// Returns what is wrong, if anything.
fn check_fleet(fleet: &mut Fleet, adoptions: u64, opts: &Options) -> Vec<String> {
    let mut problems = Vec::new();
    if fleet.link.unacked > 0 {
        problems.push(format!("{} pushes not ACKed", fleet.link.unacked));
    }
    for relay in &fleet.relays {
        let pushed = fleet.link.tables.get(&relay.node().control_addr);
        let mut expected = pushed.cloned().unwrap_or_default();
        if opts.self_test {
            expected.push_str("session 9 127.0.0.1:1\n");
        }
        let live = relay.node().handle().table_text();
        if ForwardingTable::parse(&live).ok() != ForwardingTable::parse(&expected).ok() {
            problems.push(format!(
                "relay {} serves {live:?}, last pushed {expected:?}",
                relay.node().control_addr
            ));
        }
    }
    // Dropping the autoscaler flushes its journal; then read it back.
    drop(fleet.auto.take());
    match std::fs::read(&fleet.wal) {
        Ok(wal) => {
            let (records, valid) = scan_frames(&wal);
            let decisions = records
                .iter()
                .filter(|r| matches!(r, ControlRecord::ScaleDecision { .. }))
                .count() as u64;
            if valid < wal.len() {
                problems.push(format!("WAL has a torn tail at byte {valid}"));
            }
            if decisions != adoptions {
                problems.push(format!(
                    "{decisions} ScaleDecision records for {adoptions} adoptions"
                ));
            }
        }
        Err(e) => problems.push(format!("WAL unreadable: {e}")),
    }
    problems
}

pub(crate) fn run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let (fleet, setup_s) = timed_setup(opts.setup_repeats(), || Fleet::new(opts.seed));
    let mut ready = Some(fleet?);

    // Every slice runs on a freshly bootstrapped fleet, so that what a
    // slice costs does not depend on how long the process has run: the
    // controller keeps a snapshot per tick and the WAL grows with every
    // decision. Slice 0 is the warm-up.
    let (mut rate, mut react_p50) = (PerSlice::default(), PerSlice::default());
    let mut react_us = Vec::new();
    let (mut react_cpu_us, mut cycle_cpu_us) = (Vec::new(), Vec::new());
    let mut steady_us = Vec::new();
    let mut polls_to_adopt = Vec::new();
    let (mut failed, mut attempts, mut acked, mut steady_polls) = (0, 0, 0, 0);
    let mut problems = Vec::new();
    for slice in 0..=opts.timed_slices() {
        let mut fleet = match ready.take() {
            Some(fleet) => fleet,
            None => Fleet::new(opts.seed)?,
        };
        let mut this = run_slice(&mut fleet, opts.slice())?;
        problems.extend(check_fleet(&mut fleet, this.react_us.len() as u64, opts));
        if slice == 0 {
            continue;
        }
        rate.push(this.react_us.len() as f64 / this.secs);
        react_p50.push(median(&mut this.react_us.clone()));
        failed += this.failed + fleet.link.unacked;
        attempts += fleet.link.attempts;
        acked += fleet.link.acked;
        react_us.append(&mut this.react_us);
        react_cpu_us.append(&mut this.react_cpu_us);
        cycle_cpu_us.append(&mut this.cycle_cpu_us);
        steady_polls += this.steady_us.len();
        // Kept for the traced run's metrics only: a timed run's peak
        // memory should not follow how many polls the host let it make.
        if opts.trace {
            steady_us.append(&mut this.steady_us);
            polls_to_adopt.append(&mut this.polls_to_adopt);
        }
    }
    let adoptions = react_us.len() as u64;
    report.count(adoptions, failed);
    if problems.is_empty() {
        report.note(format!(
            "correctness: {acked} pushes ACKed, relay tables match, WALs replay with one decision per adoption"
        ));
    } else {
        report.correct = false;
        for p in problems {
            report.note(format!("correctness: {p}"));
        }
    }
    let react = Percentiles::of(&mut react_us);
    report.note(format!(
        "wall: react_p50_us {react_p50}; all samples: {react} us; closed loop, 1 poll in flight"
    ));
    report.note(format!(
        "wall: {adoptions} adoptions, {rate} per s; {steady_polls} steady polls, {acked} pushes ACKed in {attempts} attempts"
    ));
    let react_cpu = Percentiles::of(&mut react_cpu_us);
    let cycle_cpu = Percentiles::of(&mut cycle_cpu_us);
    let (react_floor, cycle_floor) = (
        quantile(&react_cpu_us, FLOOR),
        quantile(&cycle_cpu_us, FLOOR),
    );
    report.note(format!(
        "CPU time of the controller's thread: adopting poll p{} {react_floor:.2}, {react_cpu} us; whole cycle per adoption p{0} {cycle_floor:.2}, {cycle_cpu} us",
        FLOOR * 100.0
    ));

    if opts.trace {
        report.set(
            "control.autoscale.steady_poll.us_p50",
            median(&mut steady_us),
        );
        report.set(
            "control.autoscale.polls_to_adopt",
            median(&mut polls_to_adopt),
        );
        report.set("control.autoscale.react_p50_us", react.p50);
        report.set("control.autoscale.react_p99_us", quantile(&react_us, 0.99));
        traced_slice(opts, rate.median(), report)?;
    } else {
        report.set("ops_per_s", 1e6 / cycle_floor);
        report.set("latency_us", react_floor);
        report.set("wire_overhead_ratio", attempts as f64 / acked.max(1) as f64);
        report.set("setup_s", setup_s);
    }
    Ok(())
}

/// The control path one public call at a time, against live relays and a
/// real journal.
pub(crate) struct Pieces {
    relays: [LiveRelay; 2],
    pub(crate) sender: SignalSender,
    controller: ScalingController,
    dc: NodeId,
    journal: Option<Journal>,
    wal: PathBuf,
    now: f64,
    decisions: u64,
    tables: u64,
}

impl Drop for Pieces {
    fn drop(&mut self) {
        drop(self.journal.take());
        let _ = std::fs::remove_file(&self.wal);
    }
}

impl Pieces {
    pub(crate) fn new(seed: u64) -> Result<Pieces, String> {
        let (controller, [dc, _, _]) = controller()?;
        let relays = [
            spawn_relay(derive(seed, 9))?,
            spawn_relay(derive(seed, 10))?,
        ];
        let wal = wal_path("control_pieces")?;
        let (journal, _, _) = Journal::open(&wal).map_err(|e| e.to_string())?;
        Ok(Pieces {
            relays,
            sender: SignalSender::new(1, SenderConfig::default()).map_err(|e| e.to_string())?,
            controller,
            dc,
            journal: Some(journal),
            wal,
            now: 0.0,
            decisions: 0,
            tables: 0,
        })
    }

    pub(crate) fn control_addr(&self, relay: usize) -> SocketAddr {
        self.relays[relay].node().control_addr
    }

    pub(crate) fn table_text(&self, relay: usize) -> String {
        self.relays[relay].node().handle().table_text()
    }

    /// Observe: a real `NC_STATS` round trip to relay `relay`.
    pub(crate) fn query_stats(&mut self, relay: usize) -> Result<String, String> {
        let to = self.control_addr(relay);
        self.sender.query_stats(to).map_err(|e| e.to_string())
    }

    /// Decide: `ScalingController::handle` observes a capability that
    /// alternates between nominal and 30 %, once a virtual second with
    /// the `tick` that follows each poll, until τ1 has passed and the
    /// tick applies it — one planner re-solve on the bench topology.
    pub(crate) fn decide(&mut self) -> Result<(), String> {
        self.decisions += 1;
        let ratio = if self.decisions.is_multiple_of(2) {
            1.0
        } else {
            0.3
        };
        let spec = VnfSpec {
            bin_bps: NOMINAL.bin_bps * ratio,
            bout_bps: NOMINAL.bout_bps * ratio,
            ..NOMINAL
        };
        let plan = |c: &ScalingController| {
            c.deployment()
                .map(|d| (d.total_vnfs(), d.total_rate_bps().to_bits()))
        };
        let before = plan(&self.controller);
        for _ in 0..=TAU1_SECS as u32 {
            self.now += 1.0;
            let event = ScalingEvent::BandwidthObserved { dc: self.dc, spec };
            self.controller
                .handle(event, self.now)
                .and_then(|()| self.controller.tick(self.now))
                .map_err(|e| e.to_string())?;
        }
        if plan(&self.controller) == before {
            return Err("the observed change was not re-solved".into());
        }
        Ok(())
    }

    /// Fsync: `Journal::log` of one `ScaleDecision`.
    pub(crate) fn log_decision(&mut self) -> Result<(), String> {
        let record = ControlRecord::ScaleDecision {
            epoch: 1,
            seq: self.decisions,
            vnfs: 2,
            rate_bps: 400e6,
        };
        self.journal
            .as_mut()
            .expect("open until dropped")
            .log(&record)
            .map_err(|e| e.to_string())
    }

    /// Push: a fenced `NC_FORWARD_TAB` to relay `relay`, ACKed. The
    /// table differs from the previous one, so the relay applies it.
    pub(crate) fn push_table(&mut self, relay: usize) -> Result<String, String> {
        self.tables += 1;
        let mut table = ForwardingTable::new();
        table.set(
            SessionId::new(SESSION),
            vec![format!("127.0.0.1:{}", 4000 + self.tables % 1000)],
        );
        let text = table.to_text();
        let to = self.control_addr(relay);
        self.sender
            .push(
                to,
                &Signal::NcForwardTab {
                    table: text.clone(),
                },
            )
            .map_err(|e| e.to_string())?;
        Ok(text)
    }
}

/// One slice of polls driven piece by piece, each piece a span under a
/// `poll` parent. The loop differs from the timed one (real `NC_STATS`
/// queries, two pushes per poll), so `trace.delta_pct` compares two
/// loops here, not the cost of tracing.
fn traced_slice(opts: &Options, timed_rate: f64, report: &mut Report) -> Result<(), String> {
    let mut pieces = Pieces::new(opts.seed)?;
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let mut polls = 0u64;
    while t0.elapsed() < opts.timed_part() {
        polls += 1;
        let poll = tracer.begin("poll", None, polls);
        for relay in 0..2 {
            tracer.span("control.sender.query_stats", poll, || {
                pieces.query_stats(relay)
            })?;
        }
        tracer.span("deploy.scaling.handle", poll, || pieces.decide())?;
        tracer.span("control.journal.log", poll, || pieces.log_decision())?;
        for relay in 0..2 {
            tracer.span("control.sender.push", poll, || pieces.push_table(relay))?;
        }
        tracer.end(poll);
        tracer.count("pushes", 2);
    }
    let traced_rate = polls as f64 / t0.elapsed().as_secs_f64();
    report.count(polls, 0);
    tracer.report("control_react", timed_rate, traced_rate, report)
}
