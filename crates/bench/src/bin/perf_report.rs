//! The measurements `ncbench` does not make yet.
//!
//! `ncbench` (its own workspace at the repository root, declared in
//! `BENCHMARK.json`) is the measuring instrument: kernels per tier, the
//! codec at g = 4 and 32, `relay_batch`, the loopback relay, the lossy
//! transfer, the journal, reconcile, the autoscaler and the `NC_STATS`
//! round trip are its per-layer metrics and are not timed here. This
//! binary keeps the three sections that still have to move there, and
//! writes them at the repository root:
//!
//! * `BENCH_relay.json` — the overload regime (goodput vs offered load
//!   at 0.5x–4x of a provisioned quota, shed count, backpressure
//!   convergence time);
//! * `BENCH_obs.json` — the observability layer's overhead
//!   (instrumented vs bare [`relay_batch`] batches).
//!
//! ```text
//! cargo run --release -p ncvnf-bench --bin perf_report [-- --quick]
//! ```
//!
//! `--quick` shrinks the timing windows so the whole report finishes in
//! a few seconds. Rates are the median of several repeats; on a
//! shared/noisy machine single runs of memory-bound kernels vary by 2x
//! or more.

use std::fmt::Write as _;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use ncvnf_control::signal::Signal;
use ncvnf_control::{ForwardingTable, SenderConfig, SignalSender};
use ncvnf_dataplane::{CodingVnf, Feedback, FeedbackKind, VnfRole};
use ncvnf_obs::Registry;
use ncvnf_relay::{
    relay_batch, BatchScratch, RecvBatch, RelayConfig, RelayEngine, RelayNode, RelayShard,
    MAX_BATCH,
};
use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, SessionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's MTU-sized payload.
const PAYLOAD_LEN: usize = 1460;

struct Timing {
    quick: bool,
    repeats: usize,
    min_duration_secs: f64,
}

impl Timing {
    fn from_env() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        Timing {
            quick,
            repeats: if quick { 5 } else { 9 },
            min_duration_secs: if quick { 0.02 } else { 0.15 },
        }
    }
}

/// The relay buffer depth of the paper's configuration.
const BUFFERED_GENERATIONS: usize = 1024;
const RELAY_SESSION: u16 = 1;
const RELAY_G: usize = 4;

/// Recent generations live traffic rotates over while the whole
/// retention window stays populated — the steady state of a long-lived
/// relay.
const HOT_GENERATIONS: u64 = 8;

/// Coded wire datagrams for the relay benchmark: `warmup` fills all
/// `BUFFERED_GENERATIONS` generations of the retention window to full
/// rank (oldest first), `hot` is the measured ring over the newest
/// [`HOT_GENERATIONS`] generations.
fn relay_workload(config: GenerationConfig) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(0xBE7C_0003);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let enc = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(RELAY_SESSION);
    // Enough packets per generation to reach full rank during warm-up.
    let per_gen = RELAY_G + 1;
    let total_gens = BUFFERED_GENERATIONS as u64 + HOT_GENERATIONS;
    let mut warmup = Vec::with_capacity(total_gens as usize * per_gen);
    for gen in 0..total_gens {
        for _ in 0..per_gen {
            let pkt = enc.coded_packet(session, gen, &mut rng);
            warmup.push(pkt.to_bytes().to_vec());
        }
    }
    let mut hot = Vec::with_capacity(64);
    for _ in 0..(64 / HOT_GENERATIONS) {
        for gen in BUFFERED_GENERATIONS as u64..total_gens {
            let pkt = enc.coded_packet(session, gen, &mut rng);
            hot.push(pkt.to_bytes().to_vec());
        }
    }
    (warmup, hot)
}

/// One in-memory recoder shard behind [`relay_batch`], warmed over the
/// whole retention window, with the hot ring laid out as ready-made
/// receive batches so a timed round pays for the data path only.
struct BatchRig {
    shards: [RelayShard; 1],
    hot: Vec<RecvBatch>,
    next: usize,
    queued: u64,
}

impl BatchRig {
    fn new(config: GenerationConfig) -> Self {
        let mut vnf = CodingVnf::new(config, BUFFERED_GENERATIONS);
        vnf.set_role(SessionId::new(RELAY_SESSION), VnfRole::Recoder);
        let shards = [RelayShard::new(RelayEngine::new(
            vnf,
            StdRng::seed_from_u64(0xBE7C_0009),
        ))];
        let mut table = ForwardingTable::new();
        table.set(
            SessionId::new(RELAY_SESSION),
            vec!["127.0.0.1:9000".to_string()],
        );
        shards[0].routes().lock().rebuild(&table);

        let (warmup, hot) = relay_workload(config);
        let src: SocketAddr = ([127, 0, 0, 1], 9001).into();
        let batches = |wires: &[Vec<u8>]| -> Vec<RecvBatch> {
            wires
                .chunks(MAX_BATCH)
                .map(|chunk| {
                    let mut batch = RecvBatch::new(MAX_BATCH, 2048);
                    for wire in chunk {
                        assert!(batch.push(wire, src), "datagram fits its slot");
                    }
                    batch
                })
                .collect()
        };
        let hot = batches(&hot);
        let mut scratch = BatchScratch::new(1);
        for batch in batches(&warmup).iter().chain(&hot) {
            relay_batch(&shards, 0, &mut scratch, batch);
        }
        BatchRig {
            shards,
            hot,
            next: 0,
            queued: 0,
        }
    }

    /// Packets/sec of one timed round over the hot ring through
    /// `scratch`, round-robin from where the previous round stopped.
    fn round(&mut self, scratch: &mut BatchScratch, min_secs: f64) -> f64 {
        let start = Instant::now();
        let mut packets = 0u64;
        while start.elapsed().as_secs_f64() < min_secs {
            let batch = &self.hot[self.next];
            self.next = (self.next + 1) % self.hot.len();
            let report = relay_batch(&self.shards, 0, scratch, batch);
            self.queued = self.queued.wrapping_add(report.queued);
            packets += batch.len() as u64;
        }
        packets as f64 / start.elapsed().as_secs_f64()
    }
}

struct OverloadPoint {
    multiplier: f64,
    offered: u64,
    delivered: u64,
    /// What the session's token bucket admits over the point's measured
    /// send window: `min(offered, quota_pps × elapsed + burst)`.
    expected_delivered: f64,
    goodput_ratio: f64,
}

struct OverloadBench {
    provisioned_pps: u32,
    burst: u32,
    curve: Vec<OverloadPoint>,
    shed_quota: u64,
    congestion_frames: u64,
    backpressure_convergence_ms: f64,
    in_quota_goodput_ratio: f64,
    control_frames_lost: u64,
}

/// Goodput versus offered load through the admission regime, plus the
/// backpressure loop's convergence time.
///
/// One session is provisioned at a fixed quota by fenced, seq-ACKed
/// [`SignalSender`] pushes (`NC_QUOTA`, `NC_SETTINGS`, `NC_FORWARD_TAB`),
/// then offered 0.5x/1x/2x/4x its quota; each point reports what reached
/// the session's next hop beside what its token bucket should have let
/// through (a full burst plus the refill over the window — 1,064 of
/// 2,000 at 2x over 0.5 s, not a fixed fraction). During the 4x
/// point a stream of wake feedback frames shares the data socket —
/// `control_frames_lost` must stay 0 because dispatch classifies them
/// before admission. Finally, a greedy sender that honours `Congestion`
/// frames (halving its rate per frame) is timed from first overload
/// until the relay stops shedding it: `backpressure_convergence_ms`.
fn bench_overload(quick: bool, config: GenerationConfig) -> OverloadBench {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const QUOTA_PPS: u32 = 2000;
    const QUOTA_BURST: u32 = 64;
    const SESSION: u16 = 50;

    let relay = RelayNode::spawn(RelayConfig {
        generation: config,
        buffer_generations: 64,
        seed: 0xBE7C_0050,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .expect("spawn relay");
    let mut controller = SignalSender::new(1, SenderConfig::default()).expect("bind sender");
    let mut push = |sig: &Signal| {
        controller
            .push(relay.control_addr, sig)
            .expect("relay applied the signal");
    };
    push(&Signal::NcQuota {
        session: SessionId::new(SESSION),
        rate_pps: QUOTA_PPS,
        burst: QUOTA_BURST,
        priority: 0,
    });
    push(&Signal::NcSettings {
        session: SessionId::new(SESSION),
        role: ncvnf_control::signal::VnfRoleWire::Forwarder,
        data_port: relay.data_addr.port(),
        block_size: config.block_size() as u32,
        generation_size: config.blocks_per_generation() as u32,
        buffer_generations: 64,
    });
    let sink = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sink");
    sink.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("sink timeout");
    let mut table = ForwardingTable::new();
    table.set(
        SessionId::new(SESSION),
        vec![sink.local_addr().expect("sink addr").to_string()],
    );
    push(&Signal::NcForwardTab {
        table: table.to_text(),
    });

    // Concurrent sink drain: delivered counts must reflect the relay's
    // shedding, not this process's socket buffer.
    let delivered = Arc::new(AtomicU64::new(0));
    let drain_stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let delivered = Arc::clone(&delivered);
        let drain_stop = Arc::clone(&drain_stop);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 2048];
            while !drain_stop.load(Ordering::Relaxed) {
                if sink.recv_from(&mut buf).is_ok() {
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    let enc = GenerationEncoder::new(config, &vec![0x50u8; config.generation_payload()])
        .expect("valid generation");
    let mut rng = StdRng::seed_from_u64(0xBE7C_0051);
    let sender = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sender");
    sender
        .set_read_timeout(Some(Duration::from_millis(1)))
        .expect("sender timeout");
    let handle = relay.handle();
    let window = Duration::from_millis(if quick { 250 } else { 500 });

    let mut curve = Vec::new();
    let mut control_frames_lost = 0u64;
    let mut generation = 0u64;
    for multiplier in [0.5f64, 1.0, 2.0, 4.0] {
        // Let the previous point's bucket settle back to full burst.
        std::thread::sleep(Duration::from_millis(50));
        let rate = f64::from(QUOTA_PPS) * multiplier;
        let gap = Duration::from_secs_f64(4.0 / rate);
        let feedback_before = handle.stats().feedback_frames;
        let delivered_before = delivered.load(Ordering::Relaxed);
        let mut offered = 0u64;
        let mut wakes = 0u64;
        let start = Instant::now();
        let deadline = start + window;
        // Absolute-deadline pacing with catch-up: sleep overhead cannot
        // erode the offered rate, so every point truly offers its
        // multiple of the quota.
        let mut next = start;
        while Instant::now() < deadline {
            for _ in 0..4 {
                let pkt = enc.coded_packet(SessionId::new(SESSION), generation, &mut rng);
                if sender.send_to(&pkt.to_bytes(), relay.data_addr).is_ok() {
                    offered += 1;
                }
            }
            generation += 1;
            if multiplier >= 4.0 && offered.is_multiple_of(64) {
                // Control-plane traffic shares the flooded socket.
                let wake = Feedback::wake(9, SessionId::new(SESSION)).to_bytes();
                if sender.send_to(&wake, relay.data_addr).is_ok() {
                    wakes += 1;
                }
            }
            next += gap;
            let now = Instant::now();
            if next > now {
                std::thread::sleep(next - now);
            } else if now - next > 16 * gap {
                // Bound the catch-up burst after a scheduling hiccup:
                // an unbounded burst can overflow the relay's kernel
                // receive buffer, and a kernel drop of a wake frame
                // would read as control-frame loss the relay never
                // caused.
                next = now - 16 * gap;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Grace for in-flight datagrams, then read the point.
        std::thread::sleep(Duration::from_millis(100));
        let got = delivered.load(Ordering::Relaxed) - delivered_before;
        if wakes > 0 {
            let classified = handle.stats().feedback_frames - feedback_before;
            control_frames_lost += wakes.saturating_sub(classified);
        }
        curve.push(OverloadPoint {
            multiplier,
            offered,
            delivered: got,
            expected_delivered: (f64::from(QUOTA_PPS) * elapsed + f64::from(QUOTA_BURST))
                .min(offered as f64),
            goodput_ratio: got as f64 / offered as f64,
        });
    }

    // Backpressure convergence: a greedy sender at 4x honours the
    // relay's Congestion frames by halving its rate; converged when a
    // full window passes with no new sheds.
    let base_shed = handle.stats().total_shed();
    let mut shed_seen = base_shed;
    let mut gap = Duration::from_secs_f64(4.0 / (f64::from(QUOTA_PPS) * 4.0));
    let floor_gap = Duration::from_secs_f64(4.0 / (f64::from(QUOTA_PPS) * 0.8));
    let t0 = Instant::now();
    let mut last_shed_change = Instant::now();
    let convergence_window = Duration::from_millis(150);
    let mut fb = [0u8; 64];
    let backpressure_convergence_ms = loop {
        for _ in 0..4 {
            let pkt = enc.coded_packet(SessionId::new(SESSION), generation, &mut rng);
            let _ = sender.send_to(&pkt.to_bytes(), relay.data_addr);
        }
        generation += 1;
        while let Ok((n, _)) = sender.recv_from(&mut fb) {
            if let Ok(frame) = Feedback::from_bytes(&fb[..n]) {
                if frame.kind == FeedbackKind::Congestion {
                    gap = (gap * 2).min(floor_gap);
                }
            }
        }
        let shed_now = handle.stats().total_shed();
        if shed_now != shed_seen {
            shed_seen = shed_now;
            last_shed_change = Instant::now();
        } else if last_shed_change.elapsed() >= convergence_window {
            break t0
                .elapsed()
                .saturating_sub(convergence_window)
                .as_secs_f64()
                * 1e3;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            break f64::NAN;
        }
        std::thread::sleep(gap);
    };

    // Fair share: a second provisioned session offered inside its quota
    // while an unprovisioned flood (capped by the session-0 default
    // bucket) hammers the same socket.
    push(&Signal::NcQuota {
        session: SessionId::new(0),
        rate_pps: 300,
        burst: 32,
        priority: 200,
    });
    let flood_stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let flood_stop = Arc::clone(&flood_stop);
        let data_addr = relay.data_addr;
        let enc = GenerationEncoder::new(config, &vec![0x99u8; config.generation_payload()])
            .expect("valid generation");
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xBE7C_0052);
            let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind flooder");
            let mut g = 0u64;
            while !flood_stop.load(Ordering::Relaxed) {
                for _ in 0..16 {
                    let pkt = enc.coded_packet(SessionId::new(99), g, &mut rng);
                    let _ = socket.send_to(&pkt.to_bytes(), data_addr);
                }
                g += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let delivered_before = delivered.load(Ordering::Relaxed);
    let mut in_quota_offered = 0u64;
    let deadline = Instant::now() + window;
    let gap = Duration::from_secs_f64(4.0 / (f64::from(QUOTA_PPS) * 0.5));
    while Instant::now() < deadline {
        for _ in 0..4 {
            let pkt = enc.coded_packet(SessionId::new(SESSION), generation, &mut rng);
            if sender.send_to(&pkt.to_bytes(), relay.data_addr).is_ok() {
                in_quota_offered += 1;
            }
        }
        generation += 1;
        std::thread::sleep(gap);
    }
    std::thread::sleep(Duration::from_millis(100));
    let in_quota_delivered = delivered.load(Ordering::Relaxed) - delivered_before;
    flood_stop.store(true, Ordering::Relaxed);
    flooder.join().expect("flooder joins");

    drain_stop.store(true, Ordering::Relaxed);
    drainer.join().expect("drainer joins");
    let stats = handle.stats();
    relay.shutdown();

    OverloadBench {
        provisioned_pps: QUOTA_PPS,
        burst: QUOTA_BURST,
        curve,
        shed_quota: stats.shed_quota,
        congestion_frames: stats.congestion_frames,
        backpressure_convergence_ms,
        in_quota_goodput_ratio: in_quota_delivered as f64 / in_quota_offered as f64,
        control_frames_lost,
    }
}

struct ObsBench {
    bare_pps: f64,
    instrumented_pps: f64,
    /// Signed: negative when the instrumented side ran faster.
    overhead_pct: f64,
    overhead_q1_pct: f64,
    overhead_q3_pct: f64,
    steps_recorded: u64,
    step_ns_samples: u64,
}

/// Budget the observability layer must stay inside: metrics on the
/// relay hot path may cost at most this much packets/s.
const OBS_OVERHEAD_BUDGET_PCT: f64 = 2.0;

impl ObsBench {
    fn within_budget(&self) -> bool {
        self.overhead_pct < OBS_OVERHEAD_BUDGET_PCT
    }

    /// An instrumented side that beats the bare one by more than the
    /// budget says the two differ in something other than the
    /// instrumentation; the number then polices nothing.
    fn verdict(&self) -> &'static str {
        if !self.within_budget() {
            "over budget"
        } else if self.overhead_pct < -OBS_OVERHEAD_BUDGET_PCT {
            "comparison biased"
        } else {
            "within budget"
        }
    }
}

/// Cost of the observability layer on the relay hot path.
///
/// One recoder shard runs the hot workload through [`relay_batch`] — the
/// path the live node runs — under two scratches in turn: a bare
/// [`BatchScratch`] and an instrumented one that records into a live
/// registry (step, emit and batch counters, sampled latency
/// histograms). Engine, buffers and
/// input batches are the same memory on both sides, so the only
/// difference timed is the instrumentation (two rigs built from one seed
/// still differ by 1–2 % from heap placement alone). Each repeat
/// brackets one side's round between two rounds of the other and
/// compares against their mean: machine-speed drift within a repeat
/// (turbo decay, VM steal) is linear to first order, so the bracket
/// cancels it instead of charging it to either side. Repeats alternate
/// which side is bracketed (b·o·b, o·b·o). The overhead is the signed
/// median of the per-repeat regressions, reported with its quartiles.
fn bench_observability(timing: &Timing, config: GenerationConfig) -> ObsBench {
    let registry = Registry::new();
    let mut rig = BatchRig::new(config);
    // Index 0 is the bare side, 1 the instrumented one.
    let mut scratches = [
        BatchScratch::new(1),
        BatchScratch::instrumented(1, &registry),
    ];
    let mut rates = [Vec::new(), Vec::new()];
    let mut overheads = Vec::with_capacity(timing.repeats);
    let secs = timing.min_duration_secs;
    for repeat in 0..timing.repeats {
        let (outer, inner) = (repeat % 2, 1 - repeat % 2);
        let first = rig.round(&mut scratches[outer], secs);
        let middle = rig.round(&mut scratches[inner], secs);
        let last = rig.round(&mut scratches[outer], secs);
        let mut pps = [0.0; 2];
        pps[outer] = (first + last) / 2.0;
        pps[inner] = middle;
        rates[0].push(pps[0]);
        rates[1].push(pps[1]);
        overheads.push((pps[0] - pps[1]) / pps[0] * 100.0);
    }
    std::hint::black_box(rig.queued);
    // Drop the scratches so the batched counters flush: totals are exact.
    drop(scratches);
    let snap = registry.snapshot();

    // [q1, median, q3]
    let quartiles = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        [1, 2, 3].map(|q| v[v.len() * q / 4])
    };
    let [overhead_q1_pct, overhead_pct, overhead_q3_pct] = quartiles(&mut overheads);
    ObsBench {
        bare_pps: quartiles(&mut rates[0])[1],
        instrumented_pps: quartiles(&mut rates[1])[1],
        overhead_pct,
        overhead_q1_pct,
        overhead_q3_pct,
        steps_recorded: snap.counter("relay.steps").unwrap_or(0),
        step_ns_samples: snap.histogram("relay.step_ns").map_or(0, |h| h.count),
    }
}

fn write_report(name: &str, json: &str, started: Instant, summary: &str) {
    std::fs::write(name, json).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("{json}");
    eprintln!(
        "wrote {name} in {:.1}s total ({summary})",
        started.elapsed().as_secs_f64()
    );
}

fn main() {
    let timing = Timing::from_env();
    let started = Instant::now();
    let relay_cfg = GenerationConfig::new(PAYLOAD_LEN, RELAY_G).expect("valid relay layout");
    eprintln!("measuring overload admission, shedding, and backpressure ...");
    let overload = bench_overload(timing.quick, relay_cfg);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"relay\",");
    let _ = writeln!(json, "  \"payload_len\": {PAYLOAD_LEN},");
    let _ = writeln!(json, "  \"generation_size\": {RELAY_G},");
    json.push_str("  \"overload\": {\n");
    let _ = writeln!(
        json,
        "    \"provisioned_pps\": {},",
        overload.provisioned_pps
    );
    let _ = writeln!(json, "    \"burst\": {},", overload.burst);
    json.push_str("    \"curve\": [\n");
    for (i, p) in overload.curve.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"multiplier\": {:.1}, \"offered\": {}, \"delivered\": {}, \"expected_delivered\": {:.0}, \"goodput_ratio\": {:.4}}}",
            p.multiplier, p.offered, p.delivered, p.expected_delivered, p.goodput_ratio
        );
        json.push_str(if i + 1 < overload.curve.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"shed_quota\": {},", overload.shed_quota);
    let _ = writeln!(
        json,
        "    \"congestion_frames\": {},",
        overload.congestion_frames
    );
    let _ = writeln!(
        json,
        "    \"backpressure_convergence_ms\": {:.1},",
        overload.backpressure_convergence_ms
    );
    let _ = writeln!(
        json,
        "    \"in_quota_goodput_ratio\": {:.4},",
        overload.in_quota_goodput_ratio
    );
    let _ = writeln!(
        json,
        "    \"control_frames_lost\": {}",
        overload.control_frames_lost
    );
    json.push_str("  }\n}\n");
    write_report(
        "BENCH_relay.json",
        &json,
        started,
        &format!("{} control frames lost", overload.control_frames_lost),
    );

    eprintln!("measuring observability overhead (bare vs instrumented relay batches) ...");
    let obs = bench_observability(&timing, relay_cfg);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"observability\",");
    let _ = writeln!(json, "  \"payload_len\": {PAYLOAD_LEN},");
    let _ = writeln!(json, "  \"generation_size\": {RELAY_G},");
    let _ = writeln!(json, "  \"buffered_generations\": {BUFFERED_GENERATIONS},");
    let _ = writeln!(json, "  \"bare_packets_per_sec\": {:.0},", obs.bare_pps);
    let _ = writeln!(
        json,
        "  \"instrumented_packets_per_sec\": {:.0},",
        obs.instrumented_pps
    );
    let _ = writeln!(json, "  \"overhead_pct\": {:.2},", obs.overhead_pct);
    let _ = writeln!(json, "  \"overhead_q1_pct\": {:.2},", obs.overhead_q1_pct);
    let _ = writeln!(json, "  \"overhead_q3_pct\": {:.2},", obs.overhead_q3_pct);
    let _ = writeln!(
        json,
        "  \"overhead_budget_pct\": {OBS_OVERHEAD_BUDGET_PCT:.1},"
    );
    let _ = writeln!(json, "  \"within_budget\": {},", obs.within_budget());
    let _ = writeln!(
        json,
        "  \"recorded\": {{\"steps\": {}, \"step_latency_samples\": {}}}",
        obs.steps_recorded, obs.step_ns_samples
    );
    json.push_str("}\n");
    write_report(
        "BENCH_obs.json",
        &json,
        started,
        &format!(
            "observability overhead {:+.2}% of packets/s [q1 {:+.2}, q3 {:+.2}], budget {OBS_OVERHEAD_BUDGET_PCT:.1}%: {}",
            obs.overhead_pct,
            obs.overhead_q1_pct,
            obs.overhead_q3_pct,
            obs.verdict()
        ),
    );
}
