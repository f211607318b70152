//! Kernel, codec, and relay throughput report.
//!
//! Measures the GF(2^8) bulk kernels (every compiled tier the CPU
//! supports), the RLNC encode/recode paths, the relay data path
//! ([`relay_batch`] in memory, the path the live node runs), and the
//! observability layer's overhead (instrumented vs bare batches, plus
//! an `NC_STATS` round trip),
//! the crash-safe control plane (journal append/commit, replay,
//! reconcile round trip), and the overload regime (goodput vs offered
//! load at 0.5x–4x of a provisioned quota, shed counts by class, and
//! backpressure convergence time), then writes `BENCH_rlnc.json`,
//! `BENCH_relay.json`, `BENCH_obs.json` and `BENCH_control.json` at the
//! repository root. Run with:
//!
//! ```text
//! cargo run --release -p ncvnf-bench --bin perf_report [-- --quick]
//! ```
//!
//! `--quick` (or `NCVNF_BENCH_QUICK=1`) shrinks the timing windows so the
//! whole report finishes in well under two minutes on a laptop.
//!
//! Measurements use the median of several repeats; on a shared/noisy
//! machine single runs of memory-bound kernels vary by 2x or more.

use std::fmt::Write as _;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use ncvnf_control::ForwardingTable;
use ncvnf_dataplane::{CodingVnf, VnfRole};
use ncvnf_gf256::bulk;
use ncvnf_obs::Registry;
use ncvnf_relay::{
    relay_batch, BatchScratch, RecvBatch, RelayConfig, RelayEngine, RelayNode, RelayShard,
    MAX_BATCH,
};
use ncvnf_rlnc::{
    CodingMode, GenerationConfig, GenerationEncoder, PayloadPool, Recoder, SessionId, WindowConfig,
    WindowDecoder, WindowEncoder, WindowOutcome, WindowRecoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's MTU-sized payload.
const PAYLOAD_LEN: usize = 1460;

struct Timing {
    repeats: usize,
    min_duration_secs: f64,
}

impl Timing {
    fn from_env() -> Self {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("NCVNF_BENCH_QUICK").is_ok_and(|v| v == "1");
        if quick {
            Timing {
                repeats: 5,
                min_duration_secs: 0.02,
            }
        } else {
            Timing {
                repeats: 9,
                min_duration_secs: 0.15,
            }
        }
    }

    /// Median bytes/sec over `repeats` runs of `work`, where one call to
    /// `work` processes `bytes_per_iter` bytes. Each run loops `work`
    /// until `min_duration_secs` has elapsed.
    fn measure(&self, bytes_per_iter: usize, mut work: impl FnMut()) -> f64 {
        let mut rates = Vec::with_capacity(self.repeats);
        // Warm-up: page in buffers, settle the frequency governor.
        for _ in 0..3 {
            work();
        }
        for _ in 0..self.repeats {
            let start = Instant::now();
            let mut iters = 0u64;
            loop {
                work();
                iters += 1;
                if start.elapsed().as_secs_f64() >= self.min_duration_secs {
                    break;
                }
            }
            let secs = start.elapsed().as_secs_f64();
            rates.push(iters as f64 * bytes_per_iter as f64 / secs);
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        rates[rates.len() / 2]
    }
}

struct KernelRow {
    tier: &'static str,
    op: &'static str,
    payload_len: usize,
    bytes_per_sec: f64,
}

struct CodecRow {
    mode: &'static str,
    path: &'static str,
    generation_size: usize,
    block_size: usize,
    bytes_per_sec: f64,
}

fn bench_kernels(timing: &Timing) -> Vec<KernelRow> {
    let mut rng = StdRng::seed_from_u64(0xBE7C_0001);
    let mut rows = Vec::new();
    let mut src = vec![0u8; PAYLOAD_LEN];
    let mut dst = vec![0u8; PAYLOAD_LEN];
    rng.fill(&mut src[..]);
    rng.fill(&mut dst[..]);
    let generation: Vec<Vec<u8>> = (0..32)
        .map(|_| {
            let mut block = vec![0u8; PAYLOAD_LEN];
            rng.fill(&mut block[..]);
            block
        })
        .collect();
    let coefficients: Vec<u8> = (0..generation.len())
        .map(|_| rng.gen_range(2..=255))
        .collect();
    for &tier in bulk::compiled_tiers() {
        if !tier.is_supported() {
            continue;
        }
        let c = 0x53u8; // arbitrary non-trivial coefficient
        let mul_add = timing.measure(PAYLOAD_LEN, || {
            tier.mul_add_slice(&mut dst, &src, c);
            std::hint::black_box(&dst);
        });
        rows.push(KernelRow {
            tier: tier.name(),
            op: "mul_add_slice",
            payload_len: PAYLOAD_LEN,
            bytes_per_sec: mul_add,
        });
        let mul = timing.measure(PAYLOAD_LEN, || {
            tier.mul_slice(&mut dst, &src, c);
            std::hint::black_box(&dst);
        });
        rows.push(KernelRow {
            tier: tier.name(),
            op: "mul_slice",
            payload_len: PAYLOAD_LEN,
            bytes_per_sec: mul,
        });
        // The fused row kernel at the codec's largest benchmarked shape
        // (one coded packet from a 32-block generation); bytes are source
        // bytes multiplied, so the row compares with `mul_add_slice`.
        let fused = timing.measure(generation.len() * PAYLOAD_LEN, || {
            tier.mul_add_rows(&mut dst, coefficients.iter().copied().zip(&generation));
            std::hint::black_box(&dst);
        });
        rows.push(KernelRow {
            tier: tier.name(),
            op: "mul_add_rows_g32",
            payload_len: PAYLOAD_LEN,
            bytes_per_sec: fused,
        });
    }
    rows
}

fn bench_codec(timing: &Timing) -> Vec<CodecRow> {
    let mut rows = Vec::new();
    for &g in &[4usize, 8, 16, 32, 64] {
        let config = GenerationConfig::new(PAYLOAD_LEN, g).expect("valid layout");
        let mut rng = StdRng::seed_from_u64(0xBE7C_0002 ^ g as u64);
        let mut data = vec![0u8; config.generation_payload()];
        rng.fill(&mut data[..]);
        let enc = GenerationEncoder::new(config, &data).expect("valid generation");
        let session = SessionId::new(1);
        // One epoch per systematic-first mode: the g source packets
        // verbatim plus a 25% repair tail — the steady sender schedule.
        let repair = (g / 4).max(1);

        for mode in [
            CodingMode::Dense,
            CodingMode::Systematic,
            CodingMode::sparse_default(g),
        ] {
            let mut pool = PayloadPool::new();
            // Dense has no systematic pass, so its unit of work is one
            // coded packet; the systematic-first modes amortize a whole
            // epoch (g verbatim + `repair` mode-coded packets).
            let (first_seq, count) = match mode {
                CodingMode::Dense => (g as u64, 1),
                _ => (0, g + repair),
            };
            let encode = timing.measure(count * PAYLOAD_LEN, || {
                for seq in first_seq..first_seq + count as u64 {
                    let pkt = enc.mode_packet_pooled(mode, session, 0, seq, &mut rng, &mut pool);
                    pool.recycle(pkt);
                }
            });
            rows.push(CodecRow {
                mode: mode.name(),
                path: "encode",
                generation_size: g,
                block_size: PAYLOAD_LEN,
                bytes_per_sec: encode,
            });

            // Recode at full rank: the relay hot path. Sparse traffic is
            // recoded sparsely (density bounds the rows mixed per
            // output); dense and systematic recode densely.
            let mut recoder = Recoder::new(config, session, 0);
            while recoder.rank() < g {
                let pkt = enc.coded_packet(session, 0, &mut rng);
                recoder
                    .absorb(pkt.coefficients(), pkt.payload())
                    .expect("layout matches");
            }
            let recode = timing.measure(PAYLOAD_LEN, || {
                let pkt = recoder
                    .recode_mode_into(mode, &mut rng, &mut pool)
                    .expect("recoder is non-empty");
                pool.recycle(pkt);
            });
            rows.push(CodecRow {
                mode: mode.name(),
                path: "recode",
                generation_size: g,
                block_size: PAYLOAD_LEN,
                bytes_per_sec: recode,
            });
        }
    }
    rows
}

struct WindowBench {
    symbol_size: usize,
    capacity: usize,
    symbols: u64,
    symbols_per_sec: f64,
    bytes_per_sec: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
}

/// Sliding-window pipeline latency: source push + systematic emit →
/// relay absorb + recode → receiver decode + in-order delivery, one
/// symbol at a time, with cumulative acks sliding every stage's window
/// every 8 symbols. The latency row is what a generational codec cannot
/// offer: per-symbol delivery bounded by the window, not by a
/// generation boundary.
fn bench_window(quick: bool) -> WindowBench {
    const CAPACITY: usize = 32;
    const ACK_EVERY: u64 = 8;
    let window = WindowConfig::new(PAYLOAD_LEN, CAPACITY).expect("valid window");
    let session = SessionId::new(9);
    let mut enc = WindowEncoder::new(window, session);
    let mut recoder = WindowRecoder::new(window, session);
    let mut dec = WindowDecoder::new(window);
    let mut pool = PayloadPool::new();
    let mut rng = StdRng::seed_from_u64(0xBE7C_0040);
    let symbols: u64 = if quick { 2_000 } else { 20_000 };
    let mut chunk = vec![0u8; PAYLOAD_LEN];
    let mut lat_ns: Vec<f64> = Vec::with_capacity(symbols as usize);
    let started = Instant::now();
    for i in 0..symbols {
        rng.fill(&mut chunk[..]);
        let t0 = Instant::now();
        let idx = enc.push(&chunk).expect("window has room");
        let pkt = enc
            .systematic_packet_pooled(idx, &mut pool)
            .expect("symbol is live");
        recoder
            .absorb(pkt.index(), pkt.coefficients(), pkt.payload())
            .expect("layout matches");
        pool.recycle(pkt);
        // A random recombination can miss the newest symbol (zero
        // weight on its row, ~1/256); the stream just sends the next
        // packet, so retry until the delivery cursor advances.
        loop {
            let out = recoder
                .recode_into(&mut rng, &mut pool)
                .expect("recoder is non-empty");
            let outcome = dec
                .receive(out.index(), out.coefficients(), out.payload())
                .expect("layout matches");
            pool.recycle(out);
            if matches!(outcome, WindowOutcome::Delivered { .. }) {
                break;
            }
        }
        lat_ns.push(t0.elapsed().as_nanos() as f64);
        if (i + 1) % ACK_EVERY == 0 {
            let ack = dec.cumulative_ack();
            enc.handle_ack(ack);
            recoder.handle_ack(ack);
        }
    }
    let secs = started.elapsed().as_secs_f64();
    lat_ns.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| lat_ns[((lat_ns.len() - 1) as f64 * p) as usize] / 1e3;
    WindowBench {
        symbol_size: PAYLOAD_LEN,
        capacity: CAPACITY,
        symbols,
        symbols_per_sec: symbols as f64 / secs,
        bytes_per_sec: symbols as f64 * PAYLOAD_LEN as f64 / secs,
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
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
/// receive batches so a timed call pays for the data path only.
struct BatchRig {
    shards: [RelayShard; 1],
    hot: Vec<RecvBatch>,
}

impl BatchRig {
    fn new(config: GenerationConfig, seed: u64, scratch: &mut BatchScratch) -> Self {
        let mut vnf = CodingVnf::new(config, BUFFERED_GENERATIONS);
        vnf.set_role(SessionId::new(RELAY_SESSION), VnfRole::Recoder);
        let shards = [RelayShard::new(RelayEngine::new(
            vnf,
            StdRng::seed_from_u64(seed),
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
        let rig = BatchRig {
            shards,
            hot: batches(&hot),
        };
        for batch in batches(&warmup).iter().chain(&rig.hot) {
            relay_batch(&rig.shards, 0, scratch, batch);
        }
        rig
    }

    /// Runs hot batch `*idx` (advancing it round-robin); returns the
    /// datagrams it carried.
    fn run(&self, scratch: &mut BatchScratch, idx: &mut usize, sink: &mut u64) -> u64 {
        let batch = &self.hot[*idx];
        *idx = (*idx + 1) % self.hot.len();
        let report = relay_batch(&self.shards, 0, scratch, batch);
        *sink = sink.wrapping_add(report.queued);
        batch.len() as u64
    }
}

/// Packets/sec of the in-memory relay data path ([`relay_batch`], one
/// shard, full batches) over the round-robin hot workload.
fn bench_relay_batch(timing: &Timing, config: GenerationConfig) -> f64 {
    let mut scratch = BatchScratch::new(1);
    let rig = BatchRig::new(config, 0xBE7C_0005, &mut scratch);
    let (mut idx, mut sink) = (0usize, 0u64);
    let bps = timing.measure(MAX_BATCH * PAYLOAD_LEN, || {
        rig.run(&mut scratch, &mut idx, &mut sink);
    });
    std::hint::black_box(sink);
    bps / PAYLOAD_LEN as f64
}

struct LoopbackBench {
    shards: usize,
    batch: usize,
    sent: u64,
    received: u64,
    packets_per_sec: f64,
}

/// End-to-end measurement: blast pre-serialized coded packets through a
/// live [`RelayNode`] on loopback and count arrivals at a sink. Includes
/// both UDP syscalls, so it is dominated by the kernel, not the coding —
/// and UDP may drop under burst, so nothing is asserted on it.
///
/// The sender keeps many packets in flight: a dedicated drain thread
/// empties the sink concurrently (the old harness drained inline between
/// sends, which serialized the pipeline and measured the harness, not
/// the relay), wire images are serialized once up front, and the sender
/// paces itself with a yield per burst so the relay threads get
/// scheduled on small machines. `shards`/`batch` select the relay
/// runtime configuration under test (`batch = 1` forces one datagram
/// per syscall — the unbatched baseline).
fn bench_relay_loopback(
    quick: bool,
    config: GenerationConfig,
    shards: usize,
    batch: usize,
) -> LoopbackBench {
    use ncvnf_control::signal::VnfRoleWire;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let relay = RelayNode::spawn(RelayConfig {
        generation: config,
        buffer_generations: BUFFERED_GENERATIONS,
        seed: 0xBE7C,
        heartbeat: None,
        registry: None,
        shards,
        batch,
    })
    .expect("spawn relay");
    let sink = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sink");

    let control = UdpSocket::bind(("127.0.0.1", 0)).expect("bind control");
    control
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("control timeout");
    let mut table = ForwardingTable::new();
    table.set(
        SessionId::new(RELAY_SESSION),
        vec![sink.local_addr().expect("sink addr").to_string()],
    );
    relay
        .wire(
            &control,
            SessionId::new(RELAY_SESSION),
            VnfRoleWire::Recoder,
            &table,
        )
        .expect("relay configures");

    // Pre-serialize the wire ring: one generation per shard (scanning
    // the shard map), RELAY_G packets each, so every engine shard does
    // real work. Serialization cost is paid here, not in the timed loop.
    let mut picks: Vec<u64> = Vec::new();
    let mut owners_seen = vec![false; shards.max(1)];
    for g in 0..4096u64 {
        let owner = ncvnf_relay::shard_of(SessionId::new(RELAY_SESSION), g, shards.max(1));
        if !owners_seen[owner] {
            owners_seen[owner] = true;
            picks.push(g);
        }
        if picks.len() == shards.max(1) {
            break;
        }
    }
    let mut rng = StdRng::seed_from_u64(0xBE7C_0006);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let enc = GenerationEncoder::new(config, &data).expect("valid generation");
    let mut wires: Vec<Vec<u8>> = Vec::with_capacity(picks.len() * 4 * RELAY_G);
    for &g in &picks {
        for _ in 0..4 * RELAY_G {
            wires.push(
                enc.coded_packet(SessionId::new(RELAY_SESSION), g, &mut rng)
                    .to_bytes()
                    .to_vec(),
            );
        }
    }

    let total: u64 = if quick { 8_000 } else { 40_000 };
    let stop = Arc::new(AtomicBool::new(false));
    let received = Arc::new(AtomicU64::new(0));
    let drain = {
        let stop = Arc::clone(&stop);
        let received = Arc::clone(&received);
        let sink = sink.try_clone().expect("clone sink");
        sink.set_read_timeout(Some(Duration::from_millis(5)))
            .expect("sink timeout");
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 65536];
            while !stop.load(Ordering::Relaxed) {
                while sink.recv_from(&mut buf).is_ok() {
                    received.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    let sender = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sender");
    let t0 = Instant::now();
    for i in 0..total {
        let _ = sender.send_to(&wires[i as usize % wires.len()], relay.data_addr);
        // A yield per burst keeps the relay and drain threads fed on
        // single-core machines without serializing the pipeline.
        if i % 32 == 31 {
            std::thread::yield_now();
        }
    }
    // Tail: wait until arrivals go quiet (or a hard deadline), and time
    // the run to the last observed arrival.
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut last_count = received.load(Ordering::Relaxed);
    let mut last_change = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = received.load(Ordering::Relaxed);
        if now != last_count {
            last_count = now;
            last_change = Instant::now();
        }
        if last_change.elapsed() > Duration::from_millis(100) || Instant::now() > deadline {
            break;
        }
    }
    let secs = last_change.duration_since(t0).as_secs_f64().max(1e-9);
    stop.store(true, Ordering::Relaxed);
    drain.join().expect("drain thread");
    relay.shutdown();
    LoopbackBench {
        shards,
        batch,
        sent: total,
        received: last_count,
        packets_per_sec: last_count as f64 / secs,
    }
}

struct RecoveryBench {
    loss_rate: f64,
    block_size: usize,
    generation_size: usize,
    object_bytes: usize,
    initial_packets: u64,
    retransmit_packets: u64,
    nacks_sent: u64,
    generations_recovered: u64,
    unrecovered: u64,
    /// Receiver spawn to completion (chain wiring included).
    transfer_ms: f64,
    /// Packets on the wire per source block.
    wire_overhead: f64,
    failover_ms: f64,
}

/// Recovery-protocol counters for a reliable transfer through a relay
/// whose socket drops 10% of datagrams (seeded), plus the liveness
/// failover latency: relay killed → heartbeats stop → tracker declares
/// it dead → rerouted `NC_FORWARD_TAB` acked by a survivor.
///
/// The counters come from the transfer's registry snapshot — the same
/// cells the `NC_STATS` query serves — not from side-channel structs.
fn bench_recovery(quick: bool) -> RecoveryBench {
    use ncvnf_control::liveness::{LivenessConfig, LivenessEvent, LivenessTracker};
    use ncvnf_control::signal::Signal;
    use ncvnf_dataplane::{Feedback, FeedbackKind};
    use ncvnf_relay::{
        reliable_chain, FaultConfig, HeartbeatConfig, RecoveryConfig, TransferConfig,
    };
    use ncvnf_rlnc::RedundancyPolicy;

    const LOSS_RATE: f64 = 0.10;
    let generation = GenerationConfig::new(256, RELAY_G).expect("valid layout");
    let config = TransferConfig {
        session: SessionId::new(RELAY_SESSION),
        generation,
        redundancy: RedundancyPolicy::NC0,
        rate_bps: 50e6,
        seed: 0xBE7C_0007,
    };
    let recovery = RecoveryConfig {
        decode_timeout: Duration::from_millis(40),
        nack_interval: Duration::from_millis(40),
        backoff_base: Duration::from_millis(15),
        max_retries: 12,
        ..RecoveryConfig::default()
    };
    let object_bytes = if quick { 16 * 1024 } else { 64 * 1024 };
    let object: Vec<u8> = (0..object_bytes as u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    let faults = [Some(
        FaultConfig::new(0xBE7C_0008)
            .with_drop(LOSS_RATE)
            .with_directions(true, true),
    )];
    let report = reliable_chain(
        &config,
        &recovery,
        &object,
        &faults,
        Duration::from_secs(60),
    )
    .expect("chain runs")
    .expect("transfer completes under seeded loss");
    assert_eq!(report.receiver.object, object, "recovered byte-identical");

    // Failover latency: kill a beaconing relay and time the path from
    // the kill to the survivor acking the rerouted table.
    let monitor = UdpSocket::bind(("127.0.0.1", 0)).expect("bind monitor");
    monitor
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("monitor timeout");
    let monitor_addr = monitor.local_addr().expect("monitor addr");
    let spawn_beaconing = |node_id: u32| {
        RelayNode::spawn(RelayConfig {
            generation,
            buffer_generations: 64,
            seed: 0xBE7C + node_id as u64,
            heartbeat: Some(HeartbeatConfig {
                monitor: monitor_addr,
                interval: Duration::from_millis(10),
                node_id,
            }),
            registry: None,
            ..RelayConfig::default()
        })
        .expect("spawn relay")
    };
    let victim = spawn_beaconing(1);
    let survivor = spawn_beaconing(2);
    let mut tracker = LivenessTracker::new(LivenessConfig {
        suspect_after: Duration::from_millis(30),
        dead_after: Duration::from_millis(60),
    });
    let mut buf = [0u8; 64];
    let mut absorb = |tracker: &mut LivenessTracker| {
        while let Ok((n, _)) = monitor.recv_from(&mut buf) {
            if let Ok(fb) = Feedback::from_bytes(&buf[..n]) {
                if fb.kind == FeedbackKind::Heartbeat {
                    tracker.heartbeat(fb.node_id(), Instant::now());
                }
            }
        }
    };
    // Let both relays register with the tracker before the kill.
    let warm_until = Instant::now() + Duration::from_millis(50);
    while Instant::now() < warm_until {
        absorb(&mut tracker);
    }
    let t_kill = Instant::now();
    victim.shutdown();
    let failover_ms = loop {
        absorb(&mut tracker);
        let died = tracker
            .poll(Instant::now())
            .iter()
            .any(|ev| matches!(ev, LivenessEvent::Died(1)));
        if died {
            // Reroute: push a fresh forwarding table to the survivor.
            let mut table = ForwardingTable::new();
            table.set(SessionId::new(RELAY_SESSION), vec!["127.0.0.1:9".into()]);
            let sig = Signal::NcForwardTab {
                table: table.to_text(),
            };
            let push = UdpSocket::bind(("127.0.0.1", 0)).expect("bind push");
            push.set_read_timeout(Some(Duration::from_secs(2)))
                .expect("push timeout");
            let mut ack = [0u8; 16];
            push.send_to(&sig.to_bytes(), survivor.control_addr)
                .expect("push table");
            let (n, _) = push.recv_from(&mut ack).expect("survivor acks");
            assert_eq!(&ack[..n], b"OK", "survivor applied the rerouted table");
            break t_kill.elapsed().as_secs_f64() * 1e3;
        }
        assert!(
            t_kill.elapsed() < Duration::from_secs(10),
            "failover detection stalled"
        );
    };
    survivor.shutdown();

    // One source of truth: the transfer endpoints shared a registry, so
    // the report's snapshot carries every recovery counter.
    let snap = &report.snapshot;
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let wire_packets = c("recovery.initial_packets") + c("recovery.retransmit_packets");
    RecoveryBench {
        loss_rate: LOSS_RATE,
        block_size: generation.block_size(),
        generation_size: generation.blocks_per_generation(),
        object_bytes,
        initial_packets: c("recovery.initial_packets"),
        retransmit_packets: c("recovery.retransmit_packets"),
        nacks_sent: c("recovery.nacks_sent"),
        generations_recovered: c("recovery.generations_recovered"),
        unrecovered: c("recovery.unrecovered"),
        transfer_ms: report.receiver.elapsed.as_secs_f64() * 1e3,
        wire_overhead: wire_packets as f64 * generation.block_size() as f64 / object_bytes as f64,
        failover_ms,
    }
}

struct OverloadPoint {
    multiplier: f64,
    offered: u64,
    delivered: u64,
    goodput_ratio: f64,
}

struct OverloadBench {
    provisioned_pps: u32,
    burst: u32,
    curve: Vec<OverloadPoint>,
    shed_quota: u64,
    shed_overload: u64,
    shed_redundancy: u64,
    congestion_frames: u64,
    backpressure_convergence_ms: f64,
    in_quota_goodput_ratio: f64,
    control_frames_lost: u64,
}

/// Goodput versus offered load through the admission regime, plus the
/// backpressure loop's convergence time.
///
/// One session is provisioned at a fixed quota over the live `NC_QUOTA`
/// control channel, then offered 0.5x/1x/2x/4x its quota; each point
/// reports the goodput ratio at the session's next hop. During the 4x
/// point a stream of heartbeat feedback frames shares the data socket —
/// `control_frames_lost` must stay 0 because dispatch classifies them
/// before admission. Finally, a greedy sender that honours `Congestion`
/// frames (halving its rate per frame) is timed from first overload
/// until the relay stops shedding it: `backpressure_convergence_ms`.
fn bench_overload(quick: bool, config: GenerationConfig) -> OverloadBench {
    use ncvnf_control::signal::Signal;
    use ncvnf_dataplane::{Feedback, FeedbackKind};
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
    let control = UdpSocket::bind(("127.0.0.1", 0)).expect("bind control");
    control
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("control timeout");
    let roundtrip = |sig: &Signal| {
        let mut ack = [0u8; 32];
        control
            .send_to(&sig.to_bytes(), relay.control_addr)
            .expect("send signal");
        let (n, _) = control.recv_from(&mut ack).expect("relay acks");
        assert!(ack[..n].starts_with(b"OK"), "signal applied");
    };
    roundtrip(&Signal::NcQuota {
        session: SessionId::new(SESSION),
        rate_pps: QUOTA_PPS,
        burst: QUOTA_BURST,
        priority: 0,
    });
    roundtrip(&Signal::NcSettings {
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
    roundtrip(&Signal::NcForwardTab {
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
        let mut beats = 0u64;
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
                let beat = Feedback::heartbeat(9, beats as u16).to_bytes();
                if sender.send_to(&beat, relay.data_addr).is_ok() {
                    beats += 1;
                }
            }
            next += gap;
            let now = Instant::now();
            if next > now {
                std::thread::sleep(next - now);
            } else if now - next > 16 * gap {
                // Bound the catch-up burst after a scheduling hiccup:
                // an unbounded burst can overflow the relay's kernel
                // receive buffer, and a kernel drop of a heartbeat
                // would read as control-frame loss the relay never
                // caused.
                next = now - 16 * gap;
            }
        }
        // Grace for in-flight datagrams, then read the point.
        std::thread::sleep(Duration::from_millis(100));
        let got = delivered.load(Ordering::Relaxed) - delivered_before;
        if beats > 0 {
            let classified = handle.stats().feedback_frames - feedback_before;
            control_frames_lost += beats.saturating_sub(classified);
        }
        curve.push(OverloadPoint {
            multiplier,
            offered,
            delivered: got,
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
    roundtrip(&Signal::NcQuota {
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
        shed_overload: stats.shed_overload,
        shed_redundancy: stats.shed_redundancy,
        congestion_frames: stats.congestion_frames,
        backpressure_convergence_ms,
        in_quota_goodput_ratio: in_quota_delivered as f64 / in_quota_offered as f64,
        control_frames_lost,
    }
}

struct ControlBench {
    journal_records: u64,
    append_ns_per_record: f64,
    commit_batch_records: u64,
    commit_ns_per_batch: f64,
    wal_bytes: u64,
    replayed_records: u64,
    replay_records_per_sec: f64,
    reconcile_runs: u64,
    reconcile_roundtrip_us: f64,
}

/// Crash-safe control-plane costs (DESIGN.md §13): write-ahead journal
/// append and fsync'd-batch commit latency, replay throughput on
/// restart, and the full reconcile round trip (NC_STATS observe → diff
/// → fenced re-push → ACK) against a live relay.
fn bench_control(quick: bool, config: GenerationConfig) -> ControlBench {
    use ncvnf_control::{
        reconcile, ControlRecord, ControllerState, Journal, SenderConfig, SignalSender,
    };

    let median_ns = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };

    let path = std::env::temp_dir().join(format!("ncvnf-bench-journal-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut journal, _, _) = Journal::open(&path).expect("open bench WAL");
    journal
        .log(&ControlRecord::EpochStarted { epoch: 1 })
        .expect("seed epoch record");
    let record = |i: u64| ControlRecord::TablePushed {
        node: (i % 16) as u32,
        epoch: 1,
        seq: i,
        table: format!("session {} 127.0.0.1:{}\n", i % 64, 4000 + (i % 1000)),
    };

    // Append latency: buffered frame construction + CRC, no fsync.
    let appends: u64 = if quick { 4_000 } else { 40_000 };
    let t0 = Instant::now();
    for i in 0..appends {
        journal.append(&record(i));
    }
    let append_ns_per_record = t0.elapsed().as_nanos() as f64 / appends as f64;
    journal.commit().expect("flush append batch");

    // Commit latency: fsync'd batches, the durability unit a controller
    // pays before letting a push hit the network.
    const BATCH: u64 = 64;
    let batches: u64 = if quick { 32 } else { 128 };
    let mut commit_ns = Vec::with_capacity(batches as usize);
    for b in 0..batches {
        for i in 0..BATCH {
            journal.append(&record(appends + b * BATCH + i));
        }
        let t0 = Instant::now();
        journal.commit().expect("fsync batch");
        commit_ns.push(t0.elapsed().as_nanos() as f64);
    }
    let commit_ns_per_batch = median_ns(&mut commit_ns);
    drop(journal);
    let wal_bytes = std::fs::metadata(&path).expect("WAL exists").len();

    // Replay throughput: reopen the whole file, records/s.
    let t0 = Instant::now();
    let (journal2, _, report) = Journal::open(&path).expect("reopen bench WAL");
    let replay_secs = t0.elapsed().as_secs_f64();
    assert!(!report.torn_tail, "bench WAL replays clean");
    drop(journal2);
    let _ = std::fs::remove_file(&path);

    // Reconcile round trip against a live relay: every run's belief
    // diverges from the relay's table, so each pass does the full
    // observe (NC_STATS) → plan → fenced re-push → ACK cycle.
    let relay = RelayNode::spawn(RelayConfig {
        generation: config,
        buffer_generations: 64,
        seed: 0xBE7C_000C,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .expect("spawn relay");
    let mut sender = SignalSender::new(1, SenderConfig::default()).expect("bind sender");
    let runs: u64 = if quick { 5 } else { 9 };
    let mut roundtrip_us = Vec::with_capacity(runs as usize);
    for i in 0..runs {
        let state = ControllerState::replay(&[
            ControlRecord::EpochStarted { epoch: 1 },
            ControlRecord::VnfLaunched {
                node: 0,
                data_center: "bench".into(),
                control_addr: relay.control_addr.to_string(),
            },
            ControlRecord::TablePushed {
                node: 0,
                epoch: 1,
                seq: 1,
                table: format!("session {} 127.0.0.1:9\n", 100 + i),
            },
        ]);
        let t0 = Instant::now();
        let outcome = reconcile(&mut sender, &state, 0.0, None);
        roundtrip_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(outcome.repushed_ok, 1, "bench reconcile re-pushed");
    }
    relay.shutdown();

    ControlBench {
        journal_records: appends + batches * BATCH + 1,
        append_ns_per_record,
        commit_batch_records: BATCH,
        commit_ns_per_batch,
        wal_bytes,
        replayed_records: report.records,
        replay_records_per_sec: report.records as f64 / replay_secs,
        reconcile_runs: runs,
        reconcile_roundtrip_us: median_ns(&mut roundtrip_us),
    }
}

struct AutoscaleBench {
    polls: u64,
    steady_poll_us: f64,
    detect_polls: u64,
    adoptions: u64,
    adopt_us: f64,
    drained: u64,
    woken: u64,
    wake_poll_us: f64,
}

/// The closed control loop end to end (DESIGN.md §15): bootstrap two
/// live relays, drive the autoscaler's measure → decide → actuate cycle
/// on a scripted 1 Hz virtual stats clock, and time the real work — the
/// steady-state poll, the adopting poll (planner re-solve + fsync'd
/// `ScaleDecision` + fenced table pushes with ACKs), and the
/// wake-from-drain pass. Stats are scripted so the collapse, the idle
/// window and the returning traffic are deterministic; every push and
/// journal write is real.
fn bench_autoscale(config: GenerationConfig) -> AutoscaleBench {
    use std::collections::HashMap;

    use ncvnf_control::signal::Signal;
    use ncvnf_control::{
        AutoscaleConfig, Autoscaler, ControlLink, Journal, RelayTarget, SendError, SendReceipt,
        SenderConfig, SignalSender, VnfRoleWire,
    };
    use ncvnf_deploy::{
        Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder,
        VnfSpec,
    };

    /// Real fenced pushes to live relays; scripted `NC_STATS` replies so
    /// the measurement timeline is deterministic.
    struct ScriptedStatsLink<'a> {
        inner: &'a mut SignalSender,
        stats: HashMap<SocketAddr, String>,
    }

    impl ScriptedStatsLink<'_> {
        fn set_stats(&mut self, to: SocketAddr, out: u64, idle_ms: u64) {
            self.stats.insert(
                to,
                format!(
                    r#"{{"counters":{{"relay.datagrams_out":{out}}},"gauges":{{"relay.idle_ms":{idle_ms},"relay.daemon_state":1}}}}"#
                ),
            );
        }
    }

    impl ControlLink for ScriptedStatsLink<'_> {
        fn epoch(&self) -> u64 {
            self.inner.epoch()
        }

        fn next_seq(&self, to: SocketAddr) -> u64 {
            self.inner.next_seq(to)
        }

        fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
            self.inner.push(to, signal)
        }

        fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
            self.stats
                .get(&to)
                .cloned()
                .ok_or(SendError::Timeout { attempts: 1 })
        }
    }

    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };

    // src → dc-a (recoder) → dc-b (decoder) → rx, source-capped demand.
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
        tau1_secs: 2.0,
        rho2: 0.05,
        tau2_secs: 2.0,
        pool_tau_secs: 60.0,
        launch_latency_secs: 0.0,
    };
    let mut controller = ScalingController::new(b.build(), Planner::new(), params);
    controller
        .handle(
            ScalingEvent::SessionJoin(SessionSpec::elastic(
                SessionId::new(RELAY_SESSION),
                s,
                vec![r],
                200.0,
            )),
            0.0,
        )
        .expect("bench session plans");

    let spawn = |seed: u64| {
        RelayNode::spawn(RelayConfig {
            generation: config,
            buffer_generations: 64,
            seed,
            heartbeat: None,
            registry: None,
            ..RelayConfig::default()
        })
        .expect("spawn autoscale bench relay")
    };
    let ra = spawn(0xA5CA_0001);
    let rb = spawn(0xA5CA_0002);
    let settings = |relay: &RelayNode, role| {
        vec![Signal::NcSettings {
            session: SessionId::new(RELAY_SESSION),
            role,
            data_port: relay.data_addr.port(),
            block_size: config.block_size() as u32,
            generation_size: config.blocks_per_generation() as u32,
            buffer_generations: 64,
        }]
    };
    let targets = vec![
        RelayTarget {
            node: 1,
            dc: dc_a,
            control_addr: ra.control_addr,
            role: VnfRoleWire::Recoder,
            settings: settings(&ra, VnfRoleWire::Recoder),
        },
        RelayTarget {
            node: 2,
            dc: dc_b,
            control_addr: rb.control_addr,
            role: VnfRoleWire::Decoder,
            settings: settings(&rb, VnfRoleWire::Decoder),
        },
    ];
    let mut data_addrs = HashMap::new();
    data_addrs.insert(dc_a, ra.data_addr.to_string());
    data_addrs.insert(dc_b, rb.data_addr.to_string());
    data_addrs.insert(r, "127.0.0.1:9".to_owned());

    let wal =
        std::env::temp_dir().join(format!("ncvnf-bench-autoscale-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let (journal, _, _) = Journal::open(&wal).expect("open autoscale WAL");
    let mut sender = SignalSender::new(1, SenderConfig::default()).expect("bind sender");
    let mut auto = Autoscaler::new(
        controller,
        journal,
        targets,
        data_addrs,
        AutoscaleConfig {
            min_rel_change: 0.02,
            telemetry_window: 1,
            idle_tau_secs: 5.0,
            drain_tau_secs: 30,
        },
    );
    let mut link = ScriptedStatsLink {
        inner: &mut sender,
        stats: HashMap::new(),
    };
    auto.bootstrap(&mut link, 0.0).expect("bootstrap relays");

    let a_addr = ra.control_addr;
    let b_addr = rb.control_addr;
    let mut polls = 0u64;
    let mut now = 0.0f64;
    let mut out = 0u64;
    let poll = |auto: &mut Autoscaler,
                link: &mut ScriptedStatsLink,
                polls: &mut u64,
                now: &mut f64,
                out: &mut u64,
                step: u64,
                idle_ms: u64| {
        *out += step;
        *now += 1.0;
        *polls += 1;
        link.set_stats(a_addr, *out, idle_ms);
        link.set_stats(b_addr, *out, idle_ms);
        let t0 = Instant::now();
        let report = auto.poll(link, *now).expect("autoscale poll");
        (report, t0.elapsed().as_secs_f64() * 1e6)
    };

    // Steady state: baselines form, nothing changes.
    const BASE_STEP: u64 = 10_000;
    let mut steady_us = Vec::new();
    for i in 0..8 {
        let (report, us) = poll(
            &mut auto, &mut link, &mut polls, &mut now, &mut out, BASE_STEP, 10,
        );
        assert!(!report.adopted, "steady poll adopted");
        if i >= 3 {
            steady_us.push(us);
        }
    }

    // Collapse: a persistent 70% throughput drop must be adopted after
    // τ1; `detect_polls` counts the collapsed polls it took.
    let mut detect_polls = 0u64;
    let adopt_us = loop {
        let (report, us) = poll(
            &mut auto, &mut link, &mut polls, &mut now, &mut out, 3_000, 10,
        );
        detect_polls += 1;
        assert!(detect_polls <= 30, "collapse never adopted");
        if report.adopted {
            break us;
        }
    };

    // Idle: frozen counters + an over-τ idle gauge drain the fleet.
    let mut drained = 0u64;
    for _ in 0..15 {
        let (report, _) = poll(
            &mut auto, &mut link, &mut polls, &mut now, &mut out, 0, 20_000,
        );
        drained += report.drained.len() as u64;
        if drained >= 2 {
            break;
        }
    }

    // Wake: the first returning counter delta re-arms everything.
    let (wake_report, wake_poll_us) = {
        out += 500;
        now += 1.0;
        polls += 1;
        link.set_stats(a_addr, out, 5);
        let t0 = Instant::now();
        let report = auto.poll(&mut link, now).expect("wake poll");
        (report, t0.elapsed().as_secs_f64() * 1e6)
    };

    let adoptions = auto.decisions();
    ra.shutdown();
    rb.shutdown();
    let _ = std::fs::remove_file(&wal);

    AutoscaleBench {
        polls,
        steady_poll_us: median(&mut steady_us),
        detect_polls,
        adoptions,
        adopt_us,
        drained,
        woken: wake_report.woken.len() as u64,
        wake_poll_us,
    }
}

struct ObsBench {
    bare_pps: f64,
    instrumented_pps: f64,
    overhead_pct: f64,
    steps_recorded: u64,
    step_ns_samples: u64,
    nc_stats_roundtrip_us: f64,
    snapshot_bytes: usize,
}

/// Budget the observability layer must stay inside: metrics on the
/// relay hot path may cost at most this much packets/s.
const OBS_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Cost of the observability layer on the relay hot path.
///
/// Two identical recoder shards run the same hot workload through
/// [`relay_batch`] — the path the live node runs — one with a bare
/// [`BatchScratch`] and one with an instrumented scratch that records
/// into a live registry (step and batch counters, emit/recycle counters,
/// pending-depth gauge, sampled latency histograms). Rounds are
/// interleaved bare/instrumented so frequency drift and scheduler noise
/// hit both sides equally; the overhead is the median per-round
/// regression, floored at zero. Also times one `NC_STATS` control
/// round trip (query → JSON snapshot reply) against a live relay node.
fn bench_observability(timing: &Timing, config: GenerationConfig) -> ObsBench {
    use ncvnf_control::signal::Signal;

    /// Packets/sec of one timed round over the hot ring.
    fn round(
        rig: &BatchRig,
        scratch: &mut BatchScratch,
        idx: &mut usize,
        sink: &mut u64,
        min_secs: f64,
    ) -> f64 {
        let start = Instant::now();
        let mut packets = 0u64;
        loop {
            packets += rig.run(scratch, idx, sink);
            if start.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        packets as f64 / start.elapsed().as_secs_f64()
    }

    let registry = Registry::new();
    let mut bare_scratch = BatchScratch::new(1);
    let mut obs_scratch = BatchScratch::instrumented(1, &registry);
    let bare = BatchRig::new(config, 0xBE7C_0009, &mut bare_scratch);
    let obs = BatchRig::new(config, 0xBE7C_000A, &mut obs_scratch);
    let mut sink = 0u64;

    // Each repeat brackets the instrumented round between two bare
    // rounds and compares against their mean: machine-speed drift within
    // a repeat (turbo decay, VM steal) is linear to first order, so the
    // bracket cancels it instead of charging it to the instrumentation.
    let mut bare_rates = Vec::with_capacity(2 * timing.repeats);
    let mut obs_rates = Vec::with_capacity(timing.repeats);
    let mut overheads = Vec::with_capacity(timing.repeats);
    let (mut bi, mut oi) = (0usize, 0usize);
    let secs = timing.min_duration_secs;
    for _ in 0..timing.repeats {
        let b1 = round(&bare, &mut bare_scratch, &mut bi, &mut sink, secs);
        let o = round(&obs, &mut obs_scratch, &mut oi, &mut sink, secs);
        let b2 = round(&bare, &mut bare_scratch, &mut bi, &mut sink, secs);
        let b = (b1 + b2) / 2.0;
        bare_rates.push(b1);
        bare_rates.push(b2);
        obs_rates.push(o);
        overheads.push((b - o) / b * 100.0);
    }
    std::hint::black_box(sink);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        v[v.len() / 2]
    };
    let bare_pps = median(&mut bare_rates);
    let instrumented_pps = median(&mut obs_rates);
    let overhead_pct = median(&mut overheads).max(0.0);

    // Drop the scratch so its batched counters flush: totals are exact.
    drop(obs_scratch);
    let snap = registry.snapshot();
    let steps_recorded = snap.counter("relay.steps").unwrap_or(0);
    let step_ns_samples = snap.histogram("relay.step_ns").map_or(0, |h| h.count);

    // NC_STATS round trip: one UDP query, one JSON snapshot back.
    let relay = RelayNode::spawn(RelayConfig {
        generation: config,
        buffer_generations: 64,
        seed: 0xBE7C_000B,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .expect("spawn relay");
    let control = UdpSocket::bind(("127.0.0.1", 0)).expect("bind control");
    control
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("control timeout");
    let mut buf = vec![0u8; 65536];
    // Throwaway query warms the path (thread wakeup, JSON buffer).
    control
        .send_to(&Signal::NcStats.to_bytes(), relay.control_addr)
        .expect("send warmup query");
    let _ = control.recv_from(&mut buf);
    let t0 = Instant::now();
    control
        .send_to(&Signal::NcStats.to_bytes(), relay.control_addr)
        .expect("send stats query");
    let (n, _) = control.recv_from(&mut buf).expect("stats reply");
    let nc_stats_roundtrip_us = t0.elapsed().as_secs_f64() * 1e6;
    assert!(
        buf[..n].starts_with(b"{"),
        "NC_STATS replies with a JSON snapshot"
    );
    relay.shutdown();

    ObsBench {
        bare_pps,
        instrumented_pps,
        overhead_pct,
        steps_recorded,
        step_ns_samples,
        nc_stats_roundtrip_us,
        snapshot_bytes: n,
    }
}

fn main() {
    let timing = Timing::from_env();
    let started = Instant::now();
    eprintln!("measuring GF(2^8) kernel tiers ...");
    let kernels = bench_kernels(&timing);
    eprintln!("measuring encode/recode paths (dense / systematic / sparse, g=4..64) ...");
    let codec = bench_codec(&timing);
    eprintln!("measuring sliding-window pipeline latency ...");
    let quick_flag = std::env::args().any(|a| a == "--quick")
        || std::env::var("NCVNF_BENCH_QUICK").is_ok_and(|v| v == "1");
    let window = bench_window(quick_flag);

    let scalar_mul_add = kernels
        .iter()
        .find(|r| r.tier == "scalar" && r.op == "mul_add_slice")
        .map(|r| r.bytes_per_sec)
        .unwrap_or(f64::NAN);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"rlnc\",");
    let _ = writeln!(
        json,
        "  \"active_tier\": \"{}\",",
        bulk::kernel_tier().name()
    );
    let _ = writeln!(json, "  \"payload_len\": {PAYLOAD_LEN},");
    json.push_str("  \"kernels\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        let speedup = r.bytes_per_sec / scalar_mul_add;
        let _ = write!(
            json,
            "    {{\"tier\": \"{}\", \"op\": \"{}\", \"payload_len\": {}, \"bytes_per_sec\": {:.0}, \"speedup_vs_scalar_mul_add\": {:.2}}}",
            r.tier, r.op, r.payload_len, r.bytes_per_sec, speedup
        );
        json.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"codec\": [\n");
    for (i, r) in codec.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"path\": \"{}\", \"generation_size\": {}, \"block_size\": {}, \"bytes_per_sec\": {:.0}}}",
            r.mode, r.path, r.generation_size, r.block_size, r.bytes_per_sec
        );
        json.push_str(if i + 1 < codec.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"sliding_window\": {{");
    let _ = writeln!(json, "    \"symbol_size\": {},", window.symbol_size);
    let _ = writeln!(json, "    \"window_capacity\": {},", window.capacity);
    let _ = writeln!(json, "    \"symbols\": {},", window.symbols);
    let _ = writeln!(
        json,
        "    \"symbols_per_sec\": {:.0},",
        window.symbols_per_sec
    );
    let _ = writeln!(json, "    \"bytes_per_sec\": {:.0},", window.bytes_per_sec);
    let _ = writeln!(
        json,
        "    \"p50_latency_us\": {:.2},",
        window.p50_latency_us
    );
    let _ = writeln!(json, "    \"p99_latency_us\": {:.2}", window.p99_latency_us);
    json.push_str("  }\n}\n");

    std::fs::write("BENCH_rlnc.json", &json).expect("write BENCH_rlnc.json");
    println!("{json}");
    eprintln!(
        "wrote BENCH_rlnc.json in {:.1}s (active tier: {})",
        started.elapsed().as_secs_f64(),
        bulk::kernel_tier().name()
    );

    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("NCVNF_BENCH_QUICK").is_ok_and(|v| v == "1");
    let relay_cfg = GenerationConfig::new(PAYLOAD_LEN, RELAY_G).expect("valid relay layout");
    eprintln!(
        "measuring relay data path (relay_batch in memory, {BUFFERED_GENERATIONS} buffered generations) ..."
    );
    let relay_pps = bench_relay_batch(&timing, relay_cfg);
    eprintln!("measuring relay loopback throughput (real UDP sockets, batched) ...");
    let loopback = bench_relay_loopback(quick, relay_cfg, 1, ncvnf_relay::MAX_BATCH);
    eprintln!("measuring relay loopback throughput (unbatched baseline) ...");
    let loopback_unbatched = bench_relay_loopback(quick, relay_cfg, 1, 1);
    let mut shard_curve = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        eprintln!("measuring relay loopback at {shards} shard(s) ...");
        shard_curve.push(bench_relay_loopback(
            quick,
            relay_cfg,
            shards,
            ncvnf_relay::MAX_BATCH,
        ));
    }
    eprintln!("measuring loss recovery and liveness failover ...");
    let recovery = bench_recovery(quick);
    eprintln!("measuring overload admission, shedding, and backpressure ...");
    let overload = bench_overload(quick, relay_cfg);
    eprintln!("measuring observability overhead (bare vs instrumented relay batches) ...");
    let obs = bench_observability(&timing, relay_cfg);
    eprintln!("measuring crash-safe control plane (journal, replay, reconcile) ...");
    let control = bench_control(quick, relay_cfg);
    eprintln!("measuring closed-loop autoscaler (poll, adopt, drain, wake) ...");
    let autoscale = bench_autoscale(relay_cfg);

    let mbps = |pps: f64| pps * PAYLOAD_LEN as f64 * 8.0 / 1e6;
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"relay\",");
    let _ = writeln!(json, "  \"payload_len\": {PAYLOAD_LEN},");
    let _ = writeln!(json, "  \"generation_size\": {RELAY_G},");
    let _ = writeln!(json, "  \"buffered_generations\": {BUFFERED_GENERATIONS},");
    let _ = writeln!(json, "  \"packets_per_sec\": {relay_pps:.0},");
    let _ = writeln!(json, "  \"mbps\": {:.1},", mbps(relay_pps));
    let loopback_row = |b: &LoopbackBench| {
        format!(
            "{{\"shards\": {}, \"batch\": {}, \"sent\": {}, \"received\": {}, \"packets_per_sec\": {:.0}, \"mbps\": {:.1}}}",
            b.shards,
            b.batch,
            b.sent,
            b.received,
            b.packets_per_sec,
            mbps(b.packets_per_sec)
        )
    };
    let _ = writeln!(json, "  \"loopback\": {},", loopback_row(&loopback));
    let _ = writeln!(
        json,
        "  \"loopback_unbatched\": {},",
        loopback_row(&loopback_unbatched)
    );
    let _ = writeln!(
        json,
        "  \"batching_speedup_pps\": {:.2},",
        loopback.packets_per_sec / loopback_unbatched.packets_per_sec
    );
    json.push_str("  \"loopback_shards\": [\n");
    for (i, row) in shard_curve.iter().enumerate() {
        let _ = write!(json, "    {}", loopback_row(row));
        json.push_str(if i + 1 < shard_curve.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"observability\": {{\"overhead_pct\": {:.2}, \"bare_packets_per_sec\": {:.0}, \"instrumented_packets_per_sec\": {:.0}}},",
        obs.overhead_pct, obs.bare_pps, obs.instrumented_pps
    );
    json.push_str("  \"recovery\": {\n");
    let _ = writeln!(json, "    \"loss_rate\": {:.2},", recovery.loss_rate);
    let _ = writeln!(json, "    \"block_size\": {},", recovery.block_size);
    let _ = writeln!(
        json,
        "    \"generation_size\": {},",
        recovery.generation_size
    );
    let _ = writeln!(json, "    \"object_bytes\": {},", recovery.object_bytes);
    let _ = writeln!(
        json,
        "    \"initial_packets\": {},",
        recovery.initial_packets
    );
    let _ = writeln!(
        json,
        "    \"retransmit_packets\": {},",
        recovery.retransmit_packets
    );
    let _ = writeln!(json, "    \"nacks_sent\": {},", recovery.nacks_sent);
    let _ = writeln!(
        json,
        "    \"generations_recovered\": {},",
        recovery.generations_recovered
    );
    let _ = writeln!(json, "    \"unrecovered\": {},", recovery.unrecovered);
    let _ = writeln!(json, "    \"transfer_ms\": {:.1},", recovery.transfer_ms);
    let _ = writeln!(
        json,
        "    \"wire_overhead\": {:.3},",
        recovery.wire_overhead
    );
    let _ = writeln!(json, "    \"failover_ms\": {:.1}", recovery.failover_ms);
    json.push_str("  },\n");
    json.push_str("  \"overload\": {\n");
    let _ = writeln!(
        json,
        "    \"provisioned_pps\": {},",
        overload.provisioned_pps
    );
    let _ = writeln!(json, "    \"burst\": {},", overload.burst);
    json.push_str("    \"curve\": [\n");
    for (i, p) in overload.curve.iter().enumerate() {
        let comma = if i + 1 == overload.curve.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "      {{\"multiplier\": {:.1}, \"offered\": {}, \"delivered\": {}, \"goodput_ratio\": {:.4}}}{comma}",
            p.multiplier, p.offered, p.delivered, p.goodput_ratio
        );
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"shed_quota\": {},", overload.shed_quota);
    let _ = writeln!(json, "    \"shed_overload\": {},", overload.shed_overload);
    let _ = writeln!(
        json,
        "    \"shed_redundancy\": {},",
        overload.shed_redundancy
    );
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
    std::fs::write("BENCH_relay.json", &json).expect("write BENCH_relay.json");
    println!("{json}");
    eprintln!(
        "wrote BENCH_relay.json in {:.1}s total ({relay_pps:.0} packets/s in memory)",
        started.elapsed().as_secs_f64()
    );

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
    let _ = writeln!(
        json,
        "  \"overhead_budget_pct\": {OBS_OVERHEAD_BUDGET_PCT:.1},"
    );
    let _ = writeln!(
        json,
        "  \"within_budget\": {},",
        obs.overhead_pct < OBS_OVERHEAD_BUDGET_PCT
    );
    let _ = writeln!(
        json,
        "  \"recorded\": {{\"steps\": {}, \"step_latency_samples\": {}}},",
        obs.steps_recorded, obs.step_ns_samples
    );
    let _ = writeln!(
        json,
        "  \"nc_stats\": {{\"roundtrip_us\": {:.1}, \"snapshot_bytes\": {}}}",
        obs.nc_stats_roundtrip_us, obs.snapshot_bytes
    );
    json.push_str("}\n");
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("{json}");
    eprintln!(
        "wrote BENCH_obs.json in {:.1}s total (observability overhead {:.2}% of packets/s, budget {OBS_OVERHEAD_BUDGET_PCT:.1}%)",
        started.elapsed().as_secs_f64(),
        obs.overhead_pct
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"control\",");
    json.push_str("  \"journal\": {\n");
    let _ = writeln!(json, "    \"records\": {},", control.journal_records);
    let _ = writeln!(
        json,
        "    \"append_ns_per_record\": {:.0},",
        control.append_ns_per_record
    );
    let _ = writeln!(
        json,
        "    \"commit_batch_records\": {},",
        control.commit_batch_records
    );
    let _ = writeln!(
        json,
        "    \"commit_ns_per_batch\": {:.0},",
        control.commit_ns_per_batch
    );
    let _ = writeln!(json, "    \"wal_bytes\": {}", control.wal_bytes);
    json.push_str("  },\n");
    json.push_str("  \"replay\": {\n");
    let _ = writeln!(json, "    \"records\": {},", control.replayed_records);
    let _ = writeln!(
        json,
        "    \"records_per_sec\": {:.0}",
        control.replay_records_per_sec
    );
    json.push_str("  },\n");
    json.push_str("  \"reconcile\": {\n");
    let _ = writeln!(json, "    \"runs\": {},", control.reconcile_runs);
    let _ = writeln!(
        json,
        "    \"roundtrip_us\": {:.1}",
        control.reconcile_roundtrip_us
    );
    json.push_str("  },\n");
    json.push_str("  \"autoscale\": {\n");
    let _ = writeln!(json, "    \"polls\": {},", autoscale.polls);
    let _ = writeln!(
        json,
        "    \"steady_poll_us\": {:.1},",
        autoscale.steady_poll_us
    );
    let _ = writeln!(json, "    \"detect_polls\": {},", autoscale.detect_polls);
    let _ = writeln!(json, "    \"adoptions\": {},", autoscale.adoptions);
    let _ = writeln!(json, "    \"adopt_us\": {:.1},", autoscale.adopt_us);
    let _ = writeln!(json, "    \"drained\": {},", autoscale.drained);
    let _ = writeln!(json, "    \"woken\": {},", autoscale.woken);
    let _ = writeln!(json, "    \"wake_poll_us\": {:.1}", autoscale.wake_poll_us);
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_control.json", &json).expect("write BENCH_control.json");
    println!("{json}");
    eprintln!(
        "wrote BENCH_control.json in {:.1}s total (journal append {:.0} ns/record, replay {:.0} records/s, reconcile {:.0} us, autoscale adopt {:.0} us after {} collapsed polls)",
        started.elapsed().as_secs_f64(),
        control.append_ns_per_record,
        control.replay_records_per_sec,
        control.reconcile_roundtrip_us,
        autoscale.adopt_us,
        autoscale.detect_polls
    );
}
