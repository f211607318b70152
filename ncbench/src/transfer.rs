//! `transfer_lossy`: reliable 1 MiB transfers, back to back, through a
//! relay whose data socket drops 10 % of datagrams in each direction.
//!
//! `send_object_reliable` → `RelayNode` behind a `FaultSocket` →
//! `ReliableReceiver`; g=4 × 1460 B, NC0 + AIMD, 200 Mbit/s pacing,
//! `RecoveryConfig::default()`. A transfer is timed from the call into
//! `send_object_reliable` to the receiver's completion; spawning the
//! relay and the receiver and wiring them is outside the timed region.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use ncvnf_relay::{
    send_object_reliable, FaultConfig, FaultHandle, FaultSocket, RecoveryConfig, RecoveryStats,
    RelayConfig, RelayNode, ReliableReceiver, TransferConfig, TransferObs,
};
use ncvnf_rlnc::{GenerationConfig, ObjectEncoder, RedundancyPolicy, SessionId};

use crate::affinity::on_first_cpu;
use crate::inputs::{bytes, derive, SESSION};
use crate::relay::{wire_recoder, LiveRelay, BUFFERED_GENERATIONS, BURST, G, MTU_BLOCK};
use crate::stats::{median, PerSlice};
use crate::trace::Tracer;
use crate::{timed_setup, Options, Report};

const OBJECT_BYTES: usize = 1 << 20;
/// Object size of a smoke run, where a 1 MiB transfer (≈ 1.5 s) is too
/// long.
const SMOKE_OBJECT_BYTES: usize = 64 << 10;
const DROP_RATE: f64 = 0.10;
/// A full run with fewer transfers than this has too few samples to
/// report a median from and is invalid.
const MIN_TRANSFERS: usize = 8;
const TRANSFER_TIMEOUT: Duration = Duration::from_secs(30);

struct Inputs {
    config: TransferConfig,
    recovery: RecoveryConfig,
    object: Vec<u8>,
    generations: u64,
}

impl Inputs {
    fn new(opts: &Options) -> Inputs {
        let generation = GenerationConfig::new(MTU_BLOCK, G).expect("valid layout");
        let config = TransferConfig {
            session: SessionId::new(SESSION),
            generation,
            redundancy: RedundancyPolicy::NC0,
            rate_bps: 200e6,
            seed: derive(opts.seed, 5),
        };
        let len = if opts.smoke {
            SMOKE_OBJECT_BYTES
        } else {
            OBJECT_BYTES
        };
        let object = bytes(derive(opts.seed, 6), len);
        let generations = ObjectEncoder::new(generation, config.session, &object)
            .expect("object frames")
            .generations();
        Inputs {
            config,
            recovery: RecoveryConfig::default(),
            object,
            generations,
        }
    }

    /// Source blocks the object needs: the base of the overhead ratio.
    fn blocks(&self) -> f64 {
        self.object.len() as f64 / MTU_BLOCK as f64
    }
}

/// One transfer's relay and receiver, spawned and wired; both are
/// stopped when the path is dropped.
struct Path {
    source: UdpSocket,
    relay: LiveRelay,
    receiver: Option<ReliableReceiver>,
    receiver_spawned: Instant,
    fault: FaultHandle,
    obs: TransferObs,
}

impl Drop for Path {
    fn drop(&mut self) {
        if let Some(receiver) = self.receiver.take() {
            receiver.wait(Duration::ZERO);
        }
    }
}

fn open_path(inputs: &Inputs, seed: u64, index: u64) -> Result<Path, String> {
    let io = |e: std::io::Error| e.to_string();
    let source = UdpSocket::bind(("127.0.0.1", 0)).map_err(io)?;
    let obs = TransferObs::new();
    let receiver_spawned = Instant::now();
    let source_addr = source.local_addr().map_err(io)?;
    let receiver = on_first_cpu(|| {
        ReliableReceiver::spawn(
            &inputs.config,
            &inputs.recovery,
            inputs.generations,
            source_addr,
            &obs,
        )
    })
    .map_err(io)?;
    let fault_config = FaultConfig::new(derive(seed, index.wrapping_mul(2)))
        .with_drop(DROP_RATE)
        .with_directions(true, true);
    let (data_socket, fault) = FaultSocket::bind_loopback(fault_config).map_err(io)?;
    let control_socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(io)?;
    let relay_config = RelayConfig {
        generation: inputs.config.generation,
        buffer_generations: BUFFERED_GENERATIONS,
        seed: derive(seed, index.wrapping_mul(2).wrapping_add(1)),
        heartbeat: None,
        registry: None,
        shards: 1,
        batch: BURST,
    };
    let relay = on_first_cpu(|| RelayNode::spawn_with(relay_config, data_socket, control_socket))
        .map(LiveRelay::from)
        .map_err(io)?;
    wire_recoder(relay.node(), inputs.config.generation, receiver.addr)?;
    Ok(Path {
        source,
        relay,
        receiver: Some(receiver),
        receiver_spawned,
        fault,
        obs,
    })
}

/// Everything one transfer produced.
struct Outcome {
    secs: f64,
    send_call_ms: f64,
    identical: bool,
    source: RecoveryStats,
    nacks_sent: u64,
    fault_dropped: u64,
    fault_seen: u64,
}

fn transfer(
    inputs: &Inputs,
    expected: &[u8],
    seed: u64,
    index: u64,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let mut path = open_path(inputs, seed, index)?;
    let receiver = path.receiver.take().expect("a fresh path has its receiver");
    let t0 = Instant::now();
    let source = send_object_reliable(
        &path.source,
        &inputs.config,
        &inputs.recovery,
        &inputs.object,
        &[path.relay.node().data_addr],
        &path.obs,
    )
    .map_err(|e| e.to_string())?;
    let sent = Instant::now();
    let done = receiver.wait(TRANSFER_TIMEOUT);
    let waited = Instant::now();
    let faults = path.fault.stats();
    // The receiver stamps its completion relative to its own start.
    let completed = done
        .as_ref()
        .map_or(waited, |r| (path.receiver_spawned + r.elapsed).min(waited));
    if let Some(tracer) = tracer {
        let parent = tracer.record("transfer", None, index, t0, completed.max(sent));
        tracer.record(
            "relay.recovery.send_object_reliable",
            Some(parent),
            index,
            t0,
            sent,
        );
        tracer.record(
            "relay.recovery.receiver_completion",
            Some(parent),
            index,
            t0,
            completed,
        );
        tracer.count("initial_packets", source.initial_packets);
        tracer.count("retransmit_packets", source.retransmit_packets);
    }
    Ok(Outcome {
        secs: completed.saturating_duration_since(t0).as_secs_f64(),
        send_call_ms: (sent - t0).as_secs_f64() * 1e3,
        identical: done.as_ref().is_some_and(|r| r.object == expected),
        source,
        nacks_sent: done.map_or(0, |r| r.stats.nacks_sent),
        fault_dropped: faults.dropped,
        fault_seen: faults.dropped + faults.delivered,
    })
}

pub(crate) fn run(opts: &Options, report: &mut Report) -> Result<(), String> {
    // Set-up: the object and one wired path (what every transfer pays
    // outside its timed region).
    let (ready, setup_s) = timed_setup(opts.setup_repeats(), || {
        let inputs = Inputs::new(opts);
        let path = open_path(&inputs, opts.seed, u64::MAX);
        (inputs, path)
    });
    let (inputs, first_path) = ready;
    drop(first_path?);
    let mut expected = inputs.object.clone();
    if opts.self_test {
        expected[0] ^= 0xFF;
    }

    // A transfer outlasts a slice, so here each transfer is its own
    // slice: transfers run back to back until the measured time is up.
    let mut tracer = opts.trace.then(Tracer::new);
    let (mut rate, mut secs) = (PerSlice::default(), PerSlice::default());
    let mut outcomes: Vec<Outcome> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < opts.timed_part() {
        let index = outcomes.len() as u64;
        let outcome = transfer(&inputs, &expected, opts.seed, index, tracer.as_mut())?;
        rate.push(inputs.blocks() / outcome.secs);
        secs.push(outcome.secs * 1e3);
        outcomes.push(outcome);
    }
    if !opts.smoke && !opts.trace && outcomes.len() < MIN_TRANSFERS {
        return Err(format!(
            "only {} transfers in {} s; {MIN_TRANSFERS} needed for a median",
            outcomes.len(),
            opts.seconds
        ));
    }

    let n = outcomes.len() as u64;
    let wrong = outcomes.iter().filter(|o| !o.identical).count() as u64;
    report.count(n, wrong);
    let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let unrecovered = sum(|o| o.source.unrecovered);
    let dropped_ratio = sum(|o| o.fault_dropped) as f64 / sum(|o| o.fault_seen).max(1) as f64;
    if unrecovered > 0 {
        report.correct = false;
        report.note(format!(
            "correctness: {unrecovered} generations unrecovered"
        ));
    }
    // A smoke run sees too few datagrams for the ratio to settle.
    let fired = if opts.smoke {
        dropped_ratio > 0.0
    } else {
        (0.08..=0.12).contains(&dropped_ratio)
    };
    if !fired {
        report.correct = false;
        report.note(format!(
            "correctness: fault gate dropped {dropped_ratio:.4}, outside 0.08..0.12"
        ));
    }
    let wire_packets = sum(|o| o.source.initial_packets + o.source.retransmit_packets);
    let overhead = wire_packets as f64 / (n as f64 * inputs.blocks());
    report.note(format!(
        "goodput_mbps {:.3} Mbit/s = ops_per_s x {MTU_BLOCK} B x 8; ops_per_s {rate}; closed loop, 1 transfer in flight",
        rate.median() * MTU_BLOCK as f64 * 8.0 / 1e6
    ));
    report.note(format!(
        "transfer time {secs} ms; {n} transfers of {} B, {wrong} not byte-identical",
        inputs.object.len()
    ));
    report.note(format!(
        "wire_overhead_ratio {overhead:.4} = {wire_packets} packets / ({n} x {:.1} blocks); dropped_ratio {dropped_ratio:.4}",
        inputs.blocks()
    ));

    if let Some(tracer) = tracer {
        let mut send_ms: Vec<f64> = outcomes.iter().map(|o| o.send_call_ms).collect();
        report.set("relay.recovery.send_call.ms_p50", median(&mut send_ms));
        report.set(
            "relay.recovery.ms_per_generation",
            secs.median() / inputs.generations as f64,
        );
        let per_transfer = |total: u64| total as f64 / n as f64;
        report.set(
            "relay.recovery.retransmit_packets",
            per_transfer(sum(|o| o.source.retransmit_packets)),
        );
        report.set(
            "relay.recovery.retransmit_rounds",
            per_transfer(sum(|o| o.source.retransmit_rounds)),
        );
        report.set(
            "relay.recovery.nacks_sent",
            per_transfer(sum(|o| o.nacks_sent)),
        );
        report.set("relay.recovery.unrecovered", unrecovered as f64);
        report.set(
            "relay.recovery.peak_extra",
            outcomes
                .iter()
                .map(|o| o.source.peak_extra)
                .max()
                .unwrap_or(0) as f64,
        );
        report.set("relay.chaos.dropped_ratio", dropped_ratio);
        // The timed and the traced part are the same transfers: spans
        // are recorded from instants the run takes anyway.
        tracer.report("transfer_lossy", rate.median(), rate.median(), report)?;
    } else {
        report.set("ops_per_s", rate.median());
        report.set("latency_us", secs.median() * 1e3);
        report.set("wire_overhead_ratio", overhead);
        report.set("setup_s", setup_s);
    }
    Ok(())
}
