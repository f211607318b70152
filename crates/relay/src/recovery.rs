//! Feedback-driven loss recovery for object transfers.
//!
//! The paper measures how long a receiver "has to wait for
//! retransmissions ... to collect all 4 packets for decoding a
//! generation" under loss; this module implements that protocol on the
//! real-socket path:
//!
//! * the receiver ([`ReliableReceiver`]) ACKs each generation as it
//!   decodes and NACKs generations that stall past a decode timeout,
//!   using the `ncvnf-dataplane` feedback codec (sent straight back to
//!   the source — feedback does not traverse the coding relays);
//! * the source ([`send_object_reliable`]) is one deadline-driven loop:
//!   it emits fresh generations at `rate_bps` and, in between, answers
//!   NACKs with *fresh* random combinations (innovative with
//!   overwhelming probability, so it never needs to know which packets
//!   were lost), under bounded retries with exponential backoff per
//!   generation. It polls its socket without blocking and sleeps on
//!   deadlines; a socket timeout never paces it;
//! * an [`AdaptiveRedundancy`] AIMD controller raises the per-generation
//!   redundancy once per repair round a loss causes and decays it once
//!   the path is clean, replacing the static NCr choice on the live
//!   path; a repair burst carries the same redundancy ratio as a fresh
//!   generation.
//!
//! [`reliable_chain`] assembles the whole thing — source → fault-injected
//! relays → receiver — for the chaos and failover experiments.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver as ChanReceiver};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ncvnf_control::signal::{Signal, VnfRoleWire};
use ncvnf_control::ForwardingTable;
use ncvnf_dataplane::{Feedback, FeedbackKind, FEEDBACK_MAGIC};
use ncvnf_obs::{Snapshot, TraceKind};
use ncvnf_rlnc::window::{WindowConfig, WindowDecoder, WindowEncoder, WindowOutcome};
use ncvnf_rlnc::{
    wire_kind, AdaptiveRedundancy, AimdConfig, ObjectDecoder, ObjectEncoder, PacketView,
    PayloadPool, SessionId, WindowAck, WireKind,
};

use crate::chaos::{FaultConfig, FaultSocket, FaultStats};
use crate::metrics::{RecoveryMetrics, TransferObs};
use crate::node::{RelayConfig, RelayNode, RelayStats};
use crate::socket::{DatagramSocket, SendBatch};
use crate::transfer::TransferConfig;

/// Tuning of the feedback/retransmission protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Receiver: a generation silent (no innovative packet) this long is
    /// NACKed.
    pub decode_timeout: Duration,
    /// Receiver: minimum spacing between NACKs for the same generation.
    pub nack_interval: Duration,
    /// Source: retransmission rounds per generation before giving up.
    pub max_retries: u32,
    /// Source: wait after retry `k` before honouring another NACK for
    /// the same generation doubles from this base (exponential backoff).
    pub backoff_base: Duration,
    /// Source: give up after this long with every generation sent and no
    /// feedback (receiver death must not hang the source forever).
    pub idle_timeout: Duration,
    /// Source: base pause imposed by one `Congestion` frame, scaled by
    /// the reported load percent (0.5×–4×). Fresh generations and repair
    /// bursts both hold off until the pause expires.
    pub congestion_pause: Duration,
    /// AIMD redundancy tuning (floor is overridden by the transfer's
    /// static policy).
    pub aimd: AimdConfig,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            decode_timeout: Duration::from_millis(40),
            nack_interval: Duration::from_millis(40),
            max_retries: 8,
            backoff_base: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(2),
            congestion_pause: Duration::from_millis(5),
            aimd: AimdConfig::default(),
        }
    }
}

/// Counters from one reliable transfer. The source fills the
/// received/retransmit side, the receiver the sent side.
///
/// Like [`RelayStats`], this is a typed *view*: the protocol records
/// into `recovery.*` registry cells (a [`RecoveryMetrics`] bundle inside
/// the caller's [`TransferObs`]) and each call returns the delta it
/// contributed. Controllers derive their health record from the registry
/// snapshot via `DataplaneHealth::from_snapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Coded packets sent as fresh generations (source).
    pub initial_packets: u64,
    /// Fresh coded packets sent in response to NACKs (source).
    pub retransmit_packets: u64,
    /// Retransmission rounds: NACKs honoured with a packet burst
    /// (source).
    pub retransmit_rounds: u64,
    /// NACKs emitted (receiver).
    pub nacks_sent: u64,
    /// NACKs received and not ignored as stale/unsent (source).
    pub nacks_received: u64,
    /// ACKs emitted (receiver).
    pub acks_sent: u64,
    /// ACKs received (source).
    pub acks_received: u64,
    /// Generations that needed at least one retransmission round and
    /// still closed out (source).
    pub generations_recovered: u64,
    /// Highest AIMD redundancy reached, in whole extra packets (source).
    pub peak_extra: u32,
    /// Generations never ACKed when the source gave up (0 on success).
    pub unrecovered: u64,
}

/// Reads the current cumulative `recovery.*` cell values as a typed view
/// (`peak_extra` is gauge-derived and left 0 here; callers fill it from
/// the AIMD controller).
fn recovery_counts(m: &RecoveryMetrics) -> RecoveryStats {
    RecoveryStats {
        initial_packets: m.initial_packets.get(),
        retransmit_packets: m.retransmit_packets.get(),
        retransmit_rounds: m.retransmit_rounds.get(),
        nacks_sent: m.nacks_sent.get(),
        nacks_received: m.nacks_received.get(),
        acks_sent: m.acks_sent.get(),
        acks_received: m.acks_received.get(),
        generations_recovered: m.generations_recovered.get(),
        peak_extra: 0,
        unrecovered: m.unrecovered.get(),
    }
}

/// Field-wise `after - before`: the delta one call contributed to shared
/// cumulative cells. Source-side and receiver-side fields are written by
/// disjoint parties, so deltas stay exact even when both ends share one
/// registry.
fn recovery_delta(before: &RecoveryStats, after: &RecoveryStats) -> RecoveryStats {
    RecoveryStats {
        initial_packets: after.initial_packets - before.initial_packets,
        retransmit_packets: after.retransmit_packets - before.retransmit_packets,
        retransmit_rounds: after.retransmit_rounds - before.retransmit_rounds,
        nacks_sent: after.nacks_sent - before.nacks_sent,
        nacks_received: after.nacks_received - before.nacks_received,
        acks_sent: after.acks_sent - before.acks_sent,
        acks_received: after.acks_received - before.acks_received,
        generations_recovered: after.generations_recovered - before.generations_recovered,
        peak_extra: 0,
        unrecovered: after.unrecovered - before.unrecovered,
    }
}

/// Source-side backpressure state, driven by `Congestion` feedback
/// frames (kind 5) from overloaded relays downstream.
#[derive(Debug, Default)]
struct Backpressure {
    /// No data leaves the source before this instant.
    pause_until: Option<Instant>,
}

impl Backpressure {
    /// Extends the pause window (never shortens it).
    fn pause_for(&mut self, pause: Duration) {
        let until = Instant::now() + pause;
        self.pause_until = Some(self.pause_until.map_or(until, |t| t.max(until)));
    }

    /// When sends may resume, while they should hold off; clears the
    /// window once it expires.
    fn paused_until(&mut self, now: Instant) -> Option<Instant> {
        self.pause_until = self.pause_until.filter(|&t| now < t);
        self.pause_until
    }
}

/// How far past the time asked for a socket read timeout may return.
/// Linux keeps `SO_RCVTIMEO` in scheduler ticks, rounded up, plus one:
/// measured at HZ=250, 1 ms asked waits 8 ms, 5 ms → 12 ms, 10 ms →
/// 16 ms (DESIGN.md §10). Two ticks at HZ=100 bounds it.
const SOCKET_OVERSHOOT: Duration = Duration::from_millis(20);

/// Longest stretch a source sleeps without polling its socket, so
/// feedback that lands during a short wait is answered within this.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// A source's own socket seen as its feedback inbox: polled without
/// blocking while the source has sends to make, parked in only for waits
/// too long for a sleep. One implementation for both reliable sources.
/// A socket timeout never paces anything here — it only bounds a park
/// that feedback would end early anyway.
struct FeedbackPort<'a, S: DatagramSocket> {
    socket: &'a S,
    buf: [u8; 64],
    /// Length of a frame a park received, handed out by the next poll.
    held: Option<usize>,
}

impl<'a, S: DatagramSocket> FeedbackPort<'a, S> {
    fn new(socket: &'a S) -> Self {
        FeedbackPort {
            socket,
            buf: [0u8; 64],
            held: None,
        }
    }

    /// The next queued frame, if any; never blocks.
    fn poll(&mut self) -> Option<&[u8]> {
        let n = match self.held.take() {
            Some(n) => n,
            None => self.socket.try_recv_from(&mut self.buf).ok()?.0,
        };
        Some(&self.buf[..n])
    }

    /// Waits towards `deadline` and returns no later than it: a wait
    /// longer than the socket's overshoot parks in the socket (for that
    /// much less), so an arriving frame ends it at once; a shorter one
    /// sleeps, a slice at a time. The caller polls and re-plans after
    /// every return.
    fn wait(&mut self, deadline: Instant) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left <= SOCKET_OVERSHOOT {
            std::thread::sleep(left.min(POLL_SLICE));
            return;
        }
        let parked = self
            .socket
            .set_read_timeout(Some(left - SOCKET_OVERSHOOT))
            .and_then(|()| self.socket.recv_from(&mut self.buf));
        match parked {
            Ok((n, _)) => self.held = Some(n),
            Err(ref e) if is_timeout(e) => {}
            Err(_) => std::thread::sleep(POLL_SLICE),
        }
    }
}

impl<S: DatagramSocket> Drop for FeedbackPort<'_, S> {
    /// Hands the caller's socket back in blocking mode.
    fn drop(&mut self) {
        let _ = self.socket.set_read_timeout(None);
    }
}

/// Most of a late emission's lateness the pacer lets the source win
/// back by sending early afterwards; lateness beyond it (an idle tail, a
/// congestion pause) is forgiven instead of repaid as a line-rate burst.
const PACE_CREDIT: Duration = Duration::from_millis(1);

/// The source's way out: coded packets of one generation, built from
/// pooled buffers into one [`SendBatch`] and paced at `rate_bps`.
struct Wire<'a, S: DatagramSocket> {
    socket: &'a S,
    encoder: &'a ObjectEncoder,
    next_hops: &'a [SocketAddr],
    metrics: &'a RecoveryMetrics,
    rng: StdRng,
    pool: PayloadPool,
    batch: SendBatch,
    /// Wire time of one packet at the configured rate.
    gap: Duration,
    /// Pacing deadline: the rate budget allows the next emission now or
    /// after this instant.
    pace: Instant,
    /// Packets emitted so far (the round-robin cursor over next hops).
    packets: u64,
}

impl<S: DatagramSocket> Wire<'_, S> {
    /// Sends `count` fresh combinations of `generation` as one batch,
    /// `now` being no earlier than `due`, and charges them to the rate
    /// budget.
    fn emit(
        &mut self,
        generation: u64,
        count: usize,
        due: Instant,
        now: Instant,
    ) -> io::Result<()> {
        self.batch.clear();
        for _ in 0..count {
            let pkt = self
                .encoder
                .coded_packet_pooled(generation, &mut self.rng, &mut self.pool);
            let hop = self.next_hops[(self.packets as usize) % self.next_hops.len()];
            self.batch.push_wire(|w| pkt.write_into(w), &[hop]);
            self.pool.recycle(pkt);
            self.packets += 1;
        }
        self.socket.send_batch(&self.batch)?;
        self.metrics
            .pace_lag_ns
            .record(now.saturating_duration_since(due).as_nanos() as u64);
        let floor = now.checked_sub(PACE_CREDIT).unwrap_or(now);
        self.pace = self.pace.max(floor) + self.gap * (count as u32);
        Ok(())
    }
}

/// Per-generation bookkeeping on the source side.
struct GenState {
    acked: bool,
    /// Packets requested by the NACKs of the open repair round (those
    /// since the last burst); `None` when nothing awaits repair.
    pending_nack: Option<u16>,
    retries: u32,
    /// Earliest instant another NACK will be honoured (backoff gate).
    next_retry: Instant,
}

/// What the source knows about the transfer: per-generation progress,
/// the AIMD controller and the backpressure window. Feedback frames go
/// in through [`absorb`](Self::absorb); the send loop reads it.
struct Source<'a> {
    config: &'a TransferConfig,
    recovery: &'a RecoveryConfig,
    metrics: &'a RecoveryMetrics,
    gens: Vec<GenState>,
    /// Generations the fresh pass has emitted; a NACK at or beyond it
    /// says nothing about loss.
    sent: u64,
    /// Generations not yet ACKed.
    open: usize,
    /// Open generations whose retry budget is used up.
    spent: usize,
    /// Generations with a NACK awaiting its repair round, oldest first.
    nacked: Vec<usize>,
    adaptive: AdaptiveRedundancy,
    bp: Backpressure,
}

impl<'a> Source<'a> {
    fn new(
        config: &'a TransferConfig,
        recovery: &'a RecoveryConfig,
        metrics: &'a RecoveryMetrics,
        generations: u64,
    ) -> Self {
        let now = Instant::now();
        let gens = (0..generations)
            .map(|_| GenState {
                acked: false,
                pending_nack: None,
                retries: 0,
                next_retry: now,
            })
            .collect();
        let open = generations as usize;
        Source {
            config,
            recovery,
            metrics,
            gens,
            sent: 0,
            open,
            spent: if recovery.max_retries == 0 { open } else { 0 },
            nacked: Vec::new(),
            adaptive: AdaptiveRedundancy::from_policy(config.redundancy, recovery.aimd),
            bp: Backpressure::default(),
        }
    }

    /// True once every generation has left and is either ACKed or out
    /// of retries.
    fn finished(&self) -> bool {
        self.sent == self.gens.len() as u64 && self.open == self.spent
    }

    /// Applies one feedback frame. Returns true if the frame was valid
    /// feedback for this session.
    fn absorb(&mut self, frame: &[u8]) -> bool {
        let Ok(fb) = Feedback::from_bytes(frame) else {
            return false;
        };
        if fb.kind == FeedbackKind::Congestion {
            // Handled before the generation guard: a Congestion frame's
            // generation field carries the reporter's load percent, not a
            // generation index. Session 0 is the wildcard for sheds the
            // relay could not attribute.
            if fb.session != self.config.session && fb.session.value() != 0 {
                return false;
            }
            // Multiplicative decrease plus a send pause scaled by how
            // overloaded the reporter says it is.
            self.adaptive.on_congestion();
            let scale = (f64::from(fb.load_pct()) / 100.0).clamp(0.5, 4.0);
            let pause = self.recovery.congestion_pause.mul_f64(scale);
            self.bp.pause_for(pause);
            self.metrics.congestion_events.inc();
            self.metrics.congestion_window.set(f64::from(fb.load_pct()));
            self.metrics.backpressure_ns.record(pause.as_nanos() as u64);
            return true;
        }
        if fb.session != self.config.session || fb.generation >= self.gens.len() as u64 {
            // Heartbeats and wake requests address the controller, not this
            // source; consume them without treating them as recovery state.
            return matches!(fb.kind, FeedbackKind::Heartbeat | FeedbackKind::Wake);
        }
        let g = &mut self.gens[fb.generation as usize];
        match fb.kind {
            FeedbackKind::GenerationAck => {
                self.metrics.acks_received.inc();
                if !g.acked {
                    g.acked = true;
                    g.pending_nack = None;
                    self.open -= 1;
                    if g.retries >= self.recovery.max_retries {
                        self.spent -= 1;
                    }
                    if g.retries == 0 {
                        self.adaptive.on_clean();
                    } else {
                        self.metrics.generations_recovered.inc();
                    }
                }
            }
            FeedbackKind::RetransmitRequest => {
                // A NACK for a generation the fresh pass has not reached
                // yet says nothing about loss — ignore it entirely (it
                // must not burn this generation's retry budget).
                if fb.generation >= self.sent || g.acked {
                    return true;
                }
                self.metrics.nacks_received.inc();
                match g.pending_nack {
                    // The receiver re-arming a NACK the source has not
                    // answered yet is the same loss complaining again.
                    Some(want) => g.pending_nack = Some(want.max(fb.count)),
                    None => {
                        self.adaptive.on_loss(fb.count);
                        g.pending_nack = Some(fb.count);
                        self.nacked.push(fb.generation as usize);
                    }
                }
            }
            FeedbackKind::Heartbeat | FeedbackKind::Wake => {}
            // Congestion frames are consumed before the generation-bounds
            // guard above; the generation field carries a load percent here.
            FeedbackKind::Congestion => {
                unreachable!("congestion handled before the generation guard")
            }
        }
        true
    }

    /// When `generation`'s pending NACK may be answered; `None` if
    /// there is nothing (left) to answer — ACKed meanwhile, or out of
    /// retries.
    fn repair_gate(&self, generation: usize) -> Option<Instant> {
        let g = &self.gens[generation];
        (g.pending_nack.is_some() && g.retries < self.recovery.max_retries).then_some(g.next_retry)
    }

    /// Opens a repair round for `generation`: consumes its pending NACK
    /// and one retry, arms the backoff gate, and returns the burst size —
    /// the packets asked for, at the redundancy ratio a fresh generation
    /// carries.
    fn repair_round(&mut self, generation: usize, now: Instant) -> usize {
        let blocks = self.config.generation.blocks_per_generation();
        let g = &mut self.gens[generation];
        let want = usize::from(g.pending_nack.take().unwrap_or(0));
        let burst = self.adaptive.policy().repair_packets(want, blocks);
        g.retries += 1;
        if g.retries == self.recovery.max_retries {
            self.spent += 1;
        }
        // Exponential backoff: retry k waits base * 2^(k-1) before
        // honouring the next NACK for this generation.
        let backoff = self.recovery.backoff_base * (1u32 << (g.retries - 1).min(16));
        g.next_retry = now + backoff;
        self.metrics.backoff_ns.record(backoff.as_nanos() as u64);
        self.metrics.retransmit_rounds.inc();
        self.metrics.retransmit_packets.add(burst as u64);
        self.metrics
            .trace
            .push(TraceKind::RepairBurst, generation as u64, burst as u64);
        burst
    }
}

/// Streams `object` at `rate_bps` while answering receiver feedback,
/// until every generation is ACKed (or retries/idle budgets run out).
/// Feedback arrives on `socket` itself, so the caller binds it and tells
/// the receiver its address; the socket is handed back in blocking mode.
///
/// One loop does it all. Each turn drains queued feedback without
/// blocking, answers every NACK whose backoff gate has passed — repairs
/// interleave with fresh generations — emits the next generation when
/// the rate budget allows, and otherwise waits for the earliest of the
/// pacing deadline, a retry gate, the end of a congestion pause and the
/// idle deadline.
///
/// Everything the protocol does is recorded into `obs` (the
/// `recovery.*` and `rlnc.redundancy.*` metrics plus repair-burst trace
/// events); the returned [`RecoveryStats`] is the delta this call
/// contributed.
///
/// # Errors
///
/// Propagates socket errors from the data path (feedback I/O errors are
/// absorbed).
///
/// # Panics
///
/// Panics if `next_hops` is empty or `object` does not frame.
pub fn send_object_reliable<S: DatagramSocket>(
    socket: &S,
    config: &TransferConfig,
    recovery: &RecoveryConfig,
    object: &[u8],
    next_hops: &[SocketAddr],
    obs: &TransferObs,
) -> io::Result<RecoveryStats> {
    assert!(!next_hops.is_empty(), "need at least one next hop");
    let encoder =
        ObjectEncoder::new(config.generation, config.session, object).expect("valid object");
    let generations = encoder.generations();
    let blocks = config.generation.blocks_per_generation();
    let m = &obs.recovery;
    let before = recovery_counts(m);
    let mut src = Source::new(config, recovery, m, generations);
    let wire_bytes = config.generation.packet_len() + 28;
    let mut wire = Wire {
        socket,
        encoder: &encoder,
        next_hops,
        metrics: m,
        rng: StdRng::seed_from_u64(config.seed),
        pool: PayloadPool::new(),
        batch: SendBatch::new(),
        gap: Duration::from_secs_f64(wire_bytes as f64 * 8.0 / config.rate_bps),
        pace: Instant::now(),
        packets: 0,
    };
    let mut port = FeedbackPort::new(socket);
    // Fresh generations and feedback both count as signs of life.
    let mut last_activity = wire.pace;

    loop {
        let mut heard = false;
        while let Some(frame) = port.poll() {
            heard |= src.absorb(frame);
        }
        if src.finished() {
            break;
        }
        let now = Instant::now();
        if heard {
            last_activity = now;
        }
        let idle_deadline = last_activity + recovery.idle_timeout;
        let mut wake = idle_deadline;
        let mut emitted = false;
        if let Some(resume) = src.bp.paused_until(now) {
            // Backpressure holds fresh data and repairs alike: an
            // overloaded relay gains nothing from packets it would shed.
            wake = wake.min(resume);
        } else {
            let mut kept = 0;
            for i in 0..src.nacked.len() {
                let g = src.nacked[i];
                let Some(gate) = src.repair_gate(g) else {
                    continue;
                };
                let due = gate.max(wire.pace);
                if due <= now {
                    let burst = src.repair_round(g, now);
                    wire.emit(g as u64, burst, due, now)?;
                    emitted = true;
                } else {
                    wake = wake.min(due);
                    src.nacked[kept] = g;
                    kept += 1;
                }
            }
            src.nacked.truncate(kept);
            if src.sent < generations {
                if wire.pace <= now {
                    let per_gen = src.adaptive.policy().packets_per_generation(blocks);
                    wire.emit(src.sent, per_gen, wire.pace, now)?;
                    m.initial_packets.add(per_gen as u64);
                    src.sent += 1;
                    last_activity = now;
                    emitted = true;
                } else {
                    wake = wake.min(wire.pace);
                }
            }
        }
        if emitted {
            continue;
        }
        if now >= idle_deadline {
            break; // receiver went silent
        }
        port.wait(wake);
    }
    m.unrecovered.add(src.open as u64);
    // Publish where the AIMD controller ended up (and peaked) as gauges.
    obs.rlnc.observe_redundancy(&src.adaptive);
    let mut stats = recovery_delta(&before, &recovery_counts(m));
    stats.peak_extra = src.adaptive.peak_extra().round() as u32;
    Ok(stats)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Counters from one reliable sliding-window stream (source side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSendStats {
    /// Systematic data packets sent (one per symbol, first pass).
    pub data_packets: u64,
    /// Coded repair packets sent answering NACK bursts from the live
    /// window.
    pub repair_packets: u64,
    /// Cumulative acks received.
    pub acks_received: u64,
    /// Acks carrying `repair_wanted > 0` (window NACKs) received.
    pub nacks_received: u64,
    /// Whether every symbol was acknowledged before the budgets ran out.
    pub completed: bool,
}

/// Streams `data` over a sliding window: each symbol goes out verbatim
/// (systematic, width-1), and receiver NACKs — [`WindowAck`] frames with
/// `repair_wanted > 0` — are answered with that many fresh random
/// combinations of exactly the *unacknowledged* symbols. Unlike
/// [`send_object_reliable`], loss never stalls a whole generation:
/// repair coverage tracks the live window as acks slide it forward.
///
/// Feedback arrives on `socket` itself — drained without blocking each
/// turn, waited for only when the window is full and nothing is queued —
/// and the socket is handed back in blocking mode; metrics land in `obs`
/// under the same `recovery.*` names as the generational protocol
/// (`initial_packets` = systematic pass, `retransmit_packets` = repair
/// bursts).
///
/// # Errors
///
/// Propagates socket errors from the data path.
///
/// # Panics
///
/// Panics if `next_hops` or `data` is empty.
pub fn send_window_reliable<S: DatagramSocket>(
    socket: &S,
    window: WindowConfig,
    session: SessionId,
    recovery: &RecoveryConfig,
    data: &[u8],
    next_hops: &[SocketAddr],
    obs: &TransferObs,
) -> io::Result<WindowSendStats> {
    assert!(!next_hops.is_empty(), "need at least one next hop");
    assert!(!data.is_empty(), "nothing to stream");
    let m = &obs.recovery;
    let mut enc = WindowEncoder::new(window, session);
    let mut rng = StdRng::seed_from_u64(0x5EED_u64 ^ u64::from(session.value()));
    let mut pool = PayloadPool::new();
    let mut batch = SendBatch::new();
    let mut stats = WindowSendStats::default();
    let mut chunks = data.chunks(window.symbol_size());
    let total = data.len().div_ceil(window.symbol_size()) as u64;
    let mut sent_all = false;
    let mut port = FeedbackPort::new(socket);
    let mut last_feedback = Instant::now();
    'stream: loop {
        // Fill the window and emit each new symbol systematically.
        batch.clear();
        while !sent_all && enc.live() < window.capacity() {
            let Some(chunk) = chunks.next() else {
                sent_all = true;
                break;
            };
            let idx = enc.push(chunk).expect("window has room");
            let pkt = enc
                .systematic_packet_pooled(idx, &mut pool)
                .expect("symbol is live");
            let hop = next_hops[(stats.data_packets as usize) % next_hops.len()];
            batch.push_wire(|w| pkt.write_into(w), &[hop]);
            pool.recycle(pkt);
            stats.data_packets += 1;
        }
        socket.send_batch(&batch)?;
        if sent_all && enc.live() == 0 {
            stats.completed = true;
            break;
        }
        // Absorb queued feedback: cumulative acks slide the window;
        // NACKs ask for repair bursts from whatever is still
        // unacknowledged.
        let mut heard = false;
        while let Some(frame) = port.poll() {
            if wire_kind(frame) != Some(WireKind::WindowAck) {
                continue;
            }
            let Ok(ack) = WindowAck::parse(frame) else {
                continue;
            };
            if ack.session != session {
                continue;
            }
            heard = true;
            stats.acks_received += 1;
            m.acks_received.inc();
            enc.handle_ack(ack.cumulative);
            if ack.cumulative >= total {
                stats.completed = true;
                break 'stream;
            }
            if ack.repair_wanted > 0 && enc.live() > 0 {
                stats.nacks_received += 1;
                m.nacks_received.inc();
                let burst = usize::from(ack.repair_wanted);
                batch.clear();
                for _ in 0..burst {
                    let pkt = enc
                        .coded_packet_pooled(&mut rng, &mut pool)
                        .expect("window is non-empty");
                    let hop = next_hops[(stats.repair_packets as usize) % next_hops.len()];
                    batch.push_wire(|w| pkt.write_into(w), &[hop]);
                    pool.recycle(pkt);
                    stats.repair_packets += 1;
                }
                let _ = socket.send_batch(&batch);
                m.retransmit_packets.add(burst as u64);
                m.retransmit_rounds.inc();
                m.trace
                    .push(TraceKind::RepairBurst, enc.base(), burst as u64);
            }
        }
        if heard {
            last_feedback = Instant::now();
            continue; // the window may have slid: refill before waiting
        }
        let idle_deadline = last_feedback + recovery.idle_timeout;
        if Instant::now() >= idle_deadline {
            break; // receiver went silent
        }
        port.wait(idle_deadline);
    }
    m.initial_packets.add(stats.data_packets);
    Ok(stats)
}

/// Outcome of a reliable sliding-window receive.
#[derive(Debug)]
pub struct WindowStreamReport {
    /// The delivered symbols, concatenated in order (zero-padded tail
    /// included — the stream layer does not know the original length).
    pub data: Vec<u8>,
    /// Data packets received (systematic + repair).
    pub packets: u64,
    /// Cumulative acks sent (including NACK-bearing ones).
    pub acks_sent: u64,
    /// Acks sent with `repair_wanted > 0`.
    pub nacks_sent: u64,
    /// Wall-clock duration until the last symbol was delivered.
    pub elapsed: Duration,
}

/// A background receiver for a sliding-window stream: delivers symbols
/// in order, acks cumulatively after every delivery, and NACKs gaps —
/// an ack with `repair_wanted` set to exactly the number of missing
/// symbols blocking the delivery cursor.
pub struct WindowStreamReceiver {
    /// The UDP address the receiver listens on.
    pub addr: SocketAddr,
    done: ChanReceiver<WindowStreamReport>,
    running: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl WindowStreamReceiver {
    /// Spawns a receiver expecting `total_symbols` in-order symbols,
    /// sending [`WindowAck`] frames to `source`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(
        window: WindowConfig,
        session: SessionId,
        total_symbols: u64,
        source: SocketAddr,
        obs: &TransferObs,
    ) -> io::Result<WindowStreamReceiver> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(Duration::from_millis(5)))?;
        let addr = socket.local_addr()?;
        let (tx, rx) = bounded(1);
        let running = Arc::new(AtomicBool::new(true));
        let run = Arc::clone(&running);
        let m = obs.recovery.clone();
        let nack_interval = Duration::from_millis(10);
        let thread = std::thread::spawn(move || {
            let mut dec = WindowDecoder::new(window);
            let mut data = Vec::new();
            let mut packets = 0u64;
            let mut acks_sent = 0u64;
            let mut nacks_sent = 0u64;
            // Highest absolute symbol index referenced by any packet —
            // the NACK sizing baseline: everything at or below it was
            // sent, so `undelivered - pending_rank` packets are missing.
            let mut max_seen: Option<u64> = None;
            let mut last_arrival: Option<Instant> = None;
            let mut last_nack: Option<Instant> = None;
            let start = Instant::now();
            let mut buf = vec![0u8; 65536];
            while run.load(Ordering::Relaxed) && dec.delivered() < total_symbols {
                match socket.recv_from(&mut buf) {
                    Ok((n, _)) => {
                        // A windowed packet carries its own width, so
                        // no generation size is needed to parse it.
                        let Ok(view) = PacketView::parse(&buf[..n], 0) else {
                            continue;
                        };
                        if view.kind() != WireKind::Window || view.session() != session {
                            continue;
                        }
                        packets += 1;
                        last_arrival = Some(Instant::now());
                        let top = view.index() + view.coefficients().len() as u64 - 1;
                        max_seen = Some(max_seen.map_or(top, |m: u64| m.max(top)));
                        let outcome =
                            dec.receive(view.index(), view.coefficients(), view.payload());
                        if let Ok(WindowOutcome::Delivered { payloads, .. }) = outcome {
                            for p in payloads {
                                data.extend_from_slice(&p);
                            }
                            let ack = WindowAck {
                                session,
                                cumulative: dec.delivered(),
                                repair_wanted: 0,
                            };
                            let _ = socket.send_to(&ack.encode(), source);
                            acks_sent += 1;
                            m.acks_sent.inc();
                        }
                    }
                    Err(ref e) if is_timeout(e) => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
                // NACK scan: a gap (undelivered symbols at or below the
                // highest index seen) that stalls past the decode
                // timeout asks for exactly the missing count.
                let now = Instant::now();
                let stalled = last_arrival
                    .is_some_and(|t| now.duration_since(t) >= Duration::from_millis(10));
                // Tail losses leave no trace in `max_seen`, so any stall
                // short of completion asks for at least one repair.
                let missing = max_seen
                    .map(|m| (m + 1 - dec.delivered()).saturating_sub(dec.pending_rank() as u64))
                    .unwrap_or(0)
                    .max(u64::from(stalled));
                if stalled
                    && missing > 0
                    && last_nack.is_none_or(|t| now.duration_since(t) >= nack_interval)
                {
                    let ack = WindowAck {
                        session,
                        cumulative: dec.delivered(),
                        repair_wanted: missing.min(255) as u8,
                    };
                    let _ = socket.send_to(&ack.encode(), source);
                    acks_sent += 1;
                    nacks_sent += 1;
                    m.nacks_sent.inc();
                    last_nack = Some(now);
                }
            }
            // Final ack so the source's window closes out; repeated a
            // few times because a dropped final ack would otherwise
            // leave the source waiting out its idle timeout.
            let ack = WindowAck {
                session,
                cumulative: dec.delivered(),
                repair_wanted: 0,
            };
            for _ in 0..3 {
                let _ = socket.send_to(&ack.encode(), source);
            }
            let _ = tx.send(WindowStreamReport {
                data,
                packets,
                acks_sent: acks_sent + 1,
                nacks_sent,
                elapsed: start.elapsed(),
            });
        });
        Ok(WindowStreamReceiver {
            addr,
            done: rx,
            running,
            thread: Some(thread),
        })
    }

    /// Waits up to `timeout` for the stream to finish.
    pub fn wait(mut self, timeout: Duration) -> Option<WindowStreamReport> {
        let report = self.done.recv_timeout(timeout).ok();
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        report
    }
}

/// Outcome of a reliable receive.
#[derive(Debug)]
pub struct ReliableReport {
    /// The decoded object (empty if incomplete at shutdown).
    pub object: Vec<u8>,
    /// Data packets received.
    pub packets: u64,
    /// Wall-clock duration until completion.
    pub elapsed: Duration,
    /// The receiver-side feedback counters.
    pub stats: RecoveryStats,
}

/// A background receiver that ACKs decoded generations and NACKs stalled
/// ones back to the source.
pub struct ReliableReceiver {
    /// The UDP address the receiver listens on.
    pub addr: SocketAddr,
    done: ChanReceiver<ReliableReport>,
    running: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReliableReceiver {
    /// Spawns a receiver expecting `generations` generations, sending
    /// feedback to `source`. Feedback counters, decode-progress metrics
    /// and `generation_decoded` trace events are recorded into `obs`;
    /// the report's [`RecoveryStats`] is this receiver's delta.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(
        config: &TransferConfig,
        recovery: &RecoveryConfig,
        generations: u64,
        source: SocketAddr,
        obs: &TransferObs,
    ) -> io::Result<ReliableReceiver> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        let addr = socket.local_addr()?;
        let (tx, rx) = bounded(1);
        let running = Arc::new(AtomicBool::new(true));
        let session = config.session;
        let generation = config.generation;
        let recovery = *recovery;
        let obs = obs.clone();
        let run = Arc::clone(&running);
        let thread = std::thread::spawn(move || {
            let blocks = generation.blocks_per_generation();
            let mut decoder = ObjectDecoder::new(generation, generations);
            let m = obs.recovery.clone();
            let before = recovery_counts(&m);
            // Packets that arrived per generation, reported into the
            // codec's decode histogram when the generation closes.
            let mut gen_packets = vec![0u64; generations as usize];
            let mut packets = 0u64;
            let start = Instant::now();
            // A generation's stall clock (`last_event`) runs once it is
            // below `started`: when a packet of it or of a later one has
            // arrived (in-order source ⇒ it was sent), or on a global
            // stall. Everything below `low` is decoded, so the per-packet
            // work walks only `low..started`.
            let mut last_event = vec![start; generations as usize];
            let mut last_nack: Vec<Option<Instant>> = vec![None; generations as usize];
            let mut acked = vec![false; generations as usize];
            let mut low = 0usize;
            let mut started = 0usize;
            let mut last_arrival: Option<Instant> = None;
            let mut buf = vec![0u8; 65536];
            while run.load(Ordering::Relaxed) {
                match socket.recv_from(&mut buf) {
                    Ok((n, _)) => {
                        if n > 0 && buf[0] == FEEDBACK_MAGIC {
                            continue; // stray feedback is not data
                        }
                        let Ok(pkt) = PacketView::parse(&buf[..n], blocks) else {
                            continue;
                        };
                        if pkt.session() != session {
                            continue;
                        }
                        let now = Instant::now();
                        packets += 1;
                        last_arrival = Some(now);
                        let gen = pkt.generation();
                        let innovative = matches!(
                            decoder.receive_view(pkt),
                            Ok(ncvnf_rlnc::ReceiveOutcome::Innovative { .. })
                        );
                        if gen < generations {
                            let gi = gen as usize;
                            // Everything up to the highest generation
                            // seen has been sent: start its stall clock.
                            if gi >= started {
                                last_event[started..=gi].fill(now);
                                started = gi + 1;
                            }
                            gen_packets[gi] += 1;
                            if innovative {
                                last_event[gi] = now;
                            }
                            if decoder.generation_complete(gen) && !acked[gi] {
                                acked[gi] = true;
                                let ack = Feedback::ack(session, gen).to_bytes();
                                let _ = socket.send_to(&ack, source);
                                m.acks_sent.inc();
                                obs.rlnc.record_generation_decoded(gen_packets[gi]);
                                m.trace
                                    .push(TraceKind::GenerationDecoded, gen, gen_packets[gi]);
                            }
                        }
                        if decoder.is_complete() {
                            let elapsed = start.elapsed();
                            // Completion burst: re-ACK everything so a
                            // lost ACK cannot leave the source retrying.
                            for g in 0..generations {
                                let ack = Feedback::ack(session, g).to_bytes();
                                let _ = socket.send_to(&ack, source);
                                m.acks_sent.inc();
                            }
                            let object = decoder.into_object().unwrap_or_default();
                            let _ = tx.send(ReliableReport {
                                object,
                                packets,
                                elapsed,
                                stats: recovery_delta(&before, &recovery_counts(&m)),
                            });
                            return;
                        }
                    }
                    Err(ref e) if is_timeout(e) => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
                // NACK scan. A global stall (nothing arriving at all —
                // e.g. a dead relay) makes every open generation
                // eligible, tail generations included.
                let now = Instant::now();
                if let Some(t) = last_arrival {
                    if now.duration_since(t) >= recovery.decode_timeout {
                        last_event[started..].fill(t);
                        started = generations as usize;
                    }
                }
                while low < started && decoder.generation_complete(low as u64) {
                    low += 1;
                }
                for g in low..started {
                    if decoder.generation_complete(g as u64) {
                        continue;
                    }
                    if now.duration_since(last_event[g]) < recovery.decode_timeout {
                        continue;
                    }
                    if last_nack[g].is_some_and(|t| now.duration_since(t) < recovery.nack_interval)
                    {
                        continue;
                    }
                    let missing = (blocks - decoder.generation_rank(g as u64).unwrap_or(0)) as u16;
                    let mut bitmap = 0u32;
                    for c in decoder.generation_missing_columns(g as u64) {
                        if c < 32 {
                            bitmap |= 1 << c;
                        }
                    }
                    let nack = Feedback::nack(session, g as u64, missing, bitmap).to_bytes();
                    let _ = socket.send_to(&nack, source);
                    m.nacks_sent.inc();
                    last_nack[g] = Some(now);
                }
            }
            // Shutdown without completion.
            let _ = tx.send(ReliableReport {
                object: Vec::new(),
                packets,
                elapsed: start.elapsed(),
                stats: recovery_delta(&before, &recovery_counts(&m)),
            });
        });
        Ok(ReliableReceiver {
            addr,
            done: rx,
            running,
            thread: Some(thread),
        })
    }

    /// Waits up to `timeout` for the transfer to finish.
    pub fn wait(mut self, timeout: Duration) -> Option<ReliableReport> {
        let report = self.done.recv_timeout(timeout).ok();
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        report
    }
}

/// Everything a chaos experiment wants to assert on afterwards.
#[derive(Debug)]
pub struct ReliableChainReport {
    /// The receiver's outcome (object, packet count, elapsed, feedback
    /// counters).
    pub receiver: ReliableReport,
    /// The source's recovery counters.
    pub source: RecoveryStats,
    /// Per-relay counters, chain order.
    pub relays: Vec<RelayStats>,
    /// Per-relay fault-injection counters (`None` for clean relays),
    /// chain order.
    pub faults: Vec<Option<FaultStats>>,
    /// Observability snapshot of the shared endpoint registry (source +
    /// receiver `recovery.*`/`rlnc.*` metrics and trace events).
    pub snapshot: Snapshot,
}

/// Builds a source → relays → receiver pipeline where relay `i`'s data
/// socket is wrapped in a [`FaultSocket`] when `faults[i]` is set, runs
/// a *reliable* transfer of `object`, and returns the combined report
/// (`None` if the receiver timed out).
///
/// Relays are configured over their control channel exactly like
/// [`crate::chain`]; feedback flows receiver → source directly.
///
/// # Errors
///
/// Propagates socket errors.
///
/// # Panics
///
/// Panics if `object` does not frame.
pub fn reliable_chain(
    config: &TransferConfig,
    recovery: &RecoveryConfig,
    object: &[u8],
    faults: &[Option<FaultConfig>],
    timeout: Duration,
) -> io::Result<Option<ReliableChainReport>> {
    let encoder =
        ObjectEncoder::new(config.generation, config.session, object).expect("valid object");
    let source_socket = UdpSocket::bind(("127.0.0.1", 0))?;
    let source_addr = source_socket.local_addr()?;
    // Both endpoints record into one registry: the chain snapshot is the
    // single source of truth for the transfer's recovery/codec metrics.
    let obs = TransferObs::new();
    let receiver =
        ReliableReceiver::spawn(config, recovery, encoder.generations(), source_addr, &obs)?;

    let mut relays = Vec::new();
    let mut fault_handles = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        let relay_config = RelayConfig {
            generation: config.generation,
            buffer_generations: 1024,
            seed: config.seed + 100 + i as u64,
            heartbeat: None,
            registry: None,
            ..RelayConfig::default()
        };
        let control_socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let relay = match fault {
            Some(fc) => {
                let (data_socket, handle) = FaultSocket::bind_loopback(*fc)?;
                fault_handles.push(Some(handle));
                RelayNode::spawn_with(relay_config, data_socket, control_socket)?
            }
            None => {
                fault_handles.push(None);
                let data_socket = UdpSocket::bind(("127.0.0.1", 0))?;
                RelayNode::spawn_with(relay_config, data_socket, control_socket)?
            }
        };
        relays.push(relay);
    }

    // Wire the chain back to front over the control channel.
    let control = UdpSocket::bind(("127.0.0.1", 0))?;
    control.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut ack = [0u8; 16];
    for i in 0..relays.len() {
        let next = if i + 1 < relays.len() {
            relays[i + 1].data_addr
        } else {
            receiver.addr
        };
        let settings = Signal::NcSettings {
            session: config.session,
            role: VnfRoleWire::Recoder,
            data_port: relays[i].data_addr.port(),
            block_size: config.generation.block_size() as u32,
            generation_size: config.generation.blocks_per_generation() as u32,
            buffer_generations: 1024,
        };
        control.send_to(&settings.to_bytes(), relays[i].control_addr)?;
        let _ = control.recv_from(&mut ack);
        let mut table = ForwardingTable::new();
        table.set(config.session, vec![next.to_string()]);
        let sig = Signal::NcForwardTab {
            table: table.to_text(),
        };
        control.send_to(&sig.to_bytes(), relays[i].control_addr)?;
        let _ = control.recv_from(&mut ack);
    }

    let first_hop = if relays.is_empty() {
        receiver.addr
    } else {
        relays[0].data_addr
    };
    let source =
        send_object_reliable(&source_socket, config, recovery, object, &[first_hop], &obs)?;
    let report = receiver.wait(timeout);
    let relay_stats: Vec<RelayStats> = relays.iter().map(|r| r.handle().stats()).collect();
    let fault_stats: Vec<Option<FaultStats>> = fault_handles
        .iter()
        .map(|h| h.as_ref().map(|h| h.stats()))
        .collect();
    for r in relays {
        r.shutdown();
    }
    let snapshot = obs.snapshot();
    Ok(report.map(|receiver| ReliableChainReport {
        receiver,
        source,
        relays: relay_stats,
        faults: fault_stats,
        snapshot,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_rlnc::{GenerationConfig, RedundancyPolicy, SessionId};

    fn config() -> TransferConfig {
        TransferConfig {
            session: SessionId::new(4),
            generation: GenerationConfig::new(128, 4).unwrap(),
            redundancy: RedundancyPolicy::NC0,
            rate_bps: 200e6,
            seed: 21,
        }
    }

    fn recovery() -> RecoveryConfig {
        RecoveryConfig {
            decode_timeout: Duration::from_millis(30),
            nack_interval: Duration::from_millis(30),
            backoff_base: Duration::from_millis(10),
            ..RecoveryConfig::default()
        }
    }

    #[test]
    fn congestion_feedback_halves_redundancy_and_pauses() {
        let cfg = config();
        let rec = recovery();
        let obs = TransferObs::new();
        let m = RecoveryMetrics::register(obs.registry());
        let mut src = Source::new(&cfg, &rec, &m, 4);
        src.sent = 4;
        for _ in 0..6 {
            src.adaptive.on_loss(3); // pump extra redundancy above the floor
        }
        let before = src.adaptive.current_extra();

        // Relay reports 200% load for our session: multiplicative
        // decrease plus a pause window at the 2.0x clamp point.
        let frame = Feedback::congestion(cfg.session, 200, 7, 40).to_bytes();
        assert!(src.absorb(&frame));
        assert!(
            src.adaptive.current_extra() < before,
            "congestion is a multiplicative decrease: {} -> {}",
            before,
            src.adaptive.current_extra()
        );
        assert!(
            src.bp.paused_until(Instant::now()).is_some(),
            "pause window armed"
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.congestion_events"), Some(1));
        assert_eq!(snap.gauge("recovery.congestion_window"), Some(200.0));

        // Session 0 is the unattributed wildcard: also honoured.
        let wild = Feedback::congestion(SessionId::new(0), 120, 1, 41).to_bytes();
        assert!(src.absorb(&wild));
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);

        // A congestion frame for some other session is ignored: no
        // decrease, no pause extension, no event.
        let other = Feedback::congestion(SessionId::new(99), 400, 9, 90).to_bytes();
        let extra = src.adaptive.current_extra();
        assert!(!src.absorb(&other));
        assert_eq!(src.adaptive.current_extra(), extra);
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);
    }

    fn snap_counter(obs: &TransferObs, name: &str) -> u64 {
        obs.snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn backpressure_window_extends_and_expires() {
        let mut bp = Backpressure::default();
        assert!(bp.paused_until(Instant::now()).is_none(), "starts unpaused");
        bp.pause_for(Duration::from_millis(50));
        bp.pause_for(Duration::from_millis(5)); // shorter: must not shrink
        let now = Instant::now();
        assert!(bp.paused_until(now).is_some());
        assert!(
            bp.paused_until(now + Duration::from_millis(20)).is_some(),
            "50ms window survives a later 5ms report"
        );
        let later = now + Duration::from_millis(60);
        assert!(bp.paused_until(later).is_none(), "expires");
        assert!(
            bp.paused_until(later).is_none(),
            "expired window is cleared, not re-armed"
        );
    }

    #[test]
    fn aimd_counts_repair_rounds_not_complaints() {
        let cfg = config();
        let rec = recovery();
        let m = RecoveryMetrics::register(TransferObs::new().registry());
        let nack = Feedback::nack(cfg.session, 0, 1, 0).to_bytes();
        let sent_source = || {
            let mut src = Source::new(&cfg, &rec, &m, 2);
            src.sent = 2;
            src
        };

        let mut once = sent_source();
        assert!(once.absorb(&nack));
        let one_loss = once.adaptive.current_extra();
        assert!(one_loss > 0.0);

        // The receiver re-arming its NACK before the source has answered
        // is the same loss complaining again: it raises nothing.
        let mut many = sent_source();
        for _ in 0..5 {
            assert!(many.absorb(&nack));
        }
        assert_eq!(many.adaptive.current_extra(), one_loss);
        assert_eq!(many.nacked, vec![0], "one repair round queued");

        // Once the repair round has gone out, a NACK is a new loss.
        many.repair_round(0, Instant::now());
        assert!(many.absorb(&nack));
        assert_eq!(many.adaptive.current_extra(), 2.0 * one_loss);

        // A repair burst carries the redundancy ratio of a fresh
        // generation, not the whole extra on top of what was asked for.
        let mut high = sent_source();
        for _ in 0..8 {
            high.adaptive.on_loss(4);
        }
        assert_eq!(high.adaptive.policy().extra(), 8);
        high.gens[0].pending_nack = Some(1);
        assert_eq!(high.repair_round(0, Instant::now()), 3, "1 x (1 + 8/4)");
    }

    /// A feedback frame of a [`ScriptedSocket`]: pollable once `after`
    /// datagrams have left (`None`: never — only a park delivers it).
    type Scripted = (Option<usize>, Feedback);

    /// A socket with no network and no clock: sends go into a log, and
    /// scripted feedback frames come out in order — by a non-blocking
    /// poll once their point in the send log is reached, or by the next
    /// blocking receive (a park: "time passes until the frame arrives").
    struct ScriptedSocket {
        state: parking_lot::Mutex<ScriptState>,
    }

    #[derive(Default)]
    struct ScriptState {
        sent: Vec<Vec<u8>>,
        feedback: std::collections::VecDeque<Scripted>,
        /// Length of the send log at each blocking receive.
        parks: Vec<usize>,
        read_timeout: Option<Duration>,
    }

    impl ScriptedSocket {
        fn deliver(frame: &Feedback, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            let bytes = frame.to_bytes();
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok((bytes.len(), ([127, 0, 0, 1], 9).into()))
        }
    }

    impl DatagramSocket for ScriptedSocket {
        fn send_to(&self, buf: &[u8], _addr: SocketAddr) -> io::Result<usize> {
            self.state.lock().sent.push(buf.to_vec());
            Ok(buf.len())
        }

        fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            let mut st = self.state.lock();
            let at = st.sent.len();
            st.parks.push(at);
            assert!(st.read_timeout.is_some(), "a park is always bounded");
            let (_, frame) = st
                .feedback
                .pop_front()
                .expect("the source parked with nothing left to arrive");
            Self::deliver(&frame, buf)
        }

        fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            let mut st = self.state.lock();
            let sent = st.sent.len();
            match st.feedback.front() {
                Some((Some(after), _)) if *after <= sent => {
                    let (_, frame) = st.feedback.pop_front().expect("front exists");
                    Self::deliver(&frame, buf)
                }
                _ => Err(io::ErrorKind::WouldBlock.into()),
            }
        }

        fn local_addr(&self) -> io::Result<SocketAddr> {
            Ok(([127, 0, 0, 1], 8).into())
        }

        fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
            self.state.lock().read_timeout = dur;
            Ok(())
        }
    }

    /// Runs the source over a three-generation object against `script`
    /// at a rate so high that every generation is due the moment the
    /// previous one left. Returns the generation of each datagram sent,
    /// the source's counters and the socket's final state.
    fn run_scripted(
        rec: &RecoveryConfig,
        script: Vec<Scripted>,
    ) -> (Vec<u64>, RecoveryStats, ScriptState) {
        let cfg = TransferConfig {
            rate_bps: 1e15,
            ..config()
        };
        let object = vec![7u8; 3 * 4 * 128 - 8];
        let socket = ScriptedSocket {
            state: parking_lot::Mutex::new(ScriptState {
                feedback: script.into(),
                ..ScriptState::default()
            }),
        };
        let hops = [([127, 0, 0, 1], 9).into()];
        let stats =
            send_object_reliable(&socket, &cfg, rec, &object, &hops, &TransferObs::new()).unwrap();
        let state = socket.state.into_inner();
        let log = state
            .sent
            .iter()
            .map(|d| PacketView::parse(d, 4).expect("data packet").generation())
            .collect();
        (log, stats, state)
    }

    #[test]
    fn source_loop_orders_events_without_a_clock() {
        let session = config().session;
        let ack = |g| Feedback::ack(session, g);
        let nack = |g| Feedback::nack(session, g, 1, 0);
        let rec = RecoveryConfig {
            backoff_base: Duration::from_secs(3600),
            ..recovery()
        };

        // (a) A NACK for generation 0 that lands once generation 1 has
        // left is answered before generation 2 leaves. The loss raised
        // the redundancy to NC1: a 2-packet burst, a 5-packet generation.
        let script = vec![
            (Some(8), nack(0)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let (log, stats, state) = run_scripted(&rec, script);
        assert_eq!(log, [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 2, 2, 2, 2, 2]);
        assert_eq!((stats.retransmit_rounds, stats.retransmit_packets), (1, 2));
        assert_eq!((stats.generations_recovered, stats.unrecovered), (1, 0));
        // (b) It parked only for the ACKs, with nothing left to send.
        assert_eq!(state.parks, [15, 15, 15]);
        // (e) The caller's socket comes back in blocking mode.
        assert_eq!(state.read_timeout, None);

        // (c) An ACK that arrives before a repair is due cancels it:
        // the second NACK waits out an hour of backoff, the ACK lands
        // while the source is parked, and no second burst ever leaves.
        // (Coming after a repair round, that NACK is a second loss: NC2.)
        let script = vec![
            (Some(4), nack(0)),
            (Some(6), nack(0)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let (log, stats, state) = run_scripted(&rec, script);
        assert_eq!(log, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
        assert_eq!((stats.nacks_received, stats.retransmit_rounds), (2, 1));
        assert_eq!((stats.peak_extra, stats.unrecovered), (2, 0));
        assert_eq!(state.parks, [17, 17, 17]);

        // (d) A NACK for a generation that has not left yet says nothing
        // about loss: no burst, no retry burnt, no redundancy raised.
        let script = vec![
            (Some(4), nack(2)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let (log, stats, state) = run_scripted(&rec, script);
        assert_eq!(log, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!((stats.nacks_received, stats.retransmit_rounds), (0, 0));
        assert_eq!((stats.peak_extra, stats.unrecovered), (0, 0));
        assert_eq!(state.read_timeout, None);
    }

    #[test]
    fn clean_direct_transfer_needs_no_recovery() {
        let cfg = config();
        let rec = recovery();
        let object: Vec<u8> = (0..4096u32).map(|i| (i % 255) as u8).collect();
        let encoder = ObjectEncoder::new(cfg.generation, cfg.session, &object).unwrap();
        let source_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let obs = TransferObs::new();
        let receiver = ReliableReceiver::spawn(
            &cfg,
            &rec,
            encoder.generations(),
            source_socket.local_addr().unwrap(),
            &obs,
        )
        .unwrap();
        let hops = [receiver.addr];
        let stats = send_object_reliable(&source_socket, &cfg, &rec, &object, &hops, &obs).unwrap();
        let report = receiver.wait(Duration::from_secs(10)).expect("completes");
        assert_eq!(report.object, object, "byte-identical");
        assert_eq!(stats.unrecovered, 0);
        assert_eq!(stats.retransmit_packets, 0, "clean path: no retransmits");
        assert_eq!(report.stats.nacks_sent, 0, "clean path: no NACKs");
        assert!(stats.acks_received > 0, "ACKs close out generations");
        // The registry saw the same protocol the structs report.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.retransmit_packets"), Some(0));
        assert_eq!(
            snap.counter("recovery.acks_received"),
            Some(stats.acks_received)
        );
        assert_eq!(
            snap.counter("rlnc.decode.generations"),
            Some(encoder.generations())
        );
    }

    #[test]
    fn lossy_source_egress_recovers_via_nacks() {
        let cfg = config();
        let rec = recovery();
        let object: Vec<u8> = (0..6000u32).map(|i| (i * 7 % 253) as u8).collect();
        let encoder = ObjectEncoder::new(cfg.generation, cfg.session, &object).unwrap();
        // 25% egress loss on the source's own socket: recovery must carry
        // the transfer without any relay in the path.
        let (source_socket, fault) =
            FaultSocket::bind_loopback(FaultConfig::new(0xBEEF).with_drop(0.25)).unwrap();
        let obs = TransferObs::new();
        let receiver = ReliableReceiver::spawn(
            &cfg,
            &rec,
            encoder.generations(),
            source_socket.local_addr().unwrap(),
            &obs,
        )
        .unwrap();
        let hops = [receiver.addr];
        let stats = send_object_reliable(&source_socket, &cfg, &rec, &object, &hops, &obs).unwrap();
        let report = receiver.wait(Duration::from_secs(30)).expect("completes");
        assert_eq!(report.object, object, "byte-identical despite loss");
        assert_eq!(stats.unrecovered, 0);
        assert!(fault.stats().dropped > 0, "faults actually fired");
        assert!(report.stats.nacks_sent > 0, "receiver NACKed stalls");
        assert!(stats.retransmit_packets > 0, "source retransmitted");
        assert!(
            stats.generations_recovered > 0,
            "recovered generations are counted"
        );
        // Repair activity left its trail in the registry: backoff
        // timings and repair-burst trace events.
        let snap = obs.snapshot();
        assert!(snap.histogram("recovery.backoff_ns").unwrap().count > 0);
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == ncvnf_obs::TraceKind::RepairBurst));
    }

    #[test]
    fn lossy_window_stream_recovers_via_repair_bursts() {
        let window = WindowConfig::new(128, 8).unwrap();
        let session = SessionId::new(9);
        let rec = recovery();
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 11 % 251) as u8).collect();
        let total = data.len().div_ceil(window.symbol_size()) as u64;
        // 25% egress loss on the source's own socket: the stream must
        // heal from NACK-driven repair bursts over the live window.
        let (source_socket, fault) =
            FaultSocket::bind_loopback(FaultConfig::new(0xD00F).with_drop(0.25)).unwrap();
        let obs = TransferObs::new();
        let receiver = WindowStreamReceiver::spawn(
            window,
            session,
            total,
            source_socket.local_addr().unwrap(),
            &obs,
        )
        .unwrap();
        let hops = [receiver.addr];
        let stats = send_window_reliable(&source_socket, window, session, &rec, &data, &hops, &obs)
            .unwrap();
        let report = receiver.wait(Duration::from_secs(30)).expect("completes");
        assert_eq!(report.data, data, "byte-identical in-order delivery");
        assert!(stats.completed, "source saw the stream acknowledged");
        assert_eq!(stats.data_packets, total);
        assert!(fault.stats().dropped > 0, "faults actually fired");
        assert!(report.nacks_sent > 0, "receiver NACKed stalls");
        assert!(stats.repair_packets > 0, "repairs answered from the window");
        let snap = obs.snapshot();
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == ncvnf_obs::TraceKind::RepairBurst));
    }

    #[test]
    fn clean_window_stream_is_pure_systematic() {
        let window = WindowConfig::new(64, 4).unwrap();
        let session = SessionId::new(10);
        let rec = recovery();
        let data: Vec<u8> = (0..640u32).map(|i| (i % 241) as u8).collect();
        let total = data.len().div_ceil(window.symbol_size()) as u64;
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let obs = TransferObs::new();
        let receiver =
            WindowStreamReceiver::spawn(window, session, total, socket.local_addr().unwrap(), &obs)
                .unwrap();
        let hops = [receiver.addr];
        let stats =
            send_window_reliable(&socket, window, session, &rec, &data, &hops, &obs).unwrap();
        let report = receiver.wait(Duration::from_secs(10)).expect("completes");
        assert_eq!(report.data, data);
        assert!(stats.completed);
        assert_eq!(
            stats.data_packets, total,
            "one systematic packet per symbol"
        );
        assert_eq!(stats.repair_packets, 0, "no loss, no repairs");
    }

    #[test]
    fn health_record_derives_from_transfer_snapshot() {
        use ncvnf_control::telemetry::DataplaneHealth;
        let obs = TransferObs::new();
        obs.recovery.nacks_sent.add(3);
        obs.recovery.retransmit_packets.add(9);
        obs.recovery.generations_recovered.add(2);
        let health = DataplaneHealth::from_snapshot(&obs.snapshot());
        assert_eq!(health.nacks_sent, 3);
        assert_eq!(health.retransmit_packets, 9);
        assert_eq!(health.generations_recovered, 2);
    }
}
