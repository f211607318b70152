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
//! * the source ([`send_object_reliable`]) answers NACKs with *fresh*
//!   random combinations (innovative with overwhelming probability, so
//!   it never needs to know which packets were lost), under bounded
//!   retries with exponential backoff per generation;
//! * an [`AdaptiveRedundancy`] AIMD controller raises the per-generation
//!   redundancy while NACKs arrive and decays it once the path is clean,
//!   replacing the static NCr choice on the live path.
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
    wire_kind, AdaptiveRedundancy, AimdConfig, CodedPacket, ObjectDecoder, ObjectEncoder,
    PacketView, PayloadPool, SessionId, WindowAck, WireKind,
};

use crate::chaos::{FaultConfig, FaultSocket, FaultStats};
use crate::metrics::{RecoveryMetrics, TransferObs};
use crate::node::{RelayConfig, RelayNode, RelayStats};
use crate::socket::DatagramSocket;
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
    /// Source: abandon the repair loop after this long without any
    /// feedback (receiver death must not hang the source forever).
    pub idle_timeout: Duration,
    /// Source: base pause imposed by one `Congestion` frame, scaled by
    /// the reported load percent (0.5×–4×). Both the paced pass and the
    /// repair bursts hold off until the pause expires.
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
    /// Coded packets sent in the initial paced pass (source).
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

    /// True while sends should hold off; clears the window once it
    /// expires.
    fn paused(&mut self, now: Instant) -> bool {
        match self.pause_until {
            Some(t) if now < t => true,
            Some(_) => {
                self.pause_until = None;
                false
            }
            None => false,
        }
    }

    /// Sleeps out whatever remains of the pause window.
    fn wait_out(&mut self) {
        if let Some(t) = self.pause_until.take() {
            let now = Instant::now();
            if t > now {
                std::thread::sleep(t - now);
            }
        }
    }
}

/// Per-generation bookkeeping on the source side.
struct GenState {
    acked: bool,
    /// Packets requested by the latest unanswered NACK.
    pending_nack: Option<u16>,
    retries: u32,
    /// Earliest instant another NACK will be honoured (backoff gate).
    next_retry: Instant,
}

/// Streams `object` like [`crate::send_object`], then keeps answering
/// receiver feedback until every generation is ACKed (or retries/idle
/// budgets run out). Feedback arrives on `socket` itself, so the caller
/// binds it and tells the receiver its address.
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
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut adaptive = AdaptiveRedundancy::from_policy(config.redundancy, recovery.aimd);
    let m = obs.recovery.clone();
    let before = recovery_counts(&m);
    let now = Instant::now();
    let mut gens: Vec<GenState> = (0..generations)
        .map(|_| GenState {
            acked: false,
            pending_nack: None,
            retries: 0,
            next_retry: now,
        })
        .collect();

    let blocks = config.generation.blocks_per_generation();
    let wire_bytes = config.generation.packet_len() + 28;
    let gap = Duration::from_secs_f64(wire_bytes as f64 * 8.0 / config.rate_bps);
    socket.set_read_timeout(Some(Duration::from_millis(1)))?;

    // Initial paced pass, draining feedback between generations so early
    // ACKs shrink the redundancy (and Congestion frames pause the
    // burst) while the transfer is still going.
    let mut bp = Backpressure::default();
    let start = Instant::now();
    let mut sent = 0u64;
    for g in 0..generations {
        bp.wait_out();
        let per_gen = adaptive.policy().packets_per_generation(blocks);
        for _ in 0..per_gen {
            let pkt = encoder.coded_packet(g, &mut rng);
            let hop = next_hops[(sent as usize) % next_hops.len()];
            socket.send_to(&pkt.to_bytes(), hop)?;
            sent += 1;
            let target = gap * (sent as u32);
            let elapsed = start.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        drain_feedback(
            socket,
            config,
            recovery,
            g + 1,
            &mut gens,
            &mut adaptive,
            &mut bp,
            &m,
        );
    }
    m.initial_packets.add(sent);

    // Repair loop: honour NACKs with fresh combinations until everything
    // is ACKed or the budgets run out.
    socket.set_read_timeout(Some(Duration::from_millis(5)))?;
    let mut last_feedback = Instant::now();
    let mut retransmitted = 0u64;
    let mut buf = [0u8; 64];
    while gens.iter().any(|g| !g.acked) {
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                if absorb_feedback(
                    &buf[..n],
                    config,
                    recovery,
                    generations,
                    &mut gens,
                    &mut adaptive,
                    &mut bp,
                    &m,
                ) {
                    last_feedback = Instant::now();
                }
            }
            Err(ref e) if is_timeout(e) => {}
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
        let now = Instant::now();
        // Backpressure holds the repair bursts too: an overloaded relay
        // gains nothing from retransmissions it would shed.
        let paused = bp.paused(now);
        let mut progress_possible = false;
        for (g, st) in gens.iter_mut().enumerate() {
            if st.acked {
                continue;
            }
            if st.retries < recovery.max_retries {
                progress_possible = true;
            }
            if paused
                || st.pending_nack.is_none()
                || st.retries >= recovery.max_retries
                || now < st.next_retry
            {
                continue;
            }
            let want = st.pending_nack.take().expect("checked above") as usize;
            let burst = want.max(1) + adaptive.policy().extra() as usize;
            for _ in 0..burst {
                let pkt = encoder.coded_packet(g as u64, &mut rng);
                let hop = next_hops[(retransmitted as usize) % next_hops.len()];
                let _ = socket.send_to(&pkt.to_bytes(), hop);
                retransmitted += 1;
            }
            m.retransmit_packets.add(burst as u64);
            m.trace.push(TraceKind::RepairBurst, g as u64, burst as u64);
            st.retries += 1;
            m.retransmit_rounds.inc();
            // Exponential backoff: retry k waits base * 2^(k-1) before
            // honouring the next NACK for this generation.
            let shift = (st.retries - 1).min(16);
            let backoff = recovery.backoff_base * (1u32 << shift);
            m.backoff_ns.record(backoff.as_nanos() as u64);
            st.next_retry = now + backoff;
        }
        if !progress_possible && gens.iter().all(|g| g.pending_nack.is_none()) {
            break; // every open generation has exhausted its retries
        }
        if last_feedback.elapsed() >= recovery.idle_timeout {
            break; // receiver went silent
        }
    }
    m.unrecovered
        .add(gens.iter().filter(|g| !g.acked).count() as u64);
    // Publish where the AIMD controller ended up (and peaked) as gauges.
    obs.rlnc.observe_redundancy(&adaptive);
    let mut stats = recovery_delta(&before, &recovery_counts(&m));
    stats.peak_extra = adaptive.peak_extra().round() as u32;
    Ok(stats)
}

/// Non-blocking-ish drain of queued feedback during the initial pass.
#[allow(clippy::too_many_arguments)]
fn drain_feedback<S: DatagramSocket>(
    socket: &S,
    config: &TransferConfig,
    recovery: &RecoveryConfig,
    gens_sent: u64,
    gens: &mut [GenState],
    adaptive: &mut AdaptiveRedundancy,
    bp: &mut Backpressure,
    metrics: &RecoveryMetrics,
) {
    let mut buf = [0u8; 64];
    while let Ok((n, _)) = socket.recv_from(&mut buf) {
        absorb_feedback(
            &buf[..n],
            config,
            recovery,
            gens_sent,
            gens,
            adaptive,
            bp,
            metrics,
        );
    }
}

/// Applies one feedback frame to the source state. Returns true if the
/// frame was valid feedback for this session.
#[allow(clippy::too_many_arguments)]
fn absorb_feedback(
    frame: &[u8],
    config: &TransferConfig,
    recovery: &RecoveryConfig,
    gens_sent: u64,
    gens: &mut [GenState],
    adaptive: &mut AdaptiveRedundancy,
    bp: &mut Backpressure,
    metrics: &RecoveryMetrics,
) -> bool {
    let Ok(fb) = Feedback::from_bytes(frame) else {
        return false;
    };
    if fb.kind == FeedbackKind::Congestion {
        // Handled before the generation guard: a Congestion frame's
        // generation field carries the reporter's load percent, not a
        // generation index. Session 0 is the wildcard for sheds the
        // relay could not attribute.
        if fb.session != config.session && fb.session.value() != 0 {
            return false;
        }
        // Multiplicative decrease plus a send pause scaled by how
        // overloaded the reporter says it is.
        adaptive.on_congestion();
        let scale = (f64::from(fb.load_pct()) / 100.0).clamp(0.5, 4.0);
        let pause = recovery.congestion_pause.mul_f64(scale);
        bp.pause_for(pause);
        metrics.congestion_events.inc();
        metrics.congestion_window.set(f64::from(fb.load_pct()));
        metrics.backpressure_ns.record(pause.as_nanos() as u64);
        return true;
    }
    if fb.session != config.session || fb.generation >= gens.len() as u64 {
        // Heartbeats and wake requests address the controller, not this
        // source; consume them without treating them as recovery state.
        return matches!(fb.kind, FeedbackKind::Heartbeat | FeedbackKind::Wake);
    }
    let g = &mut gens[fb.generation as usize];
    match fb.kind {
        FeedbackKind::GenerationAck => {
            metrics.acks_received.inc();
            if !g.acked {
                g.acked = true;
                g.pending_nack = None;
                if g.retries == 0 {
                    adaptive.on_clean();
                } else {
                    metrics.generations_recovered.inc();
                }
            }
            true
        }
        FeedbackKind::RetransmitRequest => {
            // A NACK for a generation the initial pass has not reached
            // yet says nothing about loss — ignore it entirely (it must
            // not burn this generation's retry budget).
            if fb.generation >= gens_sent || g.acked {
                return true;
            }
            metrics.nacks_received.inc();
            adaptive.on_loss(fb.count);
            g.pending_nack = Some(g.pending_nack.unwrap_or(0).max(fb.count));
            true
        }
        FeedbackKind::Heartbeat | FeedbackKind::Wake => true,
        // Congestion frames are consumed before the generation-bounds
        // guard above; the generation field carries a load percent here.
        FeedbackKind::Congestion => unreachable!("congestion handled before the generation guard"),
    }
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
/// Feedback arrives on `socket` itself; metrics land in `obs` under the
/// same `recovery.*` names as the generational protocol
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
    let m = obs.recovery.clone();
    let mut enc = WindowEncoder::new(window, session);
    let mut rng = StdRng::seed_from_u64(0x5EED_u64 ^ u64::from(session.value()));
    let mut pool = PayloadPool::new();
    let mut stats = WindowSendStats::default();
    let mut chunks = data.chunks(window.symbol_size());
    let total = data.len().div_ceil(window.symbol_size()) as u64;
    let mut sent_all = false;
    let mut last_feedback = Instant::now();
    let mut buf = [0u8; 64];
    socket.set_read_timeout(Some(Duration::from_millis(1)))?;
    loop {
        // Fill the window and emit each new symbol systematically.
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
            socket.send_to(&pkt.to_bytes(), hop)?;
            stats.data_packets += 1;
        }
        if sent_all && enc.live() == 0 {
            stats.completed = true;
            break;
        }
        // Drain feedback: cumulative acks slide the window; NACKs ask
        // for repair bursts from whatever is still unacknowledged.
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                if wire_kind(&buf[..n]) == Some(WireKind::WindowAck) {
                    if let Ok(ack) = WindowAck::parse(&buf[..n]) {
                        if ack.session == session {
                            last_feedback = Instant::now();
                            stats.acks_received += 1;
                            m.acks_received.inc();
                            enc.handle_ack(ack.cumulative);
                            if ack.cumulative >= total {
                                stats.completed = true;
                                break;
                            }
                            if ack.repair_wanted > 0 && enc.live() > 0 {
                                stats.nacks_received += 1;
                                m.nacks_received.inc();
                                let burst = usize::from(ack.repair_wanted);
                                for _ in 0..burst {
                                    let pkt = enc
                                        .coded_packet_pooled(&mut rng, &mut pool)
                                        .expect("window is non-empty");
                                    let hop = next_hops
                                        [(stats.repair_packets as usize) % next_hops.len()];
                                    let _ = socket.send_to(&pkt.to_bytes(), hop);
                                    stats.repair_packets += 1;
                                }
                                m.retransmit_packets.add(burst as u64);
                                m.retransmit_rounds.inc();
                                m.trace
                                    .push(TraceKind::RepairBurst, enc.base(), burst as u64);
                            }
                        }
                    }
                }
            }
            Err(ref e) if is_timeout(e) => {}
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
        if last_feedback.elapsed() >= recovery.idle_timeout {
            break; // receiver went silent
        }
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
            // A generation becomes NACK-eligible once its `last_event`
            // is set: on its first packet, when a later generation is
            // seen (in-order source ⇒ it was sent), or on a global
            // stall.
            let mut last_event: Vec<Option<Instant>> = vec![None; generations as usize];
            let mut last_nack: Vec<Option<Instant>> = vec![None; generations as usize];
            let mut acked = vec![false; generations as usize];
            let mut last_arrival: Option<Instant> = None;
            let mut buf = vec![0u8; 65536];
            while run.load(Ordering::Relaxed) {
                match socket.recv_from(&mut buf) {
                    Ok((n, _)) => {
                        if n > 0 && buf[0] == FEEDBACK_MAGIC {
                            continue; // stray feedback is not data
                        }
                        let Ok(pkt) = CodedPacket::from_bytes(&buf[..n], blocks) else {
                            continue;
                        };
                        if pkt.session() != session {
                            continue;
                        }
                        let now = Instant::now();
                        packets += 1;
                        last_arrival = Some(now);
                        let gen = pkt.generation();
                        if gen < generations {
                            // Everything up to the highest generation
                            // seen has been sent: start its stall clock.
                            for ev in last_event[..=(gen as usize)].iter_mut() {
                                ev.get_or_insert(now);
                            }
                        }
                        let innovative = matches!(
                            decoder.receive(&pkt),
                            Ok(ncvnf_rlnc::ReceiveOutcome::Innovative { .. })
                        );
                        if gen < generations {
                            let gi = gen as usize;
                            gen_packets[gi] += 1;
                            if innovative {
                                last_event[gi] = Some(now);
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
                let stalled_globally =
                    last_arrival.is_some_and(|t| now.duration_since(t) >= recovery.decode_timeout);
                for g in 0..generations as usize {
                    if decoder.generation_complete(g as u64) {
                        continue;
                    }
                    if stalled_globally {
                        last_event[g].get_or_insert_with(|| last_arrival.expect("stalled"));
                    }
                    let Some(ev) = last_event[g] else {
                        continue;
                    };
                    if now.duration_since(ev) < recovery.decode_timeout {
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
        let now = Instant::now();
        let mut gens: Vec<GenState> = (0..4)
            .map(|_| GenState {
                acked: false,
                pending_nack: None,
                retries: 0,
                next_retry: now,
            })
            .collect();
        let mut adaptive = AdaptiveRedundancy::from_policy(cfg.redundancy, rec.aimd);
        for _ in 0..6 {
            adaptive.on_loss(3); // pump extra redundancy above the floor
        }
        let before = adaptive.current_extra();
        let mut bp = Backpressure::default();
        let obs = TransferObs::new();
        let m = RecoveryMetrics::register(obs.registry());

        // Relay reports 200% load for our session: multiplicative
        // decrease plus a pause window at the 2.0x clamp point.
        let frame = Feedback::congestion(cfg.session, 200, 7, 40).to_bytes();
        assert!(absorb_feedback(
            &frame,
            &cfg,
            &rec,
            4,
            &mut gens,
            &mut adaptive,
            &mut bp,
            &m
        ));
        assert!(
            adaptive.current_extra() < before,
            "congestion is a multiplicative decrease: {} -> {}",
            before,
            adaptive.current_extra()
        );
        assert!(bp.paused(Instant::now()), "pause window armed");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.congestion_events"), Some(1));
        assert_eq!(snap.gauge("recovery.congestion_window"), Some(200.0));

        // Session 0 is the unattributed wildcard: also honoured.
        let wild = Feedback::congestion(SessionId::new(0), 120, 1, 41).to_bytes();
        assert!(absorb_feedback(
            &wild,
            &cfg,
            &rec,
            4,
            &mut gens,
            &mut adaptive,
            &mut bp,
            &m
        ));
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);

        // A congestion frame for some other session is ignored: no
        // decrease, no pause extension, no event.
        let other = Feedback::congestion(SessionId::new(99), 400, 9, 90).to_bytes();
        let extra = adaptive.current_extra();
        assert!(!absorb_feedback(
            &other,
            &cfg,
            &rec,
            4,
            &mut gens,
            &mut adaptive,
            &mut bp,
            &m
        ));
        assert_eq!(adaptive.current_extra(), extra);
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);
    }

    fn snap_counter(obs: &TransferObs, name: &str) -> u64 {
        obs.snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn backpressure_window_extends_and_expires() {
        let mut bp = Backpressure::default();
        assert!(!bp.paused(Instant::now()), "starts unpaused");
        bp.pause_for(Duration::from_millis(50));
        bp.pause_for(Duration::from_millis(5)); // shorter: must not shrink
        let now = Instant::now();
        assert!(bp.paused(now));
        assert!(
            bp.paused(now + Duration::from_millis(20)),
            "50ms window survives a later 5ms report"
        );
        assert!(!bp.paused(now + Duration::from_millis(60)), "expires");
        assert!(
            !bp.paused(now + Duration::from_millis(60)),
            "expired window is cleared, not re-armed"
        );
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
