//! The file-transfer application over real sockets, with feedback-driven
//! loss recovery.
//!
//! The paper measures how long a receiver "has to wait for
//! retransmissions ... to collect all 4 packets for decoding a
//! generation" under loss; this module is that application on the
//! real-socket path, and it exists once:
//!
//! * one source loop (`run_source`) emits fresh data at `rate_bps` and,
//!   in between, answers repair requests with *fresh* random
//!   combinations (innovative with overwhelming probability, so it never
//!   needs to know which packets were lost). It polls its socket without
//!   blocking and sleeps on deadlines; a socket timeout never paces it;
//! * one receiver thread ([`ReliableReceiver`]) reassembles the object,
//!   acknowledges progress and asks for repairs when it stalls, using the
//!   `ncvnf-dataplane` feedback codec (sent straight back to the source —
//!   feedback does not traverse the coding relays);
//! * both are written over a private framing seam with the two codings
//!   the codec ships: **generational** ([`send_object_reliable`] /
//!   [`ReliableReceiver::spawn`]: per-generation ACK/NACK, bounded
//!   retries with exponential backoff, and an [`AdaptiveRedundancy`]
//!   AIMD controller that raises the per-generation redundancy once per
//!   repair round a loss causes and decays it once the path is clean) and
//!   **sliding-window** ([`send_window_reliable`] /
//!   [`ReliableReceiver::spawn_window`]: systematic symbols, cumulative
//!   [`WindowAck`]s, repair bursts over the live window);
//! * a best-effort transfer is not a third implementation: it is the
//!   generational source with `max_retries: 0` (it returns the instant
//!   the last generation leaves) and the receiver with no feedback peer.
//!
//! [`reliable_chain`] assembles the whole thing — source → (optionally
//! fault-injected) relays → receiver — for the loopback, chaos and
//! failover experiments.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver as ChanReceiver};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ncvnf_control::signal::VnfRoleWire;
use ncvnf_control::ForwardingTable;
use ncvnf_dataplane::{Feedback, FeedbackKind};
use ncvnf_obs::{Counter, Snapshot, TraceKind};
use ncvnf_rlnc::window::{WindowConfig, WindowDecoder, WindowEncoder, WindowOutcome};
use ncvnf_rlnc::{
    wire_kind, AdaptiveRedundancy, AimdConfig, CodedPacket, GenerationConfig, ObjectDecoder,
    ObjectEncoder, PacketView, PayloadPool, ReceiveOutcome, RedundancyPolicy, SessionId, WindowAck,
    WireKind,
};

use crate::chaos::{FaultConfig, FaultSocket, FaultStats};
use crate::metrics::{RecoveryMetrics, TransferObs};
use crate::node::{RelayConfig, RelayNode, RelayStats};
use crate::socket::{is_timeout, DatagramSocket, SendBatch, MAX_BATCH};

/// Parameters of one object transfer.
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Session id.
    pub session: SessionId,
    /// Generation layout.
    pub generation: GenerationConfig,
    /// Redundancy policy.
    pub redundancy: RedundancyPolicy,
    /// Pacing rate in bits per second on the wire.
    pub rate_bps: f64,
    /// RNG seed for coding coefficients.
    pub seed: u64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            session: SessionId::new(1),
            generation: GenerationConfig::paper_default(),
            redundancy: RedundancyPolicy::NC0,
            rate_bps: 200e6,
            seed: 7,
        }
    }
}

/// Tuning of the feedback/retransmission protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Receiver: a generation with no innovative packet — a windowed
    /// stream with no packet at all — for this long is NACKed.
    pub decode_timeout: Duration,
    /// Receiver: minimum spacing between NACKs for the same generation
    /// (or stream).
    pub nack_interval: Duration,
    /// Source: retransmission rounds per generation before giving up.
    /// Zero makes the transfer best-effort: the source awaits nothing
    /// and returns once the last generation has left.
    pub max_retries: u32,
    /// Source: wait after retry `k` before honouring another NACK for
    /// the same generation doubles from this base (exponential backoff).
    pub backoff_base: Duration,
    /// Source: give up after this long with every generation sent and no
    /// feedback (receiver death must not hang the source forever).
    pub idle_timeout: Duration,
    /// Source: base pause imposed by one `Congestion` frame, scaled by
    /// the reported load percent (0.5×–4×). Fresh data and repair bursts
    /// both hold off until the pause expires.
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

/// Counters from one transfer, whichever its framing. The source fills
/// the received/retransmit side, the receiver the sent side.
///
/// Like [`RelayStats`], this is a typed *view*: the protocol records
/// into `recovery.*` registry cells (a [`RecoveryMetrics`] bundle inside
/// the caller's [`TransferObs`]) and each call returns the delta it
/// contributed. Controllers derive their health record from the registry
/// snapshot via `DataplaneHealth::from_snapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Packets sent as fresh data: coded generations, or the systematic
    /// pass of a windowed stream (source).
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
    /// Generations (windowed: symbols) the source was still waiting on
    /// when it gave up; 0 on success and on a best-effort transfer, which
    /// waits on nothing.
    pub unrecovered: u64,
}

/// The `recovery.*` cells as a typed view, less what they read at `base`
/// (a view taken earlier; the default for absolute values): the delta one
/// call contributed to shared cumulative cells. Source-side and
/// receiver-side fields are written by disjoint parties, so deltas stay
/// exact even when both ends share one registry. `peak_extra` is
/// gauge-derived and left 0: the source fills it from the AIMD
/// controller.
fn recovery_since(m: &RecoveryMetrics, base: &RecoveryStats) -> RecoveryStats {
    RecoveryStats {
        initial_packets: m.initial_packets.get() - base.initial_packets,
        retransmit_packets: m.retransmit_packets.get() - base.retransmit_packets,
        retransmit_rounds: m.retransmit_rounds.get() - base.retransmit_rounds,
        nacks_sent: m.nacks_sent.get() - base.nacks_sent,
        nacks_received: m.nacks_received.get() - base.nacks_received,
        acks_sent: m.acks_sent.get() - base.acks_sent,
        acks_received: m.acks_received.get() - base.acks_received,
        generations_recovered: m.generations_recovered.get() - base.generations_recovered,
        peak_extra: 0,
        unrecovered: m.unrecovered.get() - base.unrecovered,
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
/// too long for a sleep. A socket timeout never paces anything here — it
/// only bounds a park that feedback would end early anyway.
struct FeedbackPort<'a> {
    socket: &'a dyn DatagramSocket,
    buf: [u8; 64],
    /// Length of a frame a park received, handed out by the next poll.
    held: Option<usize>,
}

impl FeedbackPort<'_> {
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

impl Drop for FeedbackPort<'_> {
    /// Hands the caller's socket back in blocking mode.
    fn drop(&mut self) {
        let _ = self.socket.set_read_timeout(None);
    }
}

/// Most of a late emission's lateness the pacer lets the source win
/// back by sending early afterwards; lateness beyond it (an idle tail, a
/// congestion pause) is forgiven instead of repaid as a line-rate burst.
const PACE_CREDIT: Duration = Duration::from_millis(1);

/// What a burst is for, and so which counters it lands in.
enum Burst {
    /// Data leaving for the first time.
    Fresh,
    /// The answer to a NACK about this unit (a generation, or a window
    /// base): one retransmission round.
    Repair(u64),
}

/// The source's way out: one burst of packets at a time, built from
/// pooled buffers into one [`SendBatch`] and paced at `rate_bps`.
struct Wire<'a> {
    socket: &'a dyn DatagramSocket,
    next_hops: &'a [SocketAddr],
    metrics: &'a RecoveryMetrics,
    rng: StdRng,
    pool: PayloadPool,
    batch: SendBatch,
    rate_bps: f64,
    /// Pacing deadline: the rate budget allows the next emission now or
    /// after this instant.
    pace: Instant,
    /// Packets emitted so far (the round-robin cursor over next hops).
    packets: u64,
}

impl Wire<'_> {
    /// Sends `count` packets drawn from `next` as one batch, `now` being
    /// no earlier than `due`, and charges their bytes on the wire (28 of
    /// IP and UDP header each) to the rate budget.
    fn emit(
        &mut self,
        burst: Burst,
        count: usize,
        due: Instant,
        now: Instant,
        mut next: impl FnMut(&mut StdRng, &mut PayloadPool) -> CodedPacket,
    ) -> io::Result<()> {
        self.batch.clear();
        for _ in 0..count {
            let pkt = next(&mut self.rng, &mut self.pool);
            let hop = self.next_hops[(self.packets as usize) % self.next_hops.len()];
            self.batch.push_wire(|w| pkt.write_into(w), &[hop]);
            self.pool.recycle(pkt);
            self.packets += 1;
        }
        self.socket.send_batch(&self.batch)?;
        let m = self.metrics;
        match burst {
            Burst::Fresh => m.initial_packets.add(count as u64),
            Burst::Repair(unit) => {
                m.retransmit_rounds.inc();
                m.retransmit_packets.add(count as u64);
                m.trace.push(TraceKind::RepairBurst, unit, count as u64);
            }
        }
        m.pace_lag_ns
            .record(now.saturating_duration_since(due).as_nanos() as u64);
        let wire_bits = (self.batch.parts().0.len() + 28 * count) as f64 * 8.0;
        let floor = now.checked_sub(PACE_CREDIT).unwrap_or(now);
        self.pace = self.pace.max(floor) + Duration::from_secs_f64(wire_bits / self.rate_bps);
        Ok(())
    }
}

/// What the two codings of a transfer do differently at the source. The
/// loop — poll, pause, pace, wait, give up — is [`run_source`]'s; a
/// framing knows what its feedback means, what is left to send and how
/// to build a packet of it.
trait Framing {
    /// Applies one feedback frame (`Congestion` reports never get here).
    /// Returns true if it was valid feedback for this transfer.
    fn absorb(&mut self, frame: &[u8]) -> bool;

    /// A relay downstream reported overload (the loop arms the pause).
    fn on_congestion(&mut self) {}

    /// True once everything has left and is acknowledged or given up on.
    fn finished(&self) -> bool;

    /// Sends every repair burst whose gate (`wire.pace` included) has
    /// passed; returns `wake` lowered to the earliest gate still ahead.
    fn repair(&mut self, wire: &mut Wire<'_>, now: Instant, wake: Instant) -> io::Result<Instant>;

    /// True while fresh data could leave, the rate budget permitting.
    fn has_fresh(&self) -> bool;

    /// Sends the next burst of fresh data.
    fn fresh(&mut self, wire: &mut Wire<'_>, now: Instant) -> io::Result<()>;

    /// The loop is over: publishes what the source was still waiting on
    /// as `recovery.unrecovered` and where the redundancy ended up;
    /// returns its peak in whole extra packets.
    fn close(&self, obs: &TransferObs) -> u32;
}

/// Source-side backpressure, driven by `Congestion` feedback frames
/// (kind 5) from overloaded relays downstream. It is the loop's, not a
/// framing's: an overloaded relay sheds packets of either kind.
struct Backpressure<'a> {
    session: SessionId,
    /// Pause one frame imposes at 100 % reported load.
    base: Duration,
    metrics: &'a RecoveryMetrics,
    /// No data leaves the source before this instant.
    pause_until: Option<Instant>,
}

impl Backpressure<'_> {
    /// Applies one frame from the source's socket: a `Congestion` report
    /// arms the pause, the rest is `framing`'s own feedback. Returns true
    /// if the frame was for this transfer.
    fn hear(&mut self, frame: &[u8], framing: &mut impl Framing) -> bool {
        // A Congestion frame's generation field carries the reporter's
        // load percent, not a generation index.
        let congestion = Feedback::from_bytes(frame)
            .ok()
            .filter(|fb| fb.kind == FeedbackKind::Congestion);
        let Some(fb) = congestion else {
            return framing.absorb(frame);
        };
        // Session 0 is the wildcard for sheds the relay could not
        // attribute.
        if fb.session != self.session && fb.session.value() != 0 {
            return false;
        }
        framing.on_congestion();
        // A send pause scaled by how overloaded the reporter says it is.
        let scale = (f64::from(fb.load_pct()) / 100.0).clamp(0.5, 4.0);
        let pause = self.base.mul_f64(scale);
        self.pause_for(pause);
        self.metrics.congestion_events.inc();
        self.metrics.congestion_window.set(f64::from(fb.load_pct()));
        self.metrics.backpressure_ns.record(pause.as_nanos() as u64);
        true
    }

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

/// The one source loop. Each turn drains queued feedback without
/// blocking, answers every repair request whose gate has passed —
/// repairs interleave with fresh data — emits the next fresh burst when
/// the rate budget allows, and otherwise waits for the earliest of the
/// pacing deadline, a retry gate, the end of a congestion pause and the
/// idle deadline. Returns the delta this call contributed to `obs`.
fn run_source(
    socket: &dyn DatagramSocket,
    config: &TransferConfig,
    recovery: &RecoveryConfig,
    next_hops: &[SocketAddr],
    obs: &TransferObs,
    mut framing: impl Framing,
) -> io::Result<RecoveryStats> {
    assert!(!next_hops.is_empty(), "need at least one next hop");
    let m = &obs.recovery;
    let before = recovery_since(m, &RecoveryStats::default());
    let mut wire = Wire {
        socket,
        next_hops,
        metrics: m,
        rng: StdRng::seed_from_u64(config.seed),
        pool: PayloadPool::new(),
        batch: SendBatch::new(),
        rate_bps: config.rate_bps,
        pace: Instant::now(),
        packets: 0,
    };
    let mut bp = Backpressure {
        session: config.session,
        base: recovery.congestion_pause,
        metrics: m,
        pause_until: None,
    };
    let mut port = FeedbackPort {
        socket,
        buf: [0u8; 64],
        held: None,
    };
    // Fresh data and feedback both count as signs of life.
    let mut last_activity = wire.pace;

    loop {
        let mut heard = false;
        while let Some(frame) = port.poll() {
            heard |= bp.hear(frame, &mut framing);
        }
        if framing.finished() {
            break;
        }
        let now = Instant::now();
        if heard {
            last_activity = now;
        }
        let idle_deadline = last_activity + recovery.idle_timeout;
        let mut wake = idle_deadline;
        let sent = wire.packets;
        if let Some(resume) = bp.paused_until(now) {
            // Backpressure holds fresh data and repairs alike: an
            // overloaded relay gains nothing from packets it would shed.
            wake = wake.min(resume);
        } else {
            wake = framing.repair(&mut wire, now, wake)?;
            if framing.has_fresh() {
                if wire.pace <= now {
                    framing.fresh(&mut wire, now)?;
                    last_activity = now;
                } else {
                    wake = wake.min(wire.pace);
                }
            }
        }
        if wire.packets != sent {
            continue;
        }
        if now >= idle_deadline {
            break; // receiver went silent
        }
        port.wait(wake);
    }
    let peak_extra = framing.close(obs);
    Ok(RecoveryStats {
        peak_extra,
        ..recovery_since(m, &before)
    })
}

/// Per-generation bookkeeping on the source side.
#[derive(Clone)]
struct GenState {
    acked: bool,
    /// Packets requested by the NACKs of the open repair round (those
    /// since the last burst); `None` when nothing awaits repair.
    pending_nack: Option<u16>,
    retries: u32,
    /// Earliest instant another NACK will be honoured (backoff gate).
    next_retry: Instant,
}

/// The generational framing at the source: per-generation progress from
/// ACK/NACK [`Feedback`] frames, retries under exponential backoff, and
/// the AIMD redundancy controller.
struct Generational<'a> {
    config: &'a TransferConfig,
    recovery: &'a RecoveryConfig,
    metrics: &'a RecoveryMetrics,
    encoder: &'a ObjectEncoder,
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
}

impl<'a> Generational<'a> {
    fn new(
        config: &'a TransferConfig,
        recovery: &'a RecoveryConfig,
        metrics: &'a RecoveryMetrics,
        encoder: &'a ObjectEncoder,
    ) -> Self {
        let untouched = GenState {
            acked: false,
            pending_nack: None,
            retries: 0,
            next_retry: Instant::now(),
        };
        let gens = vec![untouched; encoder.generations() as usize];
        let open = gens.len();
        Generational {
            config,
            recovery,
            metrics,
            encoder,
            gens,
            sent: 0,
            open,
            spent: if recovery.max_retries == 0 { open } else { 0 },
            nacked: Vec::new(),
            adaptive: AdaptiveRedundancy::from_policy(config.redundancy, recovery.aimd),
        }
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
        burst
    }
}

impl Framing for Generational<'_> {
    fn absorb(&mut self, frame: &[u8]) -> bool {
        let Ok(fb) = Feedback::from_bytes(frame) else {
            return false;
        };
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
            // Congestion frames are the loop's (`Backpressure::hear`).
            FeedbackKind::Heartbeat | FeedbackKind::Wake | FeedbackKind::Congestion => {}
        }
        true
    }

    /// Multiplicative decrease, on top of the loop's send pause.
    fn on_congestion(&mut self) {
        self.adaptive.on_congestion();
    }

    /// Every generation has left and is either ACKed or out of retries.
    fn finished(&self) -> bool {
        self.sent == self.gens.len() as u64 && self.open == self.spent
    }

    fn repair(
        &mut self,
        wire: &mut Wire<'_>,
        now: Instant,
        mut wake: Instant,
    ) -> io::Result<Instant> {
        let encoder = self.encoder;
        let mut kept = 0;
        for i in 0..self.nacked.len() {
            let g = self.nacked[i];
            let Some(gate) = self.repair_gate(g) else {
                continue;
            };
            let due = gate.max(wire.pace);
            if due <= now {
                let burst = self.repair_round(g, now);
                wire.emit(Burst::Repair(g as u64), burst, due, now, |rng, pool| {
                    encoder.coded_packet_pooled(g as u64, rng, pool)
                })?;
            } else {
                wake = wake.min(due);
                self.nacked[kept] = g;
                kept += 1;
            }
        }
        self.nacked.truncate(kept);
        Ok(wake)
    }

    fn has_fresh(&self) -> bool {
        self.sent < self.gens.len() as u64
    }

    /// One generation, at the redundancy the AIMD controller is at.
    fn fresh(&mut self, wire: &mut Wire<'_>, now: Instant) -> io::Result<()> {
        let blocks = self.config.generation.blocks_per_generation();
        let per_gen = self.adaptive.policy().packets_per_generation(blocks);
        let (encoder, generation) = (self.encoder, self.sent);
        self.sent += 1;
        wire.emit(Burst::Fresh, per_gen, wire.pace, now, |rng, pool| {
            encoder.coded_packet_pooled(generation, rng, pool)
        })
    }

    fn close(&self, obs: &TransferObs) -> u32 {
        // A best-effort source waited on nothing, so gave up on nothing.
        if self.recovery.max_retries > 0 {
            self.metrics.unrecovered.add(self.open as u64);
        }
        // Publish where the AIMD controller ended up (and peaked) as gauges.
        obs.rlnc.observe_redundancy(&self.adaptive);
        self.adaptive.peak_extra().round() as u32
    }
}

/// Streams `object` at `rate_bps` while answering receiver feedback,
/// until every generation is ACKed (or retries/idle budgets run out).
/// Feedback arrives on `socket` itself, so the caller binds it and tells
/// the receiver its address; the socket is handed back in blocking mode.
///
/// With `recovery.max_retries == 0` the transfer is best-effort: nothing
/// is awaited, the call returns once the last generation has left, and
/// the static [`TransferConfig::redundancy`] is all the protection there
/// is.
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
    let encoder =
        ObjectEncoder::new(config.generation, config.session, object).expect("valid object");
    let framing = Generational::new(config, recovery, &obs.recovery, &encoder);
    run_source(socket, config, recovery, next_hops, obs, framing)
}

/// The sliding-window framing at the source: the live window of
/// unacknowledged symbols, slid by cumulative [`WindowAck`]s, repaired by
/// coded bursts over whatever is still unacknowledged.
struct Windowed<'a> {
    session: SessionId,
    metrics: &'a RecoveryMetrics,
    enc: WindowEncoder,
    /// Symbols not yet pushed into the window.
    chunks: std::slice::Chunks<'a, u8>,
    /// Symbols in the stream.
    total: u64,
    /// Repair packets the receiver's unanswered NACKs ask for.
    owed: u8,
}

impl Windowed<'_> {
    /// Symbols the next fresh burst takes: the window's free room, one
    /// `sendmmsg` at most.
    fn room(&self) -> usize {
        let unsent = self.total - self.enc.next_index();
        (self.enc.config().capacity() - self.enc.live()).min(unsent.min(MAX_BATCH as u64) as usize)
    }
}

impl Framing for Windowed<'_> {
    fn absorb(&mut self, frame: &[u8]) -> bool {
        if wire_kind(frame) != Some(WireKind::WindowAck) {
            return false;
        }
        let Ok(ack) = WindowAck::parse(frame) else {
            return false;
        };
        if ack.session != self.session {
            return false;
        }
        self.metrics.acks_received.inc();
        self.enc.handle_ack(ack.cumulative);
        if ack.repair_wanted > 0 && self.enc.live() > 0 {
            self.metrics.nacks_received.inc();
            // A NACK re-armed before its burst left is the same gap
            // complaining again.
            self.owed = self.owed.max(ack.repair_wanted);
        }
        true
    }

    /// Every symbol has been pushed and acknowledged.
    fn finished(&self) -> bool {
        self.enc.base() >= self.total
    }

    /// One burst over the live window as soon as the rate budget allows:
    /// a windowed repair has no backoff gate of its own.
    fn repair(&mut self, wire: &mut Wire<'_>, now: Instant, wake: Instant) -> io::Result<Instant> {
        if self.enc.live() == 0 {
            self.owed = 0; // acknowledged meanwhile
        }
        if self.owed == 0 {
            return Ok(wake);
        }
        if wire.pace > now {
            return Ok(wake.min(wire.pace));
        }
        let (burst, enc) = (usize::from(self.owed), &self.enc);
        self.owed = 0;
        let repair = Burst::Repair(enc.base());
        wire.emit(repair, burst, wire.pace, now, |rng, pool| {
            enc.coded_packet_pooled(rng, pool)
                .expect("window is non-empty")
        })?;
        Ok(wake)
    }

    fn has_fresh(&self) -> bool {
        self.room() > 0
    }

    /// Fills the window's free room, each new symbol verbatim.
    fn fresh(&mut self, wire: &mut Wire<'_>, now: Instant) -> io::Result<()> {
        let (room, enc, chunks) = (self.room(), &mut self.enc, &mut self.chunks);
        wire.emit(Burst::Fresh, room, wire.pace, now, |_, pool| {
            let symbol = chunks.next().expect("room counts unsent symbols");
            let index = enc.push(symbol).expect("window has room");
            enc.systematic_packet_pooled(index, pool)
                .expect("symbol is live")
        })
    }

    fn close(&self, _obs: &TransferObs) -> u32 {
        self.metrics.unrecovered.add(self.total - self.enc.base());
        0
    }
}

/// Streams `data` over a sliding window through the same source loop as
/// [`send_object_reliable`]: each symbol goes out verbatim (systematic,
/// width-1), and receiver NACKs — [`WindowAck`] frames with
/// `repair_wanted > 0` — are answered with that many fresh random
/// combinations of exactly the *unacknowledged* symbols. Loss never
/// stalls a whole generation: repair coverage tracks the live window as
/// acks slide it forward.
///
/// Of `config`, the session, `rate_bps` (symbols and repair bursts are
/// charged to one pacing clock) and the seed apply; of `recovery`,
/// `idle_timeout` and `congestion_pause`. Metrics land in `obs` under the
/// same `recovery.*` names (`initial_packets` = systematic pass,
/// `retransmit_packets` = repair bursts, `unrecovered` = symbols never
/// acknowledged); the returned [`RecoveryStats`] is this call's delta.
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
    config: &TransferConfig,
    window: WindowConfig,
    recovery: &RecoveryConfig,
    data: &[u8],
    next_hops: &[SocketAddr],
    obs: &TransferObs,
) -> io::Result<RecoveryStats> {
    assert!(!data.is_empty(), "nothing to stream");
    let framing = Windowed {
        session: config.session,
        metrics: &obs.recovery,
        enc: WindowEncoder::new(window, config.session),
        chunks: data.chunks(window.symbol_size()),
        total: data.len().div_ceil(window.symbol_size()) as u64,
        owed: 0,
    };
    run_source(socket, config, recovery, next_hops, obs, framing)
}

/// Outcome of a receive.
#[derive(Debug)]
pub struct ReliableReport {
    /// The decoded object (empty if incomplete at shutdown). A windowed
    /// stream delivers whole symbols: its zero-padded tail is included —
    /// the stream layer does not know the original length.
    pub object: Vec<u8>,
    /// Data packets received.
    pub packets: u64,
    /// Wall-clock duration until completion.
    pub elapsed: Duration,
    /// The receiver-side feedback counters.
    pub stats: RecoveryStats,
}

/// The receiver's way back to the source.
struct FeedbackOut {
    socket: UdpSocket,
    source: Option<SocketAddr>,
    metrics: RecoveryMetrics,
}

impl FeedbackOut {
    /// Sends `frame` to the source and counts it in `sent`. A best-effort
    /// receiver has no peer: it says, and counts, nothing.
    fn send(&self, frame: &[u8], sent: &Counter) {
        if let Some(source) = self.source {
            let _ = self.socket.send_to(frame, source);
            sent.inc();
        }
    }
}

/// A background receiver for one transfer: reassembles the object and —
/// given the source's address — acknowledges progress and NACKs stalls
/// back to it.
pub struct ReliableReceiver {
    /// The UDP address the receiver listens on.
    pub addr: SocketAddr,
    done: ChanReceiver<ReliableReport>,
    running: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReliableReceiver {
    /// Spawns a receiver expecting `generations` generations, sending
    /// feedback to `source`: it ACKs each generation as it decodes and
    /// NACKs generations that stall. With no source (`None`) it is a
    /// best-effort receiver that only listens. Feedback counters,
    /// decode-progress metrics and `generation_decoded` trace events are
    /// recorded into `obs`; the report's [`RecoveryStats`] is this
    /// receiver's delta.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(
        config: &TransferConfig,
        recovery: &RecoveryConfig,
        generations: u64,
        source: impl Into<Option<SocketAddr>>,
        obs: &TransferObs,
    ) -> io::Result<ReliableReceiver> {
        let (session, recovery, rlnc) = (config.session, *recovery, obs.rlnc.clone());
        let blocks = config.generation.blocks_per_generation();
        let n = generations as usize;
        let mut decoder = Some(ObjectDecoder::new(config.generation, generations));
        // Packets that arrived per generation, reported into the codec's
        // decode histogram when the generation closes.
        let mut gen_packets = vec![0u64; n];
        // A generation's stall clock (`last_event`) runs once it is
        // below `started`: when a packet of it or of a later one has
        // arrived (in-order source ⇒ it was sent), or on a global
        // stall. Everything below `low` is decoded, so the per-packet
        // work walks only `low..started`.
        let mut last_event = vec![Instant::now(); n];
        let mut last_nack: Vec<Option<Instant>> = vec![None; n];
        let mut acked = vec![false; n];
        let (mut low, mut started) = (0usize, 0usize);
        Self::serve(
            session,
            WireKind::Generation,
            blocks,
            source.into(),
            obs,
            move |packet, now, last_arrival, out| {
                let dec = decoder.as_mut()?;
                let ack = |g| {
                    out.send(
                        &Feedback::ack(session, g).to_bytes(),
                        &out.metrics.acks_sent,
                    )
                };
                if let Some(pkt) = packet {
                    let gen = pkt.generation();
                    let innovative =
                        matches!(dec.receive_view(pkt), Ok(ReceiveOutcome::Innovative { .. }));
                    if gen < generations {
                        let gi = gen as usize;
                        // Everything up to the highest generation seen has
                        // been sent: start its stall clock.
                        if gi >= started {
                            last_event[started..=gi].fill(now);
                            started = gi + 1;
                        }
                        gen_packets[gi] += 1;
                        if innovative {
                            last_event[gi] = now;
                        }
                        if dec.generation_complete(gen) && !acked[gi] {
                            acked[gi] = true;
                            ack(gen);
                            rlnc.record_generation_decoded(gen_packets[gi]);
                            let trace = &out.metrics.trace;
                            trace.push(TraceKind::GenerationDecoded, gen, gen_packets[gi]);
                        }
                    }
                }
                if dec.is_complete() {
                    // Completion burst: re-ACK everything so a lost ACK
                    // cannot leave the source retrying.
                    (0..generations).for_each(ack);
                    return decoder.take().map(|d| d.into_object().unwrap_or_default());
                }
                // NACK scan. A global stall (nothing arriving at all — e.g.
                // a dead relay) makes every open generation eligible, tail
                // generations included.
                if let Some(t) = last_arrival {
                    if now.duration_since(t) >= recovery.decode_timeout {
                        last_event[started..].fill(t);
                        started = n;
                    }
                }
                while low < started && dec.generation_complete(low as u64) {
                    low += 1;
                }
                for g in low..started {
                    if dec.generation_complete(g as u64)
                        || now.duration_since(last_event[g]) < recovery.decode_timeout
                        || last_nack[g]
                            .is_some_and(|t| now.duration_since(t) < recovery.nack_interval)
                    {
                        continue;
                    }
                    let missing = (blocks - dec.generation_rank(g as u64).unwrap_or(0)) as u16;
                    let mut bitmap = 0u32;
                    for c in dec.generation_missing_columns(g as u64) {
                        if c < 32 {
                            bitmap |= 1 << c;
                        }
                    }
                    let nack = Feedback::nack(session, g as u64, missing, bitmap).to_bytes();
                    out.send(&nack, &out.metrics.nacks_sent);
                    last_nack[g] = Some(now);
                }
                None
            },
        )
    }

    /// Spawns a receiver for a sliding-window stream of `total_symbols`
    /// in-order symbols on the same thread as [`spawn`](Self::spawn): it
    /// delivers symbols in order, acks cumulatively after every
    /// delivery, and NACKs gaps — a [`WindowAck`] with `repair_wanted`
    /// set to exactly the number of missing symbols blocking the delivery
    /// cursor — on `recovery`'s stall timers.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn_window(
        config: &TransferConfig,
        window: WindowConfig,
        recovery: &RecoveryConfig,
        total_symbols: u64,
        source: impl Into<Option<SocketAddr>>,
        obs: &TransferObs,
    ) -> io::Result<ReliableReceiver> {
        let (session, recovery) = (config.session, *recovery);
        let mut decoder = WindowDecoder::new(window);
        let mut data = Vec::new();
        // Highest absolute symbol index referenced by any packet — the
        // NACK sizing baseline: everything at or below it was sent, so
        // `undelivered - pending_rank` packets are missing.
        let mut max_seen: Option<u64> = None;
        let mut last_nack: Option<Instant> = None;
        Self::serve(
            session,
            WireKind::Window,
            0,
            source.into(),
            obs,
            move |packet, now, last_arrival, out| {
                let ack = |cumulative, repair_wanted, sent| {
                    let ack = WindowAck {
                        session,
                        cumulative,
                        repair_wanted,
                    };
                    out.send(&ack.encode(), sent);
                };
                if let Some(pkt) = packet {
                    let top = pkt.index() + pkt.coefficients().len() as u64 - 1;
                    max_seen = Some(max_seen.map_or(top, |m| m.max(top)));
                    let outcome = decoder.receive(pkt.index(), pkt.coefficients(), pkt.payload());
                    if let Ok(WindowOutcome::Delivered { payloads, .. }) = outcome {
                        for p in payloads {
                            data.extend_from_slice(&p);
                        }
                        ack(decoder.delivered(), 0, &out.metrics.acks_sent);
                    }
                }
                let delivered = decoder.delivered();
                if delivered >= total_symbols {
                    // The final ack closes the source's window; repeated
                    // because a dropped one would leave the source waiting
                    // out its idle timeout.
                    for _ in 0..3 {
                        ack(delivered, 0, &out.metrics.acks_sent);
                    }
                    return Some(std::mem::take(&mut data));
                }
                // NACK scan: a gap (undelivered symbols at or below the
                // highest index seen) that stalls past the decode timeout
                // asks for exactly the missing count.
                let stalled =
                    last_arrival.is_some_and(|t| now.duration_since(t) >= recovery.decode_timeout);
                if stalled
                    && last_nack.is_none_or(|t| now.duration_since(t) >= recovery.nack_interval)
                {
                    // Tail losses leave no trace in `max_seen`, so any stall
                    // short of completion asks for at least one repair.
                    let missing = max_seen
                        .map_or(0, |m| m + 1 - delivered)
                        .saturating_sub(decoder.pending_rank() as u64)
                        .clamp(1, 255);
                    ack(delivered, missing as u8, &out.metrics.nacks_sent);
                    last_nack = Some(now);
                }
                None
            },
        )
    }

    /// The one receiver thread. It takes `session`'s data packets of one
    /// `kind` off a fresh loopback socket (`generation_size` is the
    /// coefficient count of a generational packet, which is not on the
    /// wire; a windowed packet carries its own) and runs `turn` after
    /// every arrival and every receive timeout: `turn` absorbs the
    /// packet, if any, acknowledging what it completes, then NACKs what
    /// has stalled since the session's last arrival, and returns the
    /// reassembled bytes — after its completion burst — once everything
    /// is decoded.
    fn serve(
        session: SessionId,
        kind: WireKind,
        generation_size: usize,
        source: Option<SocketAddr>,
        obs: &TransferObs,
        mut turn: impl FnMut(Option<PacketView<'_>>, Instant, Option<Instant>, &FeedbackOut) -> Option<Vec<u8>>
            + Send
            + 'static,
    ) -> io::Result<ReliableReceiver> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        let addr = socket.local_addr()?;
        let (tx, rx) = bounded(1);
        let running = Arc::new(AtomicBool::new(true));
        let run = Arc::clone(&running);
        let out = FeedbackOut {
            socket,
            source,
            metrics: obs.recovery.clone(),
        };
        let thread = std::thread::spawn(move || {
            let before = recovery_since(&out.metrics, &RecoveryStats::default());
            let start = Instant::now();
            let mut packets = 0u64;
            let mut last_arrival: Option<Instant> = None;
            let mut done: Option<(Vec<u8>, Instant)> = None;
            let mut buf = vec![0u8; 65536];
            while done.is_none() && run.load(Ordering::Relaxed) {
                // Stray feedback and foreign sessions are not data.
                let packet = match out.socket.recv_from(&mut buf) {
                    Ok((n, _)) => PacketView::parse(&buf[..n], generation_size)
                        .ok()
                        .filter(|p| p.kind() == kind && p.session() == session),
                    Err(ref e) if is_timeout(e) => None,
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(1));
                        None
                    }
                };
                let now = Instant::now();
                if packet.is_some() {
                    packets += 1;
                    last_arrival = Some(now);
                }
                done = turn(packet, now, last_arrival, &out).map(|object| (object, now));
            }
            // Shut down before completion: nothing to show.
            let (object, end) = done.unwrap_or_else(|| (Vec::new(), Instant::now()));
            let _ = tx.send(ReliableReport {
                object,
                packets,
                elapsed: end.duration_since(start),
                stats: recovery_since(&out.metrics, &before),
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

/// Everything a chain experiment wants to assert on afterwards.
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

/// Builds a source → relays → receiver pipeline on loopback — one relay
/// per entry of `faults`, its data socket wrapped in a [`FaultSocket`]
/// where the entry is set — transfers `object`, and returns the combined
/// report (`None` if the receiver timed out).
///
/// Each relay is configured over its *control channel*
/// ([`RelayNode::wire`]), exactly as the controller would do it;
/// feedback flows receiver → source directly. With
/// `recovery.max_retries == 0` the transfer is best-effort end to end:
/// the source awaits nothing and the receiver is given no feedback peer.
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
    let feedback_to = (recovery.max_retries > 0).then_some(source_socket.local_addr()?);
    // Both endpoints record into one registry: the chain snapshot is the
    // single source of truth for the transfer's recovery/codec metrics.
    let obs = TransferObs::new();
    let receiver =
        ReliableReceiver::spawn(config, recovery, encoder.generations(), feedback_to, &obs)?;

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
        // A clean relay binds its own sockets (one per shard where the
        // kernel can spread them); a faulted one serves every shard from
        // its one fault-wrapped socket.
        let (relay, handle) = match fault {
            Some(fc) => {
                let (data_socket, handle) = FaultSocket::bind_loopback(*fc)?;
                let control_socket = UdpSocket::bind(("127.0.0.1", 0))?;
                let relay = RelayNode::spawn_with(relay_config, data_socket, control_socket)?;
                (relay, Some(handle))
            }
            None => (RelayNode::spawn(relay_config)?, None),
        };
        relays.push(relay);
        fault_handles.push(handle);
    }

    // Wire the chain back to front over the control channel.
    let control = UdpSocket::bind(("127.0.0.1", 0))?;
    control.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut next = receiver.addr;
    for relay in relays.iter().rev() {
        let mut table = ForwardingTable::new();
        table.set(config.session, vec![next.to_string()]);
        relay.wire(&control, config.session, VnfRoleWire::Recoder, &table)?;
        next = relay.data_addr;
    }

    let source = send_object_reliable(&source_socket, config, recovery, object, &[next], &obs)?;
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

    /// An encoder over `generations` generations of [`config`]'s layout.
    fn encoder(generations: usize) -> ObjectEncoder {
        let cfg = config();
        ObjectEncoder::new(
            cfg.generation,
            cfg.session,
            &vec![7u8; generations * 4 * 128 - 8],
        )
        .unwrap()
    }

    #[test]
    fn congestion_feedback_halves_redundancy_and_pauses() {
        let cfg = config();
        let rec = recovery();
        let obs = TransferObs::new();
        let m = RecoveryMetrics::register(obs.registry());
        let enc = encoder(4);
        let mut src = Generational::new(&cfg, &rec, &m, &enc);
        let mut bp = backpressure(&rec, &m);
        src.sent = 4;
        for _ in 0..6 {
            src.adaptive.on_loss(3); // pump extra redundancy above the floor
        }
        let before = src.adaptive.current_extra();

        // Relay reports 200% load for our session: multiplicative
        // decrease plus a pause window at the 2.0x clamp point.
        let frame = Feedback::congestion(cfg.session, 200, 7, 40).to_bytes();
        assert!(bp.hear(&frame, &mut src));
        assert!(
            src.adaptive.current_extra() < before,
            "congestion is a multiplicative decrease: {} -> {}",
            before,
            src.adaptive.current_extra()
        );
        assert!(
            bp.paused_until(Instant::now()).is_some(),
            "pause window armed"
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.congestion_events"), Some(1));
        assert_eq!(snap.gauge("recovery.congestion_window"), Some(200.0));

        // Session 0 is the unattributed wildcard: also honoured.
        let wild = Feedback::congestion(SessionId::new(0), 120, 1, 41).to_bytes();
        assert!(bp.hear(&wild, &mut src));
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);

        // A congestion frame for some other session is ignored: no
        // decrease, no pause extension, no event.
        let other = Feedback::congestion(SessionId::new(99), 400, 9, 90).to_bytes();
        let extra = src.adaptive.current_extra();
        assert!(!bp.hear(&other, &mut src));
        assert_eq!(src.adaptive.current_extra(), extra);
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);
    }

    fn backpressure<'a>(rec: &RecoveryConfig, m: &'a RecoveryMetrics) -> Backpressure<'a> {
        Backpressure {
            session: config().session,
            base: rec.congestion_pause,
            metrics: m,
            pause_until: None,
        }
    }

    fn snap_counter(obs: &TransferObs, name: &str) -> u64 {
        obs.snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn backpressure_window_extends_and_expires() {
        let m = RecoveryMetrics::register(TransferObs::new().registry());
        let mut bp = backpressure(&recovery(), &m);
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
        let enc = encoder(2);
        let sent_source = || {
            let mut src = Generational::new(&cfg, &rec, &m, &enc);
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
    type Scripted = (Option<usize>, Vec<u8>);

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
        /// When each batch left, and the length of the send log after it.
        batches: Vec<(Instant, usize)>,
        feedback: std::collections::VecDeque<Scripted>,
        /// Length of the send log at each blocking receive.
        parks: Vec<usize>,
        read_timeout: Option<Duration>,
        /// The batch that would grow the send log past this fails.
        fail_past: Option<usize>,
    }

    impl ScriptedSocket {
        fn new(script: Vec<Scripted>) -> Self {
            ScriptedSocket {
                state: parking_lot::Mutex::new(ScriptState {
                    feedback: script.into(),
                    ..ScriptState::default()
                }),
            }
        }

        fn deliver(frame: &[u8], buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            buf[..frame.len()].copy_from_slice(frame);
            Ok((frame.len(), ([127, 0, 0, 1], 9).into()))
        }
    }

    impl DatagramSocket for ScriptedSocket {
        fn send_to(&self, buf: &[u8], _addr: SocketAddr) -> io::Result<usize> {
            self.state.lock().sent.push(buf.to_vec());
            Ok(buf.len())
        }

        fn send_batch(&self, batch: &SendBatch) -> io::Result<usize> {
            let mut st = self.state.lock();
            if st
                .fail_past
                .is_some_and(|n| st.sent.len() + batch.len() > n)
            {
                return Err(io::ErrorKind::NotConnected.into());
            }
            st.sent
                .extend(batch.iter().map(|(bytes, _)| bytes.to_vec()));
            let at = st.sent.len();
            st.batches.push((Instant::now(), at));
            Ok(batch.len())
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

    const HOPS: [SocketAddr; 1] = [SocketAddr::new(
        std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
        9,
    )];

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
        let socket = ScriptedSocket::new(script);
        let stats =
            send_object_reliable(&socket, &cfg, rec, &object, &HOPS, &TransferObs::new()).unwrap();
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
        let ack = |g| Feedback::ack(session, g).to_bytes().to_vec();
        let nack = |g| Feedback::nack(session, g, 1, 0).to_bytes().to_vec();
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
    fn best_effort_source_sends_each_generation_once_and_returns() {
        // Zero retries: nothing is awaited. The script is empty, so any
        // park — waiting out `idle_timeout` included — would panic.
        let rec = RecoveryConfig {
            max_retries: 0,
            ..recovery()
        };
        let (log, stats, state) = run_scripted(&rec, Vec::new());
        assert_eq!(log, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(state.batches.len(), 3, "a generation per send_batch");
        assert!(state.parks.is_empty(), "parked at {:?}", state.parks);
        assert_eq!((stats.initial_packets, stats.unrecovered), (12, 0));
        assert_eq!(state.read_timeout, None, "handed back blocking");
    }

    /// An 8-symbol stream of 64 B symbols over a window of 4.
    const STREAM: [u8; 512] = [0x5A; 512];

    fn window() -> WindowConfig {
        WindowConfig::new(64, 4).unwrap()
    }

    fn window_ack(cumulative: u64, repair_wanted: u8) -> Vec<u8> {
        let ack = WindowAck {
            session: config().session,
            cumulative,
            repair_wanted,
        };
        ack.encode().to_vec()
    }

    /// Runs the windowed source over [`STREAM`] against `socket`. Returns
    /// the result, the coefficient count of each datagram sent (1 for a
    /// systematic symbol, the live window for a repair), the registry
    /// and the socket's final state.
    fn run_window_scripted(
        cfg: &TransferConfig,
        rec: &RecoveryConfig,
        socket: ScriptedSocket,
    ) -> (
        io::Result<RecoveryStats>,
        Vec<usize>,
        TransferObs,
        ScriptState,
    ) {
        let obs = TransferObs::new();
        let result = send_window_reliable(&socket, cfg, window(), rec, &STREAM, &HOPS, &obs);
        let state = socket.state.into_inner();
        let widths = state
            .sent
            .iter()
            .map(|d| PacketView::parse(d, 0).expect("data packet"))
            .inspect(|p| assert_eq!(p.kind(), WireKind::Window))
            .map(|p| p.coefficients().len())
            .collect();
        (result, widths, obs, state)
    }

    #[test]
    fn window_source_slides_repairs_and_ends_on_the_final_ack() {
        let cfg = TransferConfig {
            rate_bps: 1e15,
            ..config()
        };
        // The window fills (4), a NACK acknowledges 2 and asks for 2
        // repairs: the burst covers the 2 live symbols and leaves before
        // the 2 fresh symbols the slide made room for. The acks for the
        // rest arrive while the source is parked on a full window.
        let script = vec![
            (Some(4), window_ack(2, 2)),
            (None, window_ack(6, 0)),
            (None, window_ack(8, 0)),
        ];
        let (result, widths, obs, state) =
            run_window_scripted(&cfg, &recovery(), ScriptedSocket::new(script));
        let stats = result.unwrap();
        assert_eq!(widths, [1, 1, 1, 1, 2, 2, 1, 1, 1, 1]);
        assert_eq!(state.parks, [8, 10], "parked only on a full window");
        assert_eq!((stats.initial_packets, stats.retransmit_packets), (8, 2));
        assert_eq!((stats.acks_received, stats.nacks_received), (3, 1));
        assert_eq!((stats.retransmit_rounds, stats.unrecovered), (1, 0));
        assert_eq!(state.read_timeout, None, "handed back blocking");
        // The registry saw what the view reports.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.initial_packets"), Some(8));
        assert_eq!(snap.counter("recovery.retransmit_packets"), Some(2));
    }

    #[test]
    fn window_source_honours_congestion_pauses() {
        let cfg = TransferConfig {
            rate_bps: 1e15,
            ..config()
        };
        let rec = recovery();
        // With the window full, a NACK (2 acknowledged, 2 wanted) and a
        // Congestion report arrive together: the repair burst and the
        // fresh symbols alike hold off for the pause.
        let congestion = Feedback::congestion(cfg.session, 100, 1, 1).to_bytes();
        let script = vec![
            (Some(4), window_ack(2, 2)),
            (Some(4), congestion.to_vec()),
            (None, window_ack(6, 0)),
            (None, window_ack(8, 0)),
        ];
        let (result, widths, obs, state) =
            run_window_scripted(&cfg, &rec, ScriptedSocket::new(script));
        assert_eq!(result.unwrap().unrecovered, 0);
        assert_eq!(widths, [1, 1, 1, 1, 2, 2, 1, 1, 1, 1]);
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 1);
        let held = state.batches[1].0.duration_since(state.batches[0].0);
        assert!(
            held >= rec.congestion_pause,
            "the burst after the report left {held:?} after the one before"
        );
        assert_eq!(state.batches[1].1, 6, "and it was the repair burst");
    }

    #[test]
    fn window_source_surfaces_a_repair_burst_send_error() {
        let cfg = TransferConfig {
            rate_bps: 1e15,
            ..config()
        };
        let socket = ScriptedSocket::new(vec![(Some(4), window_ack(2, 2))]);
        socket.state.lock().fail_past = Some(4);
        let (result, widths, _, _) = run_window_scripted(&cfg, &recovery(), socket);
        assert_eq!(widths, [1, 1, 1, 1]);
        assert_eq!(
            result.unwrap_err().kind(),
            io::ErrorKind::NotConnected,
            "the failed burst is the caller's to see"
        );
    }

    #[test]
    fn window_source_paces_symbols_and_repairs_on_one_clock() {
        // 1 Mbit/s: a systematic packet (64 + 14 + 28 B) costs 848 us, a
        // width-2 repair 856 us.
        let cfg = TransferConfig {
            rate_bps: 1e6,
            ..config()
        };
        let script = vec![
            (Some(4), window_ack(2, 2)),
            (None, window_ack(6, 0)),
            (None, window_ack(8, 0)),
        ];
        let (result, widths, _, state) =
            run_window_scripted(&cfg, &recovery(), ScriptedSocket::new(script));
        assert_eq!(result.unwrap().unrecovered, 0);
        assert_eq!(widths, [1, 1, 1, 1, 2, 2, 1, 1, 1, 1]);
        // A paced wait is a sleep, never a park: it parked only once the
        // window was full with nothing due.
        assert_eq!(state.parks, [8, 10]);
        // Each burst left no earlier than the wire time of everything
        // before it (less the pacer's credit): the repair burst waited
        // out the 4 symbols, the next symbols waited out the repairs too.
        let at = |i: usize| state.batches[i].0.duration_since(state.batches[0].0);
        let us = Duration::from_micros;
        assert_eq!(state.batches[1].1, 6, "second batch is the repair burst");
        assert!(at(1) >= us(4 * 848) - PACE_CREDIT, "repair at {:?}", at(1));
        assert!(
            at(2) >= us(4 * 848 + 2 * 856) - PACE_CREDIT,
            "fresh symbols at {:?}",
            at(2)
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

    /// Streams `data` from `socket` to a windowed receiver on loopback.
    /// Returns both ends' views and the registry they share.
    fn window_stream<S: DatagramSocket>(
        socket: &S,
        cfg: &TransferConfig,
        window: WindowConfig,
        data: &[u8],
    ) -> (RecoveryStats, ReliableReport, Snapshot) {
        let rec = recovery();
        let total = data.len().div_ceil(window.symbol_size()) as u64;
        let obs = TransferObs::new();
        let source = socket.local_addr().unwrap();
        let receiver =
            ReliableReceiver::spawn_window(cfg, window, &rec, total, source, &obs).unwrap();
        let hops = [receiver.addr];
        let stats = send_window_reliable(socket, cfg, window, &rec, data, &hops, &obs).unwrap();
        let report = receiver.wait(Duration::from_secs(30)).expect("completes");
        (stats, report, obs.snapshot())
    }

    #[test]
    fn lossy_window_stream_recovers_via_repair_bursts() {
        let window = WindowConfig::new(128, 8).unwrap();
        let cfg = TransferConfig {
            session: SessionId::new(9),
            ..config()
        };
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 11 % 251) as u8).collect();
        // 25% egress loss on the source's own socket: the stream must
        // heal from NACK-driven repair bursts over the live window.
        let (source_socket, fault) =
            FaultSocket::bind_loopback(FaultConfig::new(0xD00F).with_drop(0.25)).unwrap();
        let (stats, report, snap) = window_stream(&source_socket, &cfg, window, &data);
        assert_eq!(report.object, data, "byte-identical in-order delivery");
        assert_eq!(stats.unrecovered, 0, "source saw the stream acknowledged");
        assert_eq!(stats.initial_packets, 32, "one systematic pass");
        assert!(fault.stats().dropped > 0, "faults actually fired");
        assert!(report.stats.nacks_sent > 0, "receiver NACKed stalls");
        assert!(
            stats.retransmit_packets > 0,
            "repairs answered from the window"
        );
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == ncvnf_obs::TraceKind::RepairBurst));
        // The report is a view of the registry, not a second copy: every
        // ack — the final burst included — and every NACK is in both.
        assert!(report.stats.acks_sent >= 3, "the final ack goes out thrice");
        assert_eq!(
            snap.counter("recovery.acks_sent"),
            Some(report.stats.acks_sent)
        );
        assert_eq!(
            snap.counter("recovery.nacks_sent"),
            Some(report.stats.nacks_sent)
        );
        assert_eq!(
            snap.counter("recovery.retransmit_packets"),
            Some(stats.retransmit_packets)
        );
    }

    #[test]
    fn clean_window_stream_is_pure_systematic() {
        let window = WindowConfig::new(64, 4).unwrap();
        let cfg = TransferConfig {
            session: SessionId::new(10),
            ..config()
        };
        let data: Vec<u8> = (0..640u32).map(|i| (i % 241) as u8).collect();
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let (stats, report, snap) = window_stream(&socket, &cfg, window, &data);
        assert_eq!(report.object, data);
        assert_eq!(stats.unrecovered, 0);
        assert_eq!(
            stats.initial_packets, 10,
            "one systematic packet per symbol"
        );
        assert_eq!(stats.retransmit_packets, 0, "no loss, no repairs");
        assert_eq!(
            snap.counter("recovery.acks_sent"),
            Some(report.stats.acks_sent)
        );
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
