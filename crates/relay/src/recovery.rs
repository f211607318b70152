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
//!   needs to know which packets were lost);
//! * one receiver thread ([`ReliableReceiver`]) reassembles the object,
//!   acknowledges progress and asks for repairs, using the
//!   `ncvnf-dataplane` feedback codec (sent straight back to the source —
//!   feedback does not traverse the coding relays);
//! * both ends poll their socket without blocking and sleep on deadlines
//!   (`Port`); a socket timeout never paces either;
//! * progress is per generation: ACK/NACK feedback, bounded retries;
//! * a best-effort transfer is not a third implementation: it is the
//!   generational source with `max_retries: 0` (it returns the instant
//!   the last generation leaves) and the receiver with no feedback peer.
//!
//! Recovery acts on **evidence, not timers**: the receiver's `NackClock`
//! asks for a generation as soon as later data shows it short of
//! packets, for a tail one measured round trip after the stream goes
//! quiet, and again a round trip after the
//! last NACK; the source gates retry *k* on the round trip it measures
//! × 4^(k−1), and its [`AdaptiveRedundancy`] erasure estimate puts extra
//! packets only on repair rounds whose failure the paced fresh pass would
//! no longer hide. The durations in [`RecoveryConfig`] are ceilings on all of this,
//! and what is used until a measurement exists.
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
use ncvnf_control::{ForwardingTable, SenderConfig, SignalSender};
use ncvnf_dataplane::{Feedback, FeedbackKind};
use ncvnf_obs::{Counter, Snapshot, TraceKind};
use ncvnf_rlnc::{
    AdaptiveRedundancy, AimdConfig, CodedPacket, GenerationConfig, ObjectDecoder, ObjectEncoder,
    PacketView, PayloadPool, RedundancyPolicy, SessionId,
};

use crate::chaos::{FaultConfig, FaultSocket, FaultStats};
use crate::metrics::{RecoveryMetrics, TransferObs};
use crate::node::{RelayConfig, RelayNode, RelayStats};
use crate::socket::{is_timeout, DatagramSocket, SendBatch};

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

/// Tuning of the feedback/retransmission protocol. Both ends act on what
/// they measure, so the durations here are *ceilings* — and the values
/// used until a measurement exists — not schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Receiver: the longest a generation short of packets goes without
    /// a NACK. With a packet spacing and a round trip measured, a gap is
    /// NACKed a few spacings after later data shows it, a tail a round
    /// trip after the stream goes quiet.
    pub decode_timeout: Duration,
    /// Receiver: spacing between NACKs for the same generation: the
    /// measured NACK-to-repair round trip, doubled per unanswered NACK,
    /// at most this.
    pub nack_interval: Duration,
    /// Source: retransmission rounds per generation before giving up.
    /// Zero makes the transfer best-effort: the source awaits nothing
    /// and returns once the last generation has left.
    pub max_retries: u32,
    /// Source: after retry `k` another NACK for the same generation waits
    /// out the measured repair-to-ACK round trip × 4^(k−1), at most this
    /// × 2^(k−1) — which is also the wait before a round trip has been
    /// measured, and what the retry budget's patience adds up from.
    pub backoff_base: Duration,
    /// Source: give up after this long with every generation sent and no
    /// feedback (receiver death must not hang the source forever).
    pub idle_timeout: Duration,
    /// Source: pause imposed by one `Congestion` frame. Fresh data and
    /// repair bursts both hold off until the pause expires.
    pub congestion_pause: Duration,
    /// Bounds of the adaptive redundancy (the floor is overridden by the
    /// transfer's static policy).
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
            congestion_pause: Duration::from_micros(2500),
            aimd: AimdConfig::default(),
        }
    }
}

/// Counters from one transfer. The source fills the received/retransmit
/// side, the receiver the sent side.
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
    /// Highest redundancy the source applied to a fresh generation or a
    /// repair burst, in whole extra packets per generation's worth
    /// (source).
    pub peak_extra: u32,
    /// Generations the source was still waiting on when it gave up; 0 on
    /// success and on a best-effort transfer, which waits on nothing.
    pub unrecovered: u64,
}

/// The `recovery.*` cells as a typed view, less what they read at `base`
/// (a view taken earlier; the default for absolute values): the delta one
/// call contributed to shared cumulative cells. Source-side and
/// receiver-side fields are written by disjoint parties, so deltas stay
/// exact even when both ends share one registry. `peak_extra` is
/// gauge-derived and left 0: the source fills it from the redundancy
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

/// How long a receiver with nothing outstanding parks in its socket
/// between looks at its shutdown flag.
const IDLE_PARK: Duration = Duration::from_millis(10);

/// Longest stretch an endpoint sleeps without polling its socket, so
/// what lands during a short wait is handled within this.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// A round trip, smoothed with its mean deviation the way TCP keeps
/// SRTT and RTTVAR (RFC 6298).
#[derive(Debug, Clone, Copy, Default)]
struct Estimate(Option<(f64, f64)>);

impl Estimate {
    fn sample(&mut self, d: Duration) {
        let x = d.as_secs_f64();
        self.0 = Some(match self.0 {
            None => (x, x / 2.0),
            Some((mean, dev)) => (
                mean + (x - mean) / 8.0,
                dev + ((x - mean).abs() - dev) / 4.0,
            ),
        });
    }

    fn mean(&self) -> Option<Duration> {
        self.0.map(|(mean, _)| Duration::from_secs_f64(mean))
    }

    /// Mean plus four deviations: what to wait before calling it lost.
    fn bound(&self) -> Option<Duration> {
        self.0
            .map(|(mean, dev)| Duration::from_secs_f64(mean + 4.0 * dev))
    }
}

/// An endpoint's own socket seen as its inbox — feedback for a source,
/// data for a receiver: polled without blocking while the endpoint has
/// deadlines to meet, parked in only for waits too long for a sleep. A
/// socket timeout never paces anything here — it only bounds a park that
/// an arrival would end early anyway.
struct Port<'a> {
    socket: &'a dyn DatagramSocket,
    /// Room for the longest frame expected.
    buf: Vec<u8>,
    /// Length of a frame a park received, handed out by the next poll.
    held: Option<usize>,
}

impl Port<'_> {
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

impl Drop for Port<'_> {
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
    /// The answer to a NACK about this generation: one retransmission
    /// round.
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
    /// Time on the wire the last emission charged per packet.
    packet_time: Duration,
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
        let wire_time = Duration::from_secs_f64(wire_bits / self.rate_bps);
        self.packet_time = wire_time / count.max(1) as u32;
        let floor = now.checked_sub(PACE_CREDIT).unwrap_or(now);
        self.pace = self.pace.max(floor) + wire_time;
        Ok(())
    }
}

/// Source-side backpressure, driven by `Congestion` feedback frames
/// (kind 5) from overloaded relays downstream.
struct Backpressure<'a> {
    session: SessionId,
    /// Pause one frame imposes.
    pause: Duration,
    metrics: &'a RecoveryMetrics,
    /// No data leaves the source before this instant.
    pause_until: Option<Instant>,
}

impl Backpressure<'_> {
    /// Applies one frame from the source's socket: a `Congestion` report
    /// arms the pause, the rest is the source's own feedback. Returns true
    /// if the frame was for this transfer.
    fn hear(&mut self, frame: &[u8], now: Instant, source: &mut Generational<'_>) -> bool {
        let Ok(fb) = Feedback::from_bytes(frame) else {
            return false;
        };
        if fb.kind != FeedbackKind::Congestion {
            return source.absorb(fb, now);
        }
        // Session 0 is the wildcard for sheds the relay could not
        // attribute.
        if fb.session != self.session && fb.session.value() != 0 {
            return false;
        }
        // What a relay sheds is not erasure: the estimate is cut, on top
        // of the send pause.
        source.adaptive.on_congestion();
        self.pause_for(self.pause);
        self.metrics.congestion_events.inc();
        self.metrics
            .backpressure_ns
            .record(self.pause.as_nanos() as u64);
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
    mut source: Generational<'_>,
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
        packet_time: Duration::ZERO,
    };
    let mut bp = Backpressure {
        session: config.session,
        pause: recovery.congestion_pause,
        metrics: m,
        pause_until: None,
    };
    let mut port = Port {
        socket,
        buf: vec![0u8; 64],
        held: None,
    };
    // Fresh data and feedback both count as signs of life.
    let mut last_activity = wire.pace;

    loop {
        let mut heard = false;
        while let Some(frame) = port.poll() {
            heard |= bp.hear(frame, Instant::now(), &mut source);
        }
        if source.finished() {
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
            wake = source.repair(&mut wire, now, wake)?;
            if source.has_fresh() {
                if wire.pace <= now {
                    source.fresh(&mut wire, now)?;
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
    let peak_extra = source.close(obs);
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
    /// When the last repair burst left (the ACK it earns times a round
    /// trip).
    burst_at: Instant,
    /// Earliest instant another NACK will be honoured (retry gate).
    next_retry: Instant,
}

/// The transfer's state at the source: per-generation progress from
/// ACK/NACK [`Feedback`] frames, retries gated on the measured round
/// trip, and the erasure-rate redundancy controller.
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
    /// Packets the last fresh generation left with.
    per_gen: usize,
    /// Repair burst → the ACK it earned.
    rtt: Estimate,
}

impl<'a> Generational<'a> {
    fn new(
        config: &'a TransferConfig,
        recovery: &'a RecoveryConfig,
        metrics: &'a RecoveryMetrics,
        encoder: &'a ObjectEncoder,
    ) -> Self {
        let now = Instant::now();
        let untouched = GenState {
            acked: false,
            pending_nack: None,
            retries: 0,
            burst_at: now,
            next_retry: now,
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
            per_gen: config.generation.blocks_per_generation(),
            rtt: Estimate::default(),
        }
    }

    /// Opens a repair round for `generation`: consumes its pending NACK
    /// and one retry, arms the retry gate, and returns the burst size.
    /// Should the round fail, the next waits out that gate: while the
    /// fresh pass has longer than that left to run (`pass_left`) the
    /// wait is hidden behind it and the burst is the packets asked for;
    /// once it has not, the burst carries the erasure estimate's margin.
    fn repair_round(&mut self, generation: usize, now: Instant, pass_left: Duration) -> usize {
        let blocks = self.config.generation.blocks_per_generation();
        let g = &mut self.gens[generation];
        let want = usize::from(g.pending_nack.take().unwrap_or(0));
        g.retries += 1;
        if g.retries == self.recovery.max_retries {
            self.spent += 1;
        }
        // Retry k waits out the measured round trip x 4^(k-1) before the
        // next NACK for this generation is honoured, at most
        // `backoff_base` x 2^(k-1): early retries run at the path's pace,
        // and the budget as a whole still outlasts a blackout of seconds.
        let k = (g.retries - 1).min(15);
        let ceiling = self.recovery.backoff_base * (1 << k);
        let measured = self.rtt.bound().map(|rtt| rtt * (1 << (2 * k)));
        let gate = measured.map_or(ceiling, |m| m.min(ceiling));
        g.burst_at = now;
        g.next_retry = now + gate;
        self.metrics.backoff_ns.record(gate.as_nanos() as u64);
        // Should this round fail, the next waits out that gate. While the
        // fresh pass outlasts it the wait costs nothing, and the burst is
        // what was asked for; once it does not, the burst is sized to
        // succeed, for twice the packets with every round that has failed.
        let hidden = pass_left > gate;
        let want = want
            << if hidden {
                0
            } else {
                g.retries.saturating_sub(2).min(2)
            };
        self.adaptive.repair_packets(want, hidden, blocks)
    }

    /// Applies one ACK or NACK (or a frame addressed to the controller)
    /// read off the socket at `now`; `Congestion` reports never get here.
    /// Returns true if it was feedback for this transfer.
    fn absorb(&mut self, fb: Feedback, now: Instant) -> bool {
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
                    self.open -= 1;
                    if g.retries >= self.recovery.max_retries {
                        self.spent -= 1;
                    }
                    if g.retries > 0 {
                        self.metrics.generations_recovered.inc();
                        let round_trip = now.saturating_duration_since(g.burst_at);
                        self.rtt.sample(round_trip);
                        self.metrics.rtt_ns.record(round_trip.as_nanos() as u64);
                    } else if g.pending_nack.is_none() {
                        // Never NACKed: everything it left with arrived.
                        self.adaptive.on_resolved(0, self.per_gen);
                    }
                    g.pending_nack = None;
                }
            }
            FeedbackKind::RetransmitRequest => {
                // A NACK for a generation the fresh pass has not reached
                // yet says nothing about loss, and one for a generation
                // that is out of retries will get no answer: ignore both
                // entirely (no retry burnt, no loss estimated).
                if fb.generation >= self.sent || g.acked || g.retries >= self.recovery.max_retries {
                    return true;
                }
                self.metrics.nacks_received.inc();
                match g.pending_nack {
                    // The receiver re-arming a NACK the source has not
                    // answered yet is the same loss complaining again.
                    Some(want) => g.pending_nack = Some(want.max(fb.count)),
                    None => {
                        // Only a generation's first NACK says what the
                        // fresh pass lost; later ones are about repairs.
                        if g.retries == 0 {
                            self.adaptive.on_resolved(fb.count, self.per_gen);
                        }
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

    /// Every generation has left and is either ACKed or out of retries.
    fn finished(&self) -> bool {
        self.sent == self.gens.len() as u64 && self.open == self.spent
    }

    /// Sends every repair burst whose gate (`wire.pace` included) has
    /// passed; returns `wake` lowered to the earliest gate still ahead.
    fn repair(
        &mut self,
        wire: &mut Wire<'_>,
        now: Instant,
        mut wake: Instant,
    ) -> io::Result<Instant> {
        let encoder = self.encoder;
        let left = (self.gens.len() as u64 - self.sent) as u32;
        let pass_left = wire.packet_time * self.per_gen as u32 * left;
        let mut kept = 0;
        for i in 0..self.nacked.len() {
            let g = self.nacked[i];
            if self.gens[g].pending_nack.is_none() {
                continue; // ACKed meanwhile
            }
            let due = self.gens[g].next_retry.max(wire.pace);
            if due <= now {
                let burst = self.repair_round(g, now, pass_left);
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

    /// True while a generation has yet to leave, the rate budget
    /// permitting.
    fn has_fresh(&self) -> bool {
        self.sent < self.gens.len() as u64
    }

    /// One generation, at the policy floor — unless a repair round trip
    /// has been measured to outlast the pacing time extras would take on
    /// everything still to leave, in which case it carries them.
    fn fresh(&mut self, wire: &mut Wire<'_>, now: Instant) -> io::Result<()> {
        let blocks = self.config.generation.blocks_per_generation();
        let left = (self.gens.len() as u64 - self.sent) as f64;
        let hideable = self.rtt.mean().map_or(0.0, |rtt| {
            rtt.as_secs_f64() / (wire.packet_time.as_secs_f64() * left)
        });
        let policy = self.adaptive.fresh_policy(blocks, hideable as u32);
        self.per_gen = policy.packets_per_generation(blocks);
        let (encoder, generation) = (self.encoder, self.sent);
        self.sent += 1;
        wire.emit(Burst::Fresh, self.per_gen, wire.pace, now, |rng, pool| {
            encoder.coded_packet_pooled(generation, rng, pool)
        })
    }

    /// The loop is over: publishes what the source was still waiting on
    /// as `recovery.unrecovered` and where the redundancy ended up;
    /// returns its peak in whole extra packets.
    fn close(&self, obs: &TransferObs) -> u32 {
        // A best-effort source waited on nothing, so gave up on nothing.
        if self.recovery.max_retries > 0 {
            self.metrics.unrecovered.add(self.open as u64);
        }
        // Publish what the controller estimated and applied as gauges.
        let estimate = self.adaptive.loss_estimate();
        self.metrics.loss_estimate.set(estimate);
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
    let source = Generational::new(config, recovery, &obs.recovery, &encoder);
    run_source(socket, config, recovery, next_hops, obs, source)
}

/// Outcome of a receive.
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

/// The receiver's way back to the source.
struct FeedbackOut {
    socket: Box<dyn DatagramSocket>,
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

/// Spacings of the in-order stream a generation may lag later data by before
/// it counts as lost: what absorbs reordering between relay shards.
const REORDER_SPAN: u32 = 16;

/// Units past the highest one seen that a stall opens: enough to ask
/// for a tail lost whole or for what a dead relay swallowed, a few at a
/// time, without ever NACKing the rest of the object.
const LOOKAHEAD: u64 = 4;

/// One open unit of a [`NackClock`].
struct Unit {
    /// The last arrival for it, or when it was opened.
    last_event: Instant,
    /// NACKs sent for it, and when the last one left.
    nacks: u32,
    last_nack: Option<Instant>,
    /// When its first NACK left, until the repair it earns times the
    /// round trip.
    probe: Option<Instant>,
}

/// The receiver's loss detector: when to NACK, decided from what has
/// been observed and fed explicit instants (like `LivenessTracker`).
///
/// It watches the numbered *units* an in-order source sends — the
/// generations of the object. A unit is NACKed
///
/// * once data of a later unit has arrived and it has had none for
///   [`REORDER_SPAN`] spacings of the stream (the gap proves the loss;
///   the span absorbs reordering),
/// * as a tail — nothing later seen — once it has been quiet for that
///   span plus a round trip; a stream quiet that long as a whole also
///   opens [`LOOKAHEAD`] units past the highest seen,
/// * again one measured NACK-to-repair round trip after its last NACK,
///   doubled for every NACK since that went unanswered.
///
/// Spacing and round trip are measured here; `decode_timeout` and
/// `nack_interval` cap them and stand in until a measurement exists.
#[derive(Default)]
struct NackClock {
    decode_timeout: Duration,
    nack_interval: Duration,
    /// Units in the transfer.
    units: u64,
    /// Spacing between arrivals at the head of the in-order stream
    /// while it flows (repairs of older units do not count), sampled
    /// once per drained batch: head arrivals since the last sample, and
    /// when that was taken.
    spacing: Option<Duration>,
    batch: u32,
    sampled_at: Option<Instant>,
    /// First NACK of a unit → first arrival for it afterwards.
    rtt: Estimate,
    last_arrival: Option<Instant>,
    /// Units below this are complete and forgotten.
    low: u64,
    /// Units below this have been proven sent by an arrival.
    seen: u64,
    /// State of units `low..low + open.len()`.
    open: std::collections::VecDeque<Unit>,
}

impl NackClock {
    fn new(recovery: &RecoveryConfig, units: u64) -> Self {
        NackClock {
            decode_timeout: recovery.decode_timeout,
            nack_interval: recovery.nack_interval,
            units,
            ..NackClock::default()
        }
    }

    /// Opens every unit below `end`, stamped `at`.
    fn open_to(&mut self, end: u64, at: Instant) {
        for _ in self.low + self.open.len() as u64..end {
            self.open.push_back(Unit {
                last_event: at,
                nacks: 0,
                last_nack: None,
                probe: None,
            });
        }
    }

    /// A packet of `unit` arrived: everything up to it has been sent,
    /// and it is being served.
    fn arrival(&mut self, unit: u64, now: Instant, metrics: &RecoveryMetrics) {
        self.last_arrival = Some(now);
        let last = unit.min(self.units.saturating_sub(1));
        self.batch += u32::from(last + 1 >= self.seen);
        self.seen = self.seen.max(last + 1);
        self.open_to(self.seen, now);
        if unit < self.low || unit > last {
            return;
        }
        let unit = &mut self.open[(unit - self.low) as usize];
        unit.last_event = now;
        if let Some(asked) = unit.probe.take() {
            let round_trip = now.saturating_duration_since(asked);
            self.rtt.sample(round_trip);
            metrics.rtt_ns.record(round_trip.as_nanos() as u64);
        }
    }

    /// How long a unit with later data behind it may lag.
    fn allowance(&self) -> Duration {
        let span = self.spacing.map(|s| s * REORDER_SPAN);
        span.map_or(self.decode_timeout, |s| s.min(self.decode_timeout))
    }

    /// How long without arrivals makes a tail, or the whole stream,
    /// stalled.
    fn quiet(&self) -> Duration {
        let round_trip = self.rtt.bound().unwrap_or(self.decode_timeout);
        (self.allowance() + round_trip).min(self.decode_timeout)
    }

    /// With the socket drained at `now`: calls `nack` for every unit
    /// that is due one (`complete` tells which are done) and returns
    /// when to look again, `None` while nothing is outstanding.
    fn poll(
        &mut self,
        now: Instant,
        metrics: &RecoveryMetrics,
        complete: impl Fn(u64) -> bool,
        mut nack: impl FnMut(u64),
    ) -> Option<Instant> {
        if self.batch > 0 {
            if let Some(from) = self.sampled_at {
                // A silence is not a spacing: the estimate halves its
                // way down to a shorter sample, and creeps up towards a
                // longer one taken for at most twice itself.
                let sample = now.duration_since(from) / self.batch;
                self.spacing = Some(match self.spacing {
                    None => sample,
                    Some(mean) if sample < mean => (mean + sample) / 2,
                    Some(mean) => mean + (sample.min(2 * mean) - mean) / 8,
                });
            }
            (self.sampled_at, self.batch) = (Some(now), 0);
        }
        let (allowance, quiet) = (self.allowance(), self.quiet());
        let round_trip = self.rtt.bound().unwrap_or(self.nack_interval);
        let mut wake = None;
        let mut sooner = |t: Instant| wake = Some(wake.map_or(t, |w: Instant| w.min(t)));
        if let Some(at) = self.last_arrival {
            if now.duration_since(at) >= quiet {
                self.open_to((self.seen + LOOKAHEAD).min(self.units), at);
            } else if self.seen < self.units {
                sooner(at + quiet);
            }
        }
        while self.open.front().is_some() && complete(self.low) {
            self.open.pop_front();
            self.low += 1;
        }
        for (unit, state) in (self.low..).zip(self.open.iter_mut()) {
            if complete(unit) {
                continue;
            }
            // A tail proves nothing until the stream has stalled; once
            // asked for, a unit's repairs travel together like a gap's.
            let lag = if unit + 1 < self.seen || state.last_nack.is_some() {
                allowance
            } else {
                quiet
            };
            // Each NACK that goes unanswered doubles the wait for the
            // next: a path that has stalled is not a repair that was lost.
            let again =
                |nacks: u32| (round_trip * (1 << (nacks - 1).min(16))).min(self.nack_interval);
            let mut due = state.last_event + lag;
            if let Some(at) = state.last_nack {
                due = due.max(at + again(state.nacks));
            }
            if due <= now {
                nack(unit);
                let first = state.nacks == 0;
                if first {
                    let delay = now.duration_since(state.last_event);
                    metrics.nack_delay_ns.record(delay.as_nanos() as u64);
                }
                // Only a first NACK is timed (a repair that follows a
                // second cannot be told from a late answer to the first),
                // and only for a unit known to have been sent (what
                // arrives for a look-ahead unit may be its first copy).
                state.probe = (first && unit < self.seen).then_some(now);
                state.nacks += 1;
                state.last_nack = Some(now);
                due = now + again(state.nacks);
            }
            sooner(due);
        }
        wake
    }
}

/// What the receiver tells its thread after a turn.
enum Turn {
    /// Everything is decoded: the reassembled bytes.
    Done(Vec<u8>),
    /// Not yet; with the socket drained, look again at this instant
    /// (`None`: nothing is outstanding, wait for the next packet).
    Wait(Option<Instant>),
}

/// The receiver's decoding state, as its thread drives it (see
/// [`ReliableReceiver::serve`]): decodes, ACKs each generation as it
/// completes, and NACKs with the rank still missing when its
/// [`NackClock`] says so.
struct Reassembly {
    session: SessionId,
    rlnc: ncvnf_rlnc::RlncMetrics,
    generations: u64,
    blocks: usize,
    decoder: Option<ObjectDecoder>,
    /// Packets that arrived per generation, reported into the codec's
    /// decode histogram when the generation closes.
    gen_packets: Vec<u64>,
    acked: Vec<bool>,
    clock: NackClock,
}

impl Reassembly {
    fn new(
        config: &TransferConfig,
        recovery: &RecoveryConfig,
        generations: u64,
        obs: &TransferObs,
    ) -> Self {
        let n = generations as usize;
        Reassembly {
            session: config.session,
            rlnc: obs.rlnc.clone(),
            generations,
            blocks: config.generation.blocks_per_generation(),
            decoder: Some(ObjectDecoder::new(config.generation, generations)),
            gen_packets: vec![0; n],
            acked: vec![false; n],
            clock: NackClock::new(recovery, generations),
        }
    }

    /// Absorbs `packet` (if any) at `now`, acknowledging what it
    /// completes; with no packet the socket is drained, and what is due
    /// a NACK gets one. Returns the reassembled bytes, after the
    /// completion burst, once everything is decoded.
    fn turn(&mut self, packet: Option<PacketView<'_>>, now: Instant, out: &FeedbackOut) -> Turn {
        let (session, generations) = (self.session, self.generations);
        let Some(dec) = self.decoder.as_mut() else {
            return Turn::Wait(None);
        };
        let ack = |g| {
            out.send(
                &Feedback::ack(session, g).to_bytes(),
                &out.metrics.acks_sent,
            )
        };
        if let Some(pkt) = packet {
            let gen = pkt.generation();
            let _ = dec.receive_view(pkt);
            if gen < generations {
                let gi = gen as usize;
                self.clock.arrival(gen, now, &out.metrics);
                self.gen_packets[gi] += 1;
                if dec.generation_complete(gen) && !self.acked[gi] {
                    self.acked[gi] = true;
                    ack(gen);
                    self.rlnc.record_generation_decoded(self.gen_packets[gi]);
                    let trace = &out.metrics.trace;
                    trace.push(TraceKind::GenerationDecoded, gen, self.gen_packets[gi]);
                }
            }
        }
        if dec.is_complete() {
            // Completion burst: re-ACK everything so a lost ACK
            // cannot leave the source retrying.
            (0..generations).for_each(ack);
            let object = self.decoder.take().and_then(|d| d.into_object().ok());
            return Turn::Done(object.unwrap_or_default());
        }
        if packet.is_some() {
            return Turn::Wait(None);
        }
        let (dec, blocks) = (&*dec, self.blocks);
        let wake = self.clock.poll(
            now,
            &out.metrics,
            |g| dec.generation_complete(g),
            |g| {
                let missing = (blocks - dec.generation_rank(g).unwrap_or(0)) as u16;
                let mut bitmap = 0u32;
                for c in dec.generation_missing_columns(g) {
                    if c < 32 {
                        bitmap |= 1 << c;
                    }
                }
                let nack = Feedback::nack(session, g, missing, bitmap).to_bytes();
                out.send(&nack, &out.metrics.nacks_sent);
            },
        );
        Turn::Wait(wake)
    }
}

/// A background receiver for one transfer: reassembles the object and —
/// given the source's address — acknowledges progress and NACKs losses
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
    /// NACKs generations that have lost packets, as soon as later
    /// arrivals show it (see [`RecoveryConfig`] for the ceilings). With
    /// no source (`None`) it is a best-effort receiver that only
    /// listens. Feedback counters, decode-progress metrics and
    /// `generation_decoded` trace events are recorded into `obs`; the
    /// report's [`RecoveryStats`] is this receiver's delta.
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
        let blocks = config.generation.blocks_per_generation();
        let reassembly = Reassembly::new(config, recovery, generations, obs);
        Self::serve(config.session, blocks, source.into(), obs, reassembly)
    }

    /// The one receiver thread. It takes `session`'s data packets off a
    /// fresh loopback socket (`generation_size` is their coefficient
    /// count, which is not on the wire) and gives `reassembly` a turn
    /// with each one, and, whenever the socket is drained and there is a
    /// source to tell, a turn without a packet: it NACKs what is due and
    /// returns the deadline the thread then waits towards, polling or
    /// parked by the same rule as the source ([`Port::wait`]).
    fn serve(
        session: SessionId,
        generation_size: usize,
        source: Option<SocketAddr>,
        obs: &TransferObs,
        mut reassembly: Reassembly,
    ) -> io::Result<ReliableReceiver> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let addr = socket.local_addr()?;
        let (tx, rx) = bounded(1);
        let running = Arc::new(AtomicBool::new(true));
        let run = Arc::clone(&running);
        let out = FeedbackOut {
            socket: Box::new(socket),
            source,
            metrics: obs.recovery.clone(),
        };
        let thread = std::thread::spawn(move || {
            let before = recovery_since(&out.metrics, &RecoveryStats::default());
            let start = Instant::now();
            let mut packets = 0u64;
            let mut done: Option<(Vec<u8>, Instant)> = None;
            let mut port = Port {
                socket: &*out.socket,
                buf: vec![0u8; 65536],
                held: None,
            };
            while done.is_none() && run.load(Ordering::Relaxed) {
                let mut step = Turn::Wait(None);
                while let (Turn::Wait(_), Some(frame)) = (&step, port.poll()) {
                    // Stray feedback and foreign sessions are not data.
                    let packet = PacketView::parse(frame, generation_size)
                        .ok()
                        .filter(|p| p.session() == session);
                    if let Some(packet) = packet {
                        packets += 1;
                        step = reassembly.turn(Some(packet), Instant::now(), &out);
                    }
                }
                let now = Instant::now();
                // A best-effort receiver has no one to tell what it lacks.
                if let (Turn::Wait(_), Some(_)) = (&step, out.source) {
                    step = reassembly.turn(None, now, &out);
                }
                match step {
                    Turn::Done(object) => done = Some((object, now)),
                    // With nothing outstanding there is no deadline: park
                    // until a packet arrives (or shutdown is due a look).
                    Turn::Wait(wake) => {
                        port.wait(wake.unwrap_or(now + SOCKET_OVERSHOOT + IDLE_PARK));
                    }
                }
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

    // Wire the chain back to front over the control channel, at epoch 0
    // so any journaled controller can take the relays over.
    let mut sender = SignalSender::new(0, SenderConfig::default())?;
    let mut next = receiver.addr;
    for relay in relays.iter().rev() {
        let mut table = ForwardingTable::new();
        table.set(config.session, vec![next.to_string()]);
        relay
            .wire(&mut sender, config.session, VnfRoleWire::Recoder, &table)
            .map_err(io::Error::other)?;
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
    fn congestion_feedback_cuts_the_loss_estimate_and_pauses() {
        let cfg = config();
        let rec = recovery();
        let obs = TransferObs::new();
        let m = RecoveryMetrics::register(obs.registry());
        let enc = encoder(4);
        let mut src = Generational::new(&cfg, &rec, &m, &enc);
        let mut bp = backpressure(&rec, &m);
        src.sent = 4;
        src.adaptive.on_resolved(40, 100); // a path that loses 40 %
        let now = Instant::now();

        // A relay shed our session's packets: what it sheds is not
        // erasure, so the estimate is halved, plus a pause window.
        let frame = Feedback::congestion(cfg.session, 7, 40).to_bytes();
        assert!(bp.hear(&frame, now, &mut src));
        assert_eq!(src.adaptive.loss_estimate(), 0.2);
        assert!(
            bp.paused_until(Instant::now()).is_some(),
            "pause window armed"
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.congestion_events"), Some(1));
        let pause = snap.histogram("recovery.backpressure_ns").unwrap();
        assert_eq!(pause.max, rec.congestion_pause.as_nanos() as u64);

        // Session 0 is the unattributed wildcard: also honoured.
        let wild = Feedback::congestion(SessionId::new(0), 1, 41).to_bytes();
        assert!(bp.hear(&wild, now, &mut src));
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);

        // A congestion frame for some other session is ignored: no cut,
        // no pause extension, no event.
        let other = Feedback::congestion(SessionId::new(99), 9, 90).to_bytes();
        assert!(!bp.hear(&other, now, &mut src));
        assert_eq!(src.adaptive.loss_estimate(), 0.1);
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);
    }

    fn backpressure<'a>(rec: &RecoveryConfig, m: &'a RecoveryMetrics) -> Backpressure<'a> {
        Backpressure {
            session: config().session,
            pause: rec.congestion_pause,
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
    fn estimate_counts_first_nacks_and_bursts_follow_it() {
        let cfg = config();
        let rec = recovery();
        let obs = TransferObs::new();
        let m = RecoveryMetrics::register(obs.registry());
        let nack = |g, count| Feedback::nack(cfg.session, g, count, 0);
        let ack = |g| Feedback::ack(cfg.session, g);
        let enc = encoder(3);
        let mut src = Generational::new(&cfg, &rec, &m, &enc);
        src.sent = 3;
        let t0 = Instant::now();

        // A generation's first NACK reports what the fresh pass lost:
        // 1 of the 4 packets it left with.
        assert!(src.absorb(nack(0, 1), t0));
        assert_eq!(src.adaptive.loss_estimate(), 0.25);
        // The receiver re-arming its NACK before the source has answered
        // is the same loss complaining again: it changes nothing.
        for _ in 0..5 {
            assert!(src.absorb(nack(0, 1), t0));
        }
        assert_eq!(src.adaptive.loss_estimate(), 0.25);
        assert_eq!(src.nacked, vec![0], "one repair round queued");

        // While the fresh pass outlasts the round's gate (the ceiling,
        // with no round trip measured) the burst is what was asked for.
        let (hidden, exposed) = (Duration::MAX, Duration::ZERO);
        assert_eq!(src.repair_round(0, t0, hidden), 1);
        assert_eq!(src.gens[0].next_retry, t0 + rec.backoff_base);
        // A NACK after the repair is about the repair, not the fresh
        // pass: the estimate stands. An exposed round carries its margin,
        // 3 / (1 - 0.25), and retry 2 doubles the gate; a third is sized
        // for twice what is asked, 2 / (1 - 0.25).
        assert!(src.absorb(nack(0, 3), t0));
        assert_eq!(src.adaptive.loss_estimate(), 0.25);
        assert_eq!(src.repair_round(0, t0, exposed), 4);
        assert_eq!(src.gens[0].next_retry, t0 + 2 * rec.backoff_base);
        assert!(src.absorb(nack(0, 1), t0));
        assert_eq!(src.repair_round(0, t0, exposed), 3);

        // The ACK a repair earns times the round trip, and the next gate
        // is that (mean + 4 deviations of one 2 ms sample: 6 ms), doubled
        // per retry, instead of the ceiling.
        assert!(src.absorb(ack(0), t0 + Duration::from_millis(2)));
        assert_eq!(snap_counter(&obs, "recovery.generations_recovered"), 1);
        assert!(src.absorb(nack(1, 2), t0));
        assert_eq!(src.adaptive.loss_estimate(), 0.375, "3 of 8");
        src.repair_round(1, t0, hidden);
        assert_eq!(src.gens[1].next_retry, t0 + Duration::from_millis(6));
        // The gate grows x4 per retry until it meets the ceiling's x2
        // schedule, so eight retries are as patient as they ever were: a
        // path that stalls for a second must not use them up.
        for retry in 2..=8u32 {
            assert!(src.absorb(nack(1, 1), t0));
            src.repair_round(1, t0, hidden);
            let measured = Duration::from_millis(6) * 4u32.pow(retry - 1);
            let ceiling = rec.backoff_base * 2u32.pow(retry - 1);
            assert_eq!(src.gens[1].next_retry, t0 + measured.min(ceiling));
        }
        assert_eq!(src.gens[1].next_retry, t0 + 128 * rec.backoff_base);

        // A generation ACKed without ever being NACKed lost nothing.
        assert!(src.absorb(ack(2), t0));
        assert_eq!(src.adaptive.loss_estimate(), 0.25, "3 of 12");

        // A NACK for a generation that is out of retries gets no answer,
        // so it must not move the estimate or queue a round either.
        let spent = RecoveryConfig {
            max_retries: 1,
            ..rec
        };
        let mut src = Generational::new(&cfg, &spent, &m, &enc);
        src.sent = 3;
        assert!(src.absorb(nack(0, 1), t0));
        src.repair_round(0, t0, hidden);
        src.nacked.clear();
        let received = snap_counter(&obs, "recovery.nacks_received");
        assert!(src.absorb(nack(0, 4), t0));
        assert_eq!(src.adaptive.loss_estimate(), 0.25);
        assert!(src.nacked.is_empty() && src.gens[0].pending_nack.is_none());
        assert_eq!(snap_counter(&obs, "recovery.nacks_received"), received);
    }

    /// A feedback frame of a [`ScriptedSocket`]: pollable once `after`
    /// datagrams have left (`None`: never — only a park delivers it).
    type Scripted = (Option<usize>, Vec<u8>);

    /// A socket with no network and no clock: sends go into a log, and
    /// scripted feedback frames come out in order — by a non-blocking
    /// poll once their point in the send log is reached, or by the next
    /// blocking receive (a park: "time passes until the frame arrives").
    #[derive(Clone)]
    struct ScriptedSocket {
        state: Arc<parking_lot::Mutex<ScriptState>>,
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
                state: Arc::new(parking_lot::Mutex::new(ScriptState {
                    feedback: script.into(),
                    ..ScriptState::default()
                })),
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

    /// A rate at which packets take no time on the wire.
    const NO_PACING: f64 = 1e15;

    const HOPS: [SocketAddr; 1] = [SocketAddr::new(
        std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
        9,
    )];

    /// Runs the source over a three-generation object against `script`
    /// at `rate_bps` — [`NO_PACING`]: every generation is due the moment
    /// the previous one left. Returns the generation of each datagram sent,
    /// the source's counters and the socket's final state.
    fn run_scripted(
        rate_bps: f64,
        rec: &RecoveryConfig,
        script: Vec<Scripted>,
    ) -> (Vec<u64>, RecoveryStats, ScriptState) {
        let cfg = TransferConfig {
            rate_bps,
            ..config()
        };
        let object = vec![7u8; 3 * 4 * 128 - 8];
        let socket = ScriptedSocket::new(script);
        let stats =
            send_object_reliable(&socket, &cfg, rec, &object, &HOPS, &TransferObs::new()).unwrap();
        let state = std::mem::take(&mut *socket.state.lock());
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
        // left is answered before generation 2 leaves. With no pacing the
        // rest of the pass takes no time, so nothing hides a round trip:
        // the burst carries the margin of the loss the NACK reported,
        // 1 / (1 - 1/4) rounded up. Generation 2 leaves at the floor.
        let script = vec![
            (Some(8), nack(0)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let (log, stats, state) = run_scripted(NO_PACING, &rec, script);
        assert_eq!(log, [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 2, 2, 2, 2]);
        assert_eq!((stats.retransmit_rounds, stats.retransmit_packets), (1, 2));
        assert_eq!((stats.generations_recovered, stats.unrecovered), (1, 0));
        assert_eq!(stats.peak_extra, 4, "2 for 1 is 4 per generation's worth");
        // (b) It parked only for the ACKs, with nothing left to send.
        assert_eq!(state.parks, [14, 14, 14]);
        // (e) The caller's socket comes back in blocking mode.
        assert_eq!(state.read_timeout, None);

        // (c) An ACK that arrives before a repair is due cancels it:
        // with no round trip measured the second NACK waits out the
        // hour-long ceiling, the ACK lands while the source is parked,
        // and no second burst ever leaves.
        let script = vec![
            (Some(4), nack(0)),
            (Some(6), nack(0)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let (log, stats, state) = run_scripted(NO_PACING, &rec, script);
        assert_eq!(log, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!((stats.nacks_received, stats.retransmit_rounds), (2, 1));
        assert_eq!((stats.peak_extra, stats.unrecovered), (4, 0));
        assert_eq!(state.parks, [14, 14, 14]);

        // (d) A NACK for a generation that has not left yet says nothing
        // about loss: no burst, no retry burnt, no loss estimated.
        let script = vec![
            (Some(4), nack(2)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let (log, stats, state) = run_scripted(NO_PACING, &rec, script);
        assert_eq!(log, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!((stats.nacks_received, stats.retransmit_rounds), (0, 0));
        assert_eq!((stats.peak_extra, stats.unrecovered), (0, 0));
        assert_eq!(state.read_timeout, None);
    }

    /// What replaced the AIMD law, and why: with NACKs arriving *during*
    /// the fresh pass, +1 extra per missing packet would have tripled
    /// every fresh generation within a few of them. The estimator puts
    /// nothing on a round trip that is hidden and a margin on one that is
    /// not.
    #[test]
    fn nacks_during_the_pass_leave_fresh_generations_at_the_floor() {
        let session = config().session;
        let ack = |g| Feedback::ack(session, g).to_bytes().to_vec();
        let nack = |g| Feedback::nack(session, g, 1, 0).to_bytes().to_vec();
        // Paced at about a millisecond a generation, with a retry gate
        // (the ceiling: no round trip is ever measured here) a tenth of
        // that: a round answered while a generation is still to leave is
        // hidden.
        let rec = RecoveryConfig {
            backoff_base: Duration::from_micros(100),
            ..recovery()
        };
        // A NACK per generation: two land while fresh data is still
        // leaving, the last once the pass is over (delivered by a park).
        let script = vec![
            (Some(4), nack(0)),
            (Some(9), nack(1)),
            (None, nack(2)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let (log, stats, state) = run_scripted(5e6, &rec, script);
        // Every fresh generation is 4 packets, each in-pass burst the 1
        // asked for; the post-pass burst is 1 / (1 - 3/12) rounded up.
        assert_eq!(log, [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
        assert_eq!(stats.initial_packets, 12, "fresh pass at the NC0 floor");
        assert_eq!((stats.retransmit_rounds, stats.retransmit_packets), (3, 4));
        assert_eq!(stats.peak_extra, 4, "2 for 1 is 4 per generation's worth");
        assert_eq!(state.parks, [14, 16, 16, 16]);
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn best_effort_source_sends_each_generation_once_and_returns() {
        // Zero retries: nothing is awaited. The script is empty, so any
        // park — waiting out `idle_timeout` included — would panic.
        let rec = RecoveryConfig {
            max_retries: 0,
            ..recovery()
        };
        let (log, stats, state) = run_scripted(NO_PACING, &rec, Vec::new());
        assert_eq!(log, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(state.batches.len(), 3, "a generation per send_batch");
        assert!(state.parks.is_empty(), "parked at {:?}", state.parks);
        assert_eq!((stats.initial_packets, stats.unrecovered), (12, 0));
        assert_eq!(state.read_timeout, None, "handed back blocking");
    }

    /// One receiver driven by hand: explicit instants in, feedback out
    /// into a [`ScriptedSocket`]'s send log.
    struct HandDriven {
        rx: Reassembly,
        out: FeedbackOut,
        socket: ScriptedSocket,
        obs: TransferObs,
    }

    impl HandDriven {
        fn new(obs: TransferObs, rx: Reassembly) -> Self {
            let socket = ScriptedSocket::new(Vec::new());
            let out = FeedbackOut {
                socket: Box::new(socket.clone()),
                source: Some(HOPS[0]),
                metrics: obs.recovery.clone(),
            };
            HandDriven {
                rx,
                out,
                socket,
                obs,
            }
        }

        /// `wire` arrives at `at`, and the socket is then found drained.
        /// Returns the deadline the turn asked for.
        fn arrive(&mut self, wire: &[u8], generation_size: usize, at: Instant) -> Option<Instant> {
            let packet = PacketView::parse(wire, generation_size).expect("data packet");
            match self.rx.turn(Some(packet), at, &self.out) {
                Turn::Done(_) => None,
                Turn::Wait(_) => self.quiet(at),
            }
        }

        /// A turn at `at` with nothing arrived.
        fn quiet(&mut self, at: Instant) -> Option<Instant> {
            match self.rx.turn(None, at, &self.out) {
                Turn::Done(_) => None,
                Turn::Wait(wake) => wake,
            }
        }

        /// The NACKs sent so far, as `(generation, count)`.
        fn nacks(&self) -> Vec<(u64, u16)> {
            let sent = &self.socket.state.lock().sent;
            sent.iter()
                .filter_map(|f| Feedback::from_bytes(f).ok())
                .filter(|fb| fb.kind == FeedbackKind::RetransmitRequest)
                .map(|fb| (fb.generation, fb.count))
                .collect()
        }
    }

    /// A generational receiver for `generations` generations of
    /// [`config`]'s layout, the encoder that feeds it and its rng.
    fn hand_driven(generations: usize) -> (HandDriven, ObjectEncoder, StdRng) {
        let obs = TransferObs::new();
        let rx = Reassembly::new(&config(), &recovery(), generations as u64, &obs);
        let rng = StdRng::seed_from_u64(5);
        (HandDriven::new(obs, rx), encoder(generations), rng)
    }

    const SPACING: Duration = Duration::from_micros(100);

    /// Streams `generations` in order, a packet every
    /// [`SPACING`] from `*t`, leaving out the `(generation, index)` pairs
    /// in `lost`. Returns when each NACK showed up in the log.
    fn stream(
        rx: &mut HandDriven,
        enc: &ObjectEncoder,
        rng: &mut StdRng,
        generations: std::ops::Range<u64>,
        lost: &[(u64, usize)],
        t: &mut Instant,
    ) -> Vec<Instant> {
        let mut nacked_at = Vec::new();
        for g in generations {
            for k in 0..4 {
                if !lost.contains(&(g, k)) {
                    rx.arrive(&enc.coded_packet(g, rng).to_bytes(), 4, *t);
                    nacked_at.resize(rx.nacks().len(), *t);
                }
                *t += SPACING;
            }
        }
        nacked_at
    }

    #[test]
    fn a_gap_is_nacked_as_soon_as_later_data_proves_it() {
        let (mut rx, enc, mut rng) = hand_driven(10);
        let t0 = Instant::now();
        let mut t = t0;
        // Generation 2 loses its last packet; the stream carries on.
        let nacked_at = stream(&mut rx, &enc, &mut rng, 0..8, &[(2, 3)], &mut t);
        assert_eq!(
            rx.nacks(),
            [(2, 1)],
            "one NACK, for exactly what is missing"
        );
        // Its third packet landed at 10 spacings; the NACK left once it
        // had lagged the stream by REORDER_SPAN spacings, far inside the
        // 30 ms ceiling.
        let lag = nacked_at[0] - (t0 + 10 * SPACING);
        assert!(
            lag >= SPACING * REORDER_SPAN && lag <= SPACING * (REORDER_SPAN + 2),
            "NACKed after {lag:?}"
        );
        let delay = rx.obs.snapshot();
        let delay = delay.histogram("recovery.nack_delay_ns").unwrap();
        assert_eq!(delay.count, 1);
        assert!(Duration::from_nanos(delay.max) < recovery().decode_timeout / 4);
    }

    #[test]
    fn reordering_inside_the_allowance_is_not_loss() {
        let (mut rx, enc, mut rng) = hand_driven(8);
        let mut t = Instant::now();
        // Generation 2's last packet arrives behind the next two
        // generations: 9 spacings late, inside the 16 allowed.
        let nacked_at = stream(&mut rx, &enc, &mut rng, 0..5, &[(2, 3)], &mut t);
        rx.arrive(&enc.coded_packet(2, &mut rng).to_bytes(), 4, t);
        t += SPACING;
        for g in 5..8 {
            for _ in 0..4 {
                rx.arrive(&enc.coded_packet(g, &mut rng).to_bytes(), 4, t);
                t += SPACING;
            }
        }
        assert!(nacked_at.is_empty() && rx.nacks().is_empty());
        assert_eq!(snap_counter(&rx.obs, "rlnc.decode.generations"), 8);
    }

    #[test]
    fn a_tail_waits_for_the_ceiling_until_a_round_trip_is_measured() {
        let (mut rx, enc, mut rng) = hand_driven(2);
        let rec = recovery();
        let mut t = Instant::now();
        // The last generation is short of a packet and nothing follows.
        stream(&mut rx, &enc, &mut rng, 0..2, &[(1, 3)], &mut t);
        let last = t - 2 * SPACING;
        let just_before = last + rec.decode_timeout - Duration::from_micros(1);
        assert_eq!(rx.quiet(just_before), Some(last + rec.decode_timeout));
        assert!(rx.nacks().is_empty(), "no estimate yet: the ceiling stands");
        let nacked = last + rec.decode_timeout;
        assert_eq!(rx.quiet(nacked), Some(nacked + rec.nack_interval));
        assert_eq!(rx.nacks(), [(1, 1)]);
        // No repair came, so no round trip is known: the next NACK waits
        // out `nack_interval`.
        rx.quiet(nacked + rec.nack_interval - Duration::from_micros(1));
        assert_eq!(rx.nacks().len(), 1);
        rx.quiet(nacked + rec.nack_interval);
        assert_eq!(rx.nacks(), [(1, 1), (1, 1)]);
    }

    #[test]
    fn tails_and_renacks_follow_the_measured_round_trip() {
        let (mut rx, enc, mut rng) = hand_driven(8);
        let rec = recovery();
        let ms = Duration::from_millis;
        let mut t = Instant::now();
        // A gap in generation 1, NACKed on evidence; its repair arrives
        // 2 ms after the NACK: one round-trip sample, bound 2 + 4 x 1 ms.
        let nacked_at = stream(&mut rx, &enc, &mut rng, 0..7, &[(1, 0)], &mut t);
        assert_eq!(rx.nacks(), [(1, 1)]);
        rx.arrive(
            &enc.coded_packet(1, &mut rng).to_bytes(),
            4,
            nacked_at[0] + ms(2),
        );
        let rtt = rx.obs.snapshot();
        let rtt = rtt.histogram("recovery.rtt_ns").unwrap();
        assert_eq!((rtt.count, rtt.max), (1, 2_000_000));

        // The last generation arrives short of two packets and the
        // stream goes quiet. It is NACKed REORDER_SPAN spacings plus the
        // 6 ms round-trip bound after its last packet — not at once (a
        // tail proves nothing), not after the 30 ms ceiling.
        stream(&mut rx, &enc, &mut rng, 7..8, &[(7, 2), (7, 3)], &mut t);
        let last = t - 3 * SPACING;
        let due = rx.quiet(last + ms(6)).expect("the tail is outstanding");
        assert_eq!(rx.nacks().len(), 1, "not yet");
        assert!(due > last + ms(6) && due < last + ms(9), "{:?}", due - last);
        assert!(due < last + rec.decode_timeout / 2);
        rx.quiet(due);
        assert_eq!(rx.nacks()[1..], [(7, 2)]);
        // One repair arrives 2 ms later (a second sample: the bound is now
        // 2 + 4 x 0.75 ms); the re-NACK for the rest waits out that bound
        // from the first NACK, then asks for exactly the one still
        // missing.
        rx.arrive(&enc.coded_packet(7, &mut rng).to_bytes(), 4, due + ms(2));
        rx.quiet(due + ms(5) - Duration::from_micros(1));
        assert_eq!(rx.nacks().len(), 2, "a round trip has not passed");
        rx.quiet(due + ms(5));
        assert_eq!(rx.nacks()[2..], [(7, 1)]);
        // Nothing answers that one (a stalled path, perhaps, rather than
        // a lost repair): the next waits twice the bound.
        rx.quiet(due + ms(15) - Duration::from_micros(1));
        assert_eq!(rx.nacks().len(), 3);
        rx.quiet(due + ms(15));
        assert_eq!(rx.nacks()[3..], [(7, 1)]);
    }

    #[test]
    fn a_stall_opens_a_bounded_lookahead_never_the_whole_object() {
        let obs = TransferObs::new();
        let rec = recovery();
        let cfg = config();
        let reassembly = Reassembly::new(&cfg, &rec, 10_000, &obs);
        let mut rx = HandDriven::new(obs, reassembly);
        let enc = encoder(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Instant::now();
        // Two generations arrive whole, then nothing at all (a dead
        // relay, or a tail lost whole).
        stream(&mut rx, &enc, &mut rng, 0..2, &[], &mut t);
        let last = t - SPACING;
        rx.quiet(last + rec.decode_timeout);
        let ahead: Vec<(u64, u16)> = (2..2 + LOOKAHEAD).map(|g| (g, 4)).collect();
        assert_eq!(rx.nacks(), ahead, "a handful, each for a whole generation");
        // Stall after stall re-asks for those, and only those: nothing
        // proves that anything beyond them was ever sent.
        for round in 2..10 {
            rx.quiet(last + rec.decode_timeout * round);
        }
        assert_eq!(rx.nacks().len(), 9 * LOOKAHEAD as usize);
        assert!(rx.nacks().iter().all(|&(g, _)| g < 2 + LOOKAHEAD));

        // The clock itself: a stall's scan asks about the open units, not
        // about all 10 000.
        let mut clock = NackClock::new(&rec, 10_000);
        clock.arrival(0, t, &rx.obs.recovery);
        let asked = std::cell::Cell::new(0);
        let done = |_| {
            asked.set(asked.get() + 1);
            false
        };
        let mut nacked = Vec::new();
        let m = &rx.obs.recovery;
        clock.poll(t + rec.decode_timeout, m, done, |u| nacked.push(u));
        assert_eq!(nacked, [0, 1, 2, 3, 4]);
        assert!(asked.get() <= 2 * nacked.len(), "{} asked", asked.get());
        assert_eq!(clock.open.len(), 1 + LOOKAHEAD as usize);
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
        // The report is a view of the registry, not a second copy: every
        // ACK — the completion burst included — and every NACK is in both.
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
