//! The sending end of a transfer as a state machine: it is told the
//! time, handed each feedback frame, and writes every coded packet
//! straight into its driver's outbound batch.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ncvnf_dataplane::{Feedback, FeedbackKind};
use ncvnf_obs::TraceKind;
use ncvnf_rlnc::{AdaptiveRedundancy, ObjectEncoder};

use super::{
    recovery_since, Endpoint, Estimate, RecoveryConfig, RecoveryStats, Step, TransferConfig,
};
use crate::metrics::{RecoveryMetrics, TransferObs};
use crate::socket::SendBatch;

/// Most of a late emission's lateness the pacer lets the source win
/// back by sending early afterwards; lateness beyond it (an idle tail, a
/// congestion pause) is forgiven instead of repaid as a line-rate burst.
const PACE_CREDIT: Duration = Duration::from_millis(1);

/// Per-generation bookkeeping on the source side.
#[derive(Clone)]
pub(super) struct GenState {
    acked: bool,
    /// Packets requested by the NACKs of the open repair round (those
    /// since the last burst); `None` when nothing awaits repair.
    pub(super) pending_nack: Option<u16>,
    retries: u32,
    /// When the last repair burst left (the ACK it earns times a round
    /// trip).
    burst_at: Instant,
    /// Earliest instant another NACK will be honoured (retry gate).
    pub(super) next_retry: Instant,
}

/// The one source: per-generation progress from ACK/NACK [`Feedback`]
/// frames, retries gated on the measured round trip, the erasure-rate
/// redundancy controller, the pacer, and the pause `Congestion` frames
/// (kind 5) from overloaded relays impose.
pub(super) struct Source<'a> {
    config: &'a TransferConfig,
    recovery: &'a RecoveryConfig,
    metrics: &'a RecoveryMetrics,
    encoder: &'a ObjectEncoder,
    next_hops: &'a [SocketAddr],
    rng: StdRng,
    pub(super) gens: Vec<GenState>,
    /// Generations the fresh pass has emitted; a NACK at or beyond it
    /// says nothing about loss.
    pub(super) sent: u64,
    /// Generations not yet ACKed.
    open: usize,
    /// Open generations whose retry budget is used up.
    spent: usize,
    /// Generations with a NACK awaiting its repair round, oldest first.
    pub(super) nacked: Vec<usize>,
    pub(super) adaptive: AdaptiveRedundancy,
    /// Packets the last fresh generation left with.
    pub(super) per_gen: usize,
    /// Repair burst → the ACK it earned.
    rtt: Estimate,
    /// Pacing deadline: the rate budget allows the next emission now or
    /// after this instant.
    pace: Instant,
    /// Packets emitted so far (the round-robin cursor over next hops).
    packets: u64,
    /// Time on the wire the last emission charged per packet.
    packet_time: Duration,
    /// No data leaves the source before this instant.
    pause_until: Option<Instant>,
    /// Fresh data and feedback both count as signs of life.
    last_activity: Instant,
    /// Feedback for this transfer arrived since the last drained poll.
    heard: bool,
    /// The `recovery.*` cells when the transfer began.
    before: RecoveryStats,
}

impl<'a> Source<'a> {
    /// A source for `encoder`'s object, none of it sent, at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `next_hops` is empty.
    pub(super) fn new(
        config: &'a TransferConfig,
        recovery: &'a RecoveryConfig,
        encoder: &'a ObjectEncoder,
        next_hops: &'a [SocketAddr],
        metrics: &'a RecoveryMetrics,
        now: Instant,
    ) -> Self {
        assert!(!next_hops.is_empty(), "need at least one next hop");
        let untouched = GenState {
            acked: false,
            pending_nack: None,
            retries: 0,
            burst_at: now,
            next_retry: now,
        };
        let open = encoder.generations() as usize;
        Source {
            config,
            recovery,
            metrics,
            encoder,
            next_hops,
            rng: StdRng::seed_from_u64(config.seed),
            gens: vec![untouched; open],
            sent: 0,
            open,
            spent: if recovery.max_retries == 0 { open } else { 0 },
            nacked: Vec::new(),
            adaptive: AdaptiveRedundancy::from_policy(config.redundancy, recovery.aimd),
            per_gen: config.generation.blocks_per_generation(),
            rtt: Estimate::default(),
            pace: now,
            packets: 0,
            packet_time: Duration::ZERO,
            pause_until: None,
            last_activity: now,
            heard: false,
            before: recovery_since(metrics, &RecoveryStats::default()),
        }
    }

    /// Opens a repair round for `generation`: consumes its pending NACK
    /// and one retry, arms the retry gate, and returns the burst size.
    /// Should the round fail, the next waits out that gate: while the
    /// fresh pass has longer than that left to run (`pass_left`) the
    /// wait is hidden behind it and the burst is the packets asked for;
    /// once it has not, the burst carries the erasure estimate's margin.
    pub(super) fn repair_round(
        &mut self,
        generation: usize,
        now: Instant,
        pass_left: Duration,
    ) -> usize {
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
    /// that arrived at `now`; `Congestion` reports never get here.
    /// Returns true if it was feedback for this transfer.
    pub(super) fn absorb(&mut self, fb: Feedback, now: Instant) -> bool {
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
            // Congestion frames are the source's (`Source::hear`).
            FeedbackKind::Heartbeat | FeedbackKind::Wake | FeedbackKind::Congestion => {}
        }
        true
    }

    /// Applies one frame that reached the source at `now`: a `Congestion`
    /// report arms the pause, the rest is the source's own feedback.
    /// Returns true if the frame was for this transfer.
    pub(super) fn hear(&mut self, frame: &[u8], now: Instant) -> bool {
        let Ok(fb) = Feedback::from_bytes(frame) else {
            return false;
        };
        if fb.kind != FeedbackKind::Congestion {
            return self.absorb(fb, now);
        }
        // Session 0 is the wildcard for sheds the relay could not
        // attribute.
        if fb.session != self.config.session && fb.session.value() != 0 {
            return false;
        }
        // What a relay sheds is not erasure: the estimate is cut, on top
        // of the send pause.
        self.adaptive.on_congestion();
        let pause = self.recovery.congestion_pause;
        self.pause_for(pause, now);
        self.metrics.congestion_events.inc();
        self.metrics.backpressure_ns.record(pause.as_nanos() as u64);
        true
    }

    /// Extends the pause window to `pause` past `now` (never shortens it).
    pub(super) fn pause_for(&mut self, pause: Duration, now: Instant) {
        let until = now + pause;
        self.pause_until = Some(self.pause_until.map_or(until, |t| t.max(until)));
    }

    /// When sends may resume, while they should hold off; clears the
    /// window once it expires.
    pub(super) fn paused_until(&mut self, now: Instant) -> Option<Instant> {
        self.pause_until = self.pause_until.filter(|&t| now < t);
        self.pause_until
    }

    /// Writes `count` packets of `generation` into `out` — fresh data, or
    /// with `repair` one retransmission round — `now` being no earlier
    /// than `due`, and charges their bytes on the wire (28 of IP and UDP
    /// header each) to the rate budget.
    fn emit(
        &mut self,
        generation: u64,
        repair: bool,
        count: usize,
        due: Instant,
        now: Instant,
        out: &mut SendBatch,
    ) {
        let start = out.parts().0.len();
        for _ in 0..count {
            let hop = self.next_hops[(self.packets as usize) % self.next_hops.len()];
            let (encoder, rng) = (self.encoder, &mut self.rng);
            out.push_wire(|w| encoder.coded_wire_into(generation, rng, w), &[hop]);
            self.packets += 1;
        }
        let m = self.metrics;
        if repair {
            m.retransmit_rounds.inc();
            m.retransmit_packets.add(count as u64);
            m.trace
                .push(TraceKind::RepairBurst, generation, count as u64);
        } else {
            m.initial_packets.add(count as u64);
        }
        m.pace_lag_ns
            .record(now.saturating_duration_since(due).as_nanos() as u64);
        let wire_bits = (out.parts().0.len() - start + 28 * count) as f64 * 8.0;
        let wire_time = Duration::from_secs_f64(wire_bits / self.config.rate_bps);
        self.packet_time = wire_time / count.max(1) as u32;
        let floor = now.checked_sub(PACE_CREDIT).unwrap_or(now);
        self.pace = self.pace.max(floor) + wire_time;
    }

    /// Writes every repair burst whose gate (the pacer's included) has
    /// passed into `out`; returns `wake` lowered to the earliest gate
    /// still ahead.
    fn repair(&mut self, now: Instant, mut wake: Instant, out: &mut SendBatch) -> Instant {
        let left = (self.gens.len() as u64 - self.sent) as u32;
        let pass_left = self.packet_time * self.per_gen as u32 * left;
        let mut kept = 0;
        for i in 0..self.nacked.len() {
            let g = self.nacked[i];
            if self.gens[g].pending_nack.is_none() {
                continue; // ACKed meanwhile
            }
            let due = self.gens[g].next_retry.max(self.pace);
            if due <= now {
                let burst = self.repair_round(g, now, pass_left);
                self.emit(g as u64, true, burst, due, now, out);
            } else {
                wake = wake.min(due);
                self.nacked[kept] = g;
                kept += 1;
            }
        }
        self.nacked.truncate(kept);
        wake
    }

    /// One generation, at the policy floor — unless a repair round trip
    /// has been measured to outlast the pacing time extras would take on
    /// everything still to leave, in which case it carries them.
    fn fresh(&mut self, now: Instant, out: &mut SendBatch) {
        let blocks = self.config.generation.blocks_per_generation();
        let left = (self.gens.len() as u64 - self.sent) as f64;
        let hideable = self.rtt.mean().map_or(0.0, |rtt| {
            rtt.as_secs_f64() / (self.packet_time.as_secs_f64() * left)
        });
        let policy = self.adaptive.fresh_policy(blocks, hideable as u32);
        self.per_gen = policy.packets_per_generation(blocks);
        let generation = self.sent;
        self.sent += 1;
        self.emit(generation, false, self.per_gen, self.pace, now, out);
    }

    /// The transfer is over: publishes what the source was still waiting
    /// on as `recovery.unrecovered` and where the redundancy ended up, and
    /// returns the delta the transfer contributed to `obs`.
    pub(super) fn close(self, obs: &TransferObs) -> RecoveryStats {
        let m = self.metrics;
        // A best-effort source waited on nothing, so gave up on nothing.
        if self.recovery.max_retries > 0 {
            m.unrecovered.add(self.open as u64);
        }
        // Publish what the controller estimated and applied as gauges.
        m.loss_estimate.set(self.adaptive.loss_estimate());
        obs.rlnc.observe_redundancy(&self.adaptive);
        RecoveryStats {
            peak_extra: self.adaptive.peak_extra().round() as u32,
            ..recovery_since(m, &self.before)
        }
    }
}

/// Each drained poll answers every repair request whose gate has passed —
/// repairs interleave with fresh data — writes the next fresh burst when
/// the rate budget allows, and otherwise asks to be polled again at the
/// earliest of the pacing deadline, a retry gate, the end of a
/// congestion pause and the idle deadline. The source is done once
/// every generation has left and is ACKed or out of retries, or once the
/// receiver has been silent for `idle_timeout`.
impl Endpoint for Source<'_> {
    fn poll(&mut self, now: Instant, inbound: Option<&[u8]>, out: &mut SendBatch) -> Step {
        if let Some(frame) = inbound {
            self.heard |= self.hear(frame, now);
            return Step::Wait(None);
        }
        if self.sent == self.gens.len() as u64 && self.open == self.spent {
            return Step::Done;
        }
        if std::mem::take(&mut self.heard) {
            self.last_activity = now;
        }
        let idle_deadline = self.last_activity + self.recovery.idle_timeout;
        let mut wake = idle_deadline;
        let sent = self.packets;
        if let Some(resume) = self.paused_until(now) {
            // Backpressure holds fresh data and repairs alike: an
            // overloaded relay gains nothing from packets it would shed.
            wake = wake.min(resume);
        } else {
            wake = self.repair(now, wake, out);
            if self.sent < self.gens.len() as u64 {
                if self.pace <= now {
                    self.fresh(now, out);
                    self.last_activity = now;
                } else {
                    wake = wake.min(self.pace);
                }
            }
        }
        if self.packets != sent {
            // Take in what arrived meanwhile before deciding anything else.
            return Step::Wait(Some(now));
        }
        if now >= idle_deadline {
            return Step::Done; // the receiver went silent
        }
        Step::Wait(Some(wake))
    }
}
