//! The receiving end of a transfer as a state machine: it is told the
//! time, handed each datagram, and writes its ACKs and NACKs into its
//! driver's outbound batch.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ncvnf_dataplane::Feedback;
use ncvnf_obs::{Counter, TraceKind};
use ncvnf_rlnc::{ObjectDecoder, PacketView, RlncMetrics, SessionId};

use super::{Endpoint, Estimate, RecoveryConfig, Step, TransferConfig};
use crate::metrics::{RecoveryMetrics, TransferObs};
use crate::socket::SendBatch;

/// Spacings of the in-order stream a generation may lag later data by before
/// it counts as lost: what absorbs reordering between relay shards.
pub(super) const REORDER_SPAN: u32 = 16;

/// Units past the highest one seen that a stall opens: enough to ask
/// for a tail lost whole or for what a dead relay swallowed, a few at a
/// time, without ever NACKing the rest of the object.
pub(super) const LOOKAHEAD: u64 = 4;

/// One open unit of a [`NackClock`].
pub(super) struct Unit {
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
/// been observed and fed explicit instants.
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
pub(super) struct NackClock {
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
    pub(super) open: VecDeque<Unit>,
}

impl NackClock {
    pub(super) fn new(recovery: &RecoveryConfig, units: u64) -> Self {
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
    pub(super) fn arrival(&mut self, unit: u64, now: Instant, metrics: &RecoveryMetrics) {
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
    pub(super) fn poll(
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

/// Queues `fb` for the source at `peer` and counts it in `sent`. A
/// best-effort receiver has no peer: it says, and counts, nothing.
fn tell(out: &mut SendBatch, peer: Option<SocketAddr>, fb: Feedback, sent: &Counter) {
    if let Some(peer) = peer {
        out.push_bytes(&fb.to_bytes(), &[peer]);
        sent.inc();
    }
}

/// The one receiver. Each inbound poll decodes one of `session`'s data
/// packets (`blocks` is their coefficient count, which is not on the
/// wire) and ACKs what it completes; each drained poll NACKs, with the
/// rank still missing, what its [`NackClock`] says is due. It is done,
/// after a burst that re-ACKs every generation, once all is decoded.
pub(super) struct Reassembly {
    session: SessionId,
    rlnc: RlncMetrics,
    metrics: RecoveryMetrics,
    /// Where feedback goes; `None` for a best-effort receiver.
    peer: Option<SocketAddr>,
    generations: u64,
    blocks: usize,
    decoder: Option<ObjectDecoder>,
    /// Packets that arrived per generation, reported into the codec's
    /// decode histogram when the generation closes.
    gen_packets: Vec<u64>,
    acked: Vec<bool>,
    clock: NackClock,
    /// Data packets of this session taken in.
    pub(super) packets: u64,
    /// The reassembled bytes, and when the last packet they needed came.
    pub(super) done: Option<(Vec<u8>, Instant)>,
}

impl Reassembly {
    pub(super) fn new(
        config: &TransferConfig,
        recovery: &RecoveryConfig,
        generations: u64,
        peer: Option<SocketAddr>,
        obs: &TransferObs,
    ) -> Self {
        let n = generations as usize;
        Reassembly {
            session: config.session,
            rlnc: obs.rlnc.clone(),
            metrics: obs.recovery.clone(),
            peer,
            generations,
            blocks: config.generation.blocks_per_generation(),
            decoder: Some(ObjectDecoder::new(config.generation, generations)),
            gen_packets: vec![0; n],
            acked: vec![false; n],
            clock: NackClock::new(recovery, generations),
            packets: 0,
            done: None,
        }
    }
}

impl Endpoint for Reassembly {
    fn poll(&mut self, now: Instant, inbound: Option<&[u8]>, out: &mut SendBatch) -> Step {
        let packet = match inbound {
            // Stray feedback and foreign sessions are not data.
            Some(frame) => match PacketView::parse(frame, self.blocks) {
                Ok(packet) if packet.session() == self.session => Some(packet),
                _ => return Step::Wait(None),
            },
            // A best-effort receiver has no one to tell what it lacks.
            None if self.peer.is_none() => return Step::Wait(None),
            None => None,
        };
        let (session, generations, peer) = (self.session, self.generations, self.peer);
        let Some(dec) = self.decoder.as_mut() else {
            return Step::Done;
        };
        let m = &self.metrics;
        if let Some(pkt) = packet {
            self.packets += 1;
            let gen = pkt.generation();
            let _ = dec.receive_view(pkt);
            if gen < generations {
                let gi = gen as usize;
                self.clock.arrival(gen, now, m);
                self.gen_packets[gi] += 1;
                if dec.generation_complete(gen) && !self.acked[gi] {
                    self.acked[gi] = true;
                    tell(out, peer, Feedback::ack(session, gen), &m.acks_sent);
                    self.rlnc.record_generation_decoded(self.gen_packets[gi]);
                    m.trace
                        .push(TraceKind::GenerationDecoded, gen, self.gen_packets[gi]);
                }
            }
        }
        if dec.is_complete() {
            // Completion burst: re-ACK everything so a lost ACK
            // cannot leave the source retrying.
            for g in 0..generations {
                tell(out, peer, Feedback::ack(session, g), &m.acks_sent);
            }
            let object = self.decoder.take().and_then(|d| d.into_object().ok());
            self.done = Some((object.unwrap_or_default(), now));
            return Step::Done;
        }
        if packet.is_some() {
            return Step::Wait(None);
        }
        let (dec, blocks) = (&*dec, self.blocks);
        let wake = self.clock.poll(
            now,
            m,
            |g| dec.generation_complete(g),
            |g| {
                let missing = (blocks - dec.generation_rank(g).unwrap_or(0)) as u16;
                let mut bitmap = 0u32;
                for c in dec.generation_missing_columns(g) {
                    if c < 32 {
                        bitmap |= 1 << c;
                    }
                }
                let nack = Feedback::nack(session, g, missing, bitmap);
                tell(out, peer, nack, &m.nacks_sent);
            },
        );
        Step::Wait(wake)
    }
}
