//! The file-transfer application over real sockets, with feedback-driven
//! loss recovery.
//!
//! The paper measures how long a receiver "has to wait for
//! retransmissions ... to collect all 4 packets for decoding a
//! generation" under loss; this module is that application, and it
//! exists once: a `source` and a `receiver` state machine, the one
//! `driver` loop that runs either over its socket, and the `chain`
//! builder ([`reliable_chain`]) for the loopback, chaos and failover
//! experiments. The source answers repair requests with *fresh* random
//! combinations (innovative with overwhelming probability, so it never
//! needs to know which packets were lost); the receiver ACKs and NACKs
//! straight back to it in the `ncvnf-dataplane` feedback codec.
//!
//! Both ends are sans-IO [`Endpoint`]s and only the driver reads a
//! clock, sleeps or touches a socket. A best-effort transfer is the
//! source with `max_retries: 0` (done once the last generation leaves)
//! and the receiver with no feedback peer.
//!
//! Recovery acts on **evidence, not timers**: the receiver's `NackClock`
//! asks for a generation as soon as later data shows it short of
//! packets, for a tail one measured round trip after the stream goes
//! quiet, and again a round trip after the last NACK; the source gates
//! retry *k* on the round trip it measures × 4^(k−1), and its erasure
//! estimate puts extra packets only on repair rounds whose failure the
//! paced fresh pass would no longer hide. The durations in
//! [`RecoveryConfig`] are ceilings on all of this, and what is used
//! until a measurement exists.

use std::time::{Duration, Instant};

use ncvnf_rlnc::{AimdConfig, GenerationConfig, RedundancyPolicy, SessionId};

use crate::metrics::RecoveryMetrics;
use crate::socket::SendBatch;

mod chain;
mod driver;
mod receiver;
mod source;

pub use chain::{reliable_chain, ReliableChainReport};
pub use driver::{send_object_reliable, ReliableReceiver, ReliableReport};

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
/// Like [`RelayStats`](crate::RelayStats), this is a typed *view*: the protocol records
/// into `recovery.*` registry cells (a [`RecoveryMetrics`] bundle inside
/// the caller's [`TransferObs`](crate::TransferObs)) and each call returns the delta it
/// contributed. A controller reads the same cells from the registry
/// snapshot.
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

/// What an endpoint tells its driver after a poll.
enum Step {
    /// The endpoint's part of the transfer is over.
    Done,
    /// Poll again, socket drained, at this instant (`None`: nothing is
    /// outstanding, wait for the next frame).
    Wait(Option<Instant>),
}

/// A transfer endpoint with its I/O turned inside out: it reads no clock
/// and owns no socket.
trait Endpoint {
    /// Takes `inbound` at `now` and writes what it wants sent into `out`.
    /// `Some` is one frame off the socket, taken in (the deadline then
    /// returned means nothing). `None` says the socket is drained: the
    /// endpoint acts on all it has taken in and says when to poll next.
    fn poll(&mut self, now: Instant, inbound: Option<&[u8]>, out: &mut SendBatch) -> Step;
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};
    use std::net::{SocketAddr, UdpSocket};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use ncvnf_dataplane::{Feedback, FeedbackKind};
    use ncvnf_rlnc::{ObjectEncoder, PacketView};

    use super::driver::SOCKET_OVERSHOOT;
    use super::receiver::{NackClock, Reassembly, LOOKAHEAD, REORDER_SPAN};
    use super::source::Source;
    use super::*;
    use crate::chaos::{FaultConfig, FaultSocket};
    use crate::metrics::TransferObs;
    use crate::socket::DatagramSocket;

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

    /// Where a source sends data and a receiver sends feedback; no
    /// datagram ever leaves for either.
    const HOPS: [SocketAddr; 1] = [SocketAddr::new(
        std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
        9,
    )];

    fn snap_counter(obs: &TransferObs, name: &str) -> u64 {
        obs.snapshot().counter(name).unwrap_or(0)
    }

    /// An endpoint polled by hand at explicit instants, with every
    /// datagram it asked to send logged in order.
    struct Logged<E> {
        endpoint: E,
        out: SendBatch,
        sent: Vec<Vec<u8>>,
        /// Polls that asked to send anything.
        batches: usize,
    }

    impl<E: Endpoint> Logged<E> {
        fn new(endpoint: E) -> Self {
            Logged {
                endpoint,
                out: SendBatch::new(),
                sent: Vec::new(),
                batches: 0,
            }
        }

        fn poll(&mut self, now: Instant, inbound: Option<&[u8]>) -> Step {
            let step = self.endpoint.poll(now, inbound, &mut self.out);
            self.batches += usize::from(!self.out.is_empty());
            self.sent
                .extend(self.out.iter().map(|(bytes, _)| bytes.to_vec()));
            self.out.clear();
            step
        }
    }

    #[test]
    fn congestion_feedback_cuts_the_loss_estimate_and_pauses() {
        let cfg = config();
        let rec = recovery();
        let obs = TransferObs::new();
        let enc = encoder(4);
        let now = Instant::now();
        let mut src = Source::new(&cfg, &rec, &enc, &HOPS, &obs.recovery, now);
        src.sent = 4;
        src.adaptive.on_resolved(40, 100); // a path that loses 40 %

        // A relay shed our session's packets: what it sheds is not
        // erasure, so the estimate is halved, plus a pause window.
        let frame = Feedback::congestion(cfg.session, 7, 40).to_bytes();
        assert!(src.hear(&frame, now));
        assert_eq!(src.adaptive.loss_estimate(), 0.2);
        assert!(src.paused_until(now).is_some(), "pause window armed");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.congestion_events"), Some(1));
        let pause = snap.histogram("recovery.backpressure_ns").unwrap();
        assert_eq!(pause.max, rec.congestion_pause.as_nanos() as u64);

        // Session 0 is the unattributed wildcard: also honoured.
        let wild = Feedback::congestion(SessionId::new(0), 1, 41).to_bytes();
        assert!(src.hear(&wild, now));
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);

        // A congestion frame for some other session is ignored: no cut,
        // no pause extension, no event.
        let other = Feedback::congestion(SessionId::new(99), 9, 90).to_bytes();
        assert!(!src.hear(&other, now));
        assert_eq!(src.adaptive.loss_estimate(), 0.1);
        assert_eq!(snap_counter(&obs, "recovery.congestion_events"), 2);
    }

    #[test]
    fn backpressure_window_extends_and_expires() {
        let (cfg, rec, obs, enc) = (config(), recovery(), TransferObs::new(), encoder(1));
        let now = Instant::now();
        let mut src = Source::new(&cfg, &rec, &enc, &HOPS, &obs.recovery, now);
        assert!(src.paused_until(now).is_none(), "starts unpaused");
        src.pause_for(Duration::from_millis(50), now);
        src.pause_for(Duration::from_millis(5), now); // shorter: must not shrink
        assert!(src.paused_until(now).is_some());
        assert!(
            src.paused_until(now + Duration::from_millis(20)).is_some(),
            "50ms window survives a later 5ms report"
        );
        let later = now + Duration::from_millis(60);
        assert!(src.paused_until(later).is_none(), "expires");
        assert!(
            src.paused_until(later).is_none(),
            "expired window is cleared, not re-armed"
        );
    }

    #[test]
    fn backpressure_window_starts_at_the_instant_the_frame_arrived() {
        let (cfg, rec, obs, enc) = (config(), recovery(), TransferObs::new(), encoder(1));
        // An hour from the wall clock: a window anchored anywhere but at
        // the frame's own instant would be long over by then.
        let t = Instant::now() + Duration::from_secs(3600);
        let mut src = Source::new(&cfg, &rec, &enc, &HOPS, &obs.recovery, t);
        let frame = Feedback::congestion(cfg.session, 1, 1).to_bytes();
        assert!(src.hear(&frame, t));
        let pause = rec.congestion_pause;
        assert_eq!(src.paused_until(t + pause / 2), Some(t + pause));
        assert_eq!(src.paused_until(t + pause), None);
    }

    #[test]
    fn estimate_counts_first_nacks_and_bursts_follow_it() {
        let cfg = config();
        let rec = recovery();
        let obs = TransferObs::new();
        let nack = |g, count| Feedback::nack(cfg.session, g, count, 0);
        let ack = |g| Feedback::ack(cfg.session, g);
        let enc = encoder(3);
        let t0 = Instant::now();
        let mut src = Source::new(&cfg, &rec, &enc, &HOPS, &obs.recovery, t0);
        src.sent = 3;

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
        let mut src = Source::new(&cfg, &spent, &enc, &HOPS, &obs.recovery, t0);
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

    /// A feedback frame of a scripted source run: handed in by the drain
    /// once `after` datagrams have left (`None`: only a park delivers it).
    type Scripted = (Option<usize>, Vec<u8>);

    /// What a scripted source run did.
    struct ScriptedRun {
        /// The generation of each datagram sent.
        log: Vec<u64>,
        stats: RecoveryStats,
        /// Length of the send log at each park.
        parks: Vec<usize>,
        /// Polls that sent anything.
        batches: usize,
    }

    /// A rate at which packets take no time on the wire.
    const NO_PACING: f64 = 1e15;

    /// Runs the source over a three-generation object against `script`
    /// at `rate_bps` — [`NO_PACING`]: every generation is due the moment
    /// the previous one left — in virtual time, polled the way the driver
    /// polls it: scripted frames due by the send log are drained first; a
    /// wait the driver would sleep through passes; a wait it would park
    /// for (asked to wait with nothing due) ends with the script's next
    /// frame, and there must be one.
    fn run_scripted(rate_bps: f64, rec: &RecoveryConfig, script: Vec<Scripted>) -> ScriptedRun {
        let cfg = TransferConfig {
            rate_bps,
            ..config()
        };
        let (enc, obs) = (encoder(3), TransferObs::new());
        let mut t = Instant::now();
        let mut src = Logged::new(Source::new(&cfg, rec, &enc, &HOPS, &obs.recovery, t));
        let mut script: VecDeque<Scripted> = script.into();
        let mut parks = Vec::new();
        loop {
            let sent = src.sent.len();
            while script
                .front()
                .is_some_and(|(after, _)| after.is_some_and(|a| a <= sent))
            {
                let (_, frame) = script.pop_front().expect("front exists");
                src.poll(t, Some(&frame));
            }
            let due = match src.poll(t, None) {
                Step::Done => break,
                Step::Wait(due) => due.expect("a source always has a deadline"),
            };
            if due <= t + SOCKET_OVERSHOOT {
                t = t.max(due);
                continue;
            }
            parks.push(src.sent.len());
            let (_, frame) = script
                .pop_front()
                .expect("the source parked with nothing left to arrive");
            src.poll(t, Some(&frame));
        }
        let log = src
            .sent
            .iter()
            .map(|d| PacketView::parse(d, 4).expect("data packet").generation())
            .collect();
        let batches = src.batches;
        ScriptedRun {
            log,
            stats: src.endpoint.close(&obs),
            parks,
            batches,
        }
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
        let run = run_scripted(NO_PACING, &rec, script);
        assert_eq!(run.log, [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 2, 2, 2, 2]);
        let stats = run.stats;
        assert_eq!((stats.retransmit_rounds, stats.retransmit_packets), (1, 2));
        assert_eq!((stats.generations_recovered, stats.unrecovered), (1, 0));
        assert_eq!(stats.peak_extra, 4, "2 for 1 is 4 per generation's worth");
        // (b) It parked only for the ACKs, with nothing left to send.
        assert_eq!(run.parks, [14, 14, 14]);

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
        let run = run_scripted(NO_PACING, &rec, script);
        assert_eq!(run.log, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        let stats = run.stats;
        assert_eq!((stats.nacks_received, stats.retransmit_rounds), (2, 1));
        assert_eq!((stats.peak_extra, stats.unrecovered), (4, 0));
        assert_eq!(run.parks, [14, 14, 14]);

        // (d) A NACK for a generation that has not left yet says nothing
        // about loss: no burst, no retry burnt, no loss estimated.
        let script = vec![
            (Some(4), nack(2)),
            (None, ack(0)),
            (None, ack(1)),
            (None, ack(2)),
        ];
        let run = run_scripted(NO_PACING, &rec, script);
        assert_eq!(run.log, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        let stats = run.stats;
        assert_eq!((stats.nacks_received, stats.retransmit_rounds), (0, 0));
        assert_eq!((stats.peak_extra, stats.unrecovered), (0, 0));
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
        let run = run_scripted(5e6, &rec, script);
        let stats = run.stats;
        // Every fresh generation is 4 packets, each in-pass burst the 1
        // asked for; the post-pass burst is 1 / (1 - 3/12) rounded up.
        assert_eq!(run.log, [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
        assert_eq!(stats.initial_packets, 12, "fresh pass at the NC0 floor");
        assert_eq!((stats.retransmit_rounds, stats.retransmit_packets), (3, 4));
        assert_eq!(stats.peak_extra, 4, "2 for 1 is 4 per generation's worth");
        assert_eq!(run.parks, [14, 16, 16, 16]);
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
        let run = run_scripted(NO_PACING, &rec, Vec::new());
        assert_eq!(run.log, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(run.batches, 3, "a generation per send_batch");
        assert!(run.parks.is_empty(), "parked at {:?}", run.parks);
        assert_eq!((run.stats.initial_packets, run.stats.unrecovered), (12, 0));
    }

    impl Logged<Reassembly> {
        /// `wire` arrives at `at`, and the socket is then found drained.
        /// Returns the deadline the drained poll asked for.
        fn arrive(&mut self, wire: &[u8], at: Instant) -> Option<Instant> {
            match self.poll(at, Some(wire)) {
                Step::Done => None,
                Step::Wait(_) => self.quiet(at),
            }
        }

        /// A drained poll at `at` with nothing arrived.
        fn quiet(&mut self, at: Instant) -> Option<Instant> {
            match self.poll(at, None) {
                Step::Done => None,
                Step::Wait(wake) => wake,
            }
        }

        /// The NACKs sent so far, as `(generation, count)`.
        fn nacks(&self) -> Vec<(u64, u16)> {
            self.sent
                .iter()
                .filter_map(|f| Feedback::from_bytes(f).ok())
                .filter(|fb| fb.kind == FeedbackKind::RetransmitRequest)
                .map(|fb| (fb.generation, fb.count))
                .collect()
        }
    }

    /// A receiver for `generations` generations of [`config`]'s layout
    /// that tells [`HOPS`], its registry, the encoder that feeds it and
    /// its rng.
    fn receiver(generations: usize) -> (Logged<Reassembly>, TransferObs, ObjectEncoder, StdRng) {
        let obs = TransferObs::new();
        let peer = Some(HOPS[0]);
        let rx = Reassembly::new(&config(), &recovery(), generations as u64, peer, &obs);
        let rng = StdRng::seed_from_u64(5);
        (Logged::new(rx), obs, encoder(generations), rng)
    }

    const SPACING: Duration = Duration::from_micros(100);

    /// Streams `generations` in order, a packet every
    /// [`SPACING`] from `*t`, leaving out the `(generation, index)` pairs
    /// in `lost`. Returns when each NACK showed up in the log.
    fn stream(
        rx: &mut Logged<Reassembly>,
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
                    rx.arrive(&enc.coded_packet(g, rng).to_bytes(), *t);
                    nacked_at.resize(rx.nacks().len(), *t);
                }
                *t += SPACING;
            }
        }
        nacked_at
    }

    #[test]
    fn a_gap_is_nacked_as_soon_as_later_data_proves_it() {
        let (mut rx, obs, enc, mut rng) = receiver(10);
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
        let delay = obs.snapshot();
        let delay = delay.histogram("recovery.nack_delay_ns").unwrap();
        assert_eq!(delay.count, 1);
        assert!(Duration::from_nanos(delay.max) < recovery().decode_timeout / 4);
    }

    #[test]
    fn reordering_inside_the_allowance_is_not_loss() {
        let (mut rx, obs, enc, mut rng) = receiver(8);
        let mut t = Instant::now();
        // Generation 2's last packet arrives behind the next two
        // generations: 9 spacings late, inside the 16 allowed.
        let nacked_at = stream(&mut rx, &enc, &mut rng, 0..5, &[(2, 3)], &mut t);
        rx.arrive(&enc.coded_packet(2, &mut rng).to_bytes(), t);
        t += SPACING;
        for g in 5..8 {
            for _ in 0..4 {
                rx.arrive(&enc.coded_packet(g, &mut rng).to_bytes(), t);
                t += SPACING;
            }
        }
        assert!(nacked_at.is_empty() && rx.nacks().is_empty());
        assert_eq!(snap_counter(&obs, "rlnc.decode.generations"), 8);
    }

    #[test]
    fn a_tail_waits_for_the_ceiling_until_a_round_trip_is_measured() {
        let (mut rx, _obs, enc, mut rng) = receiver(2);
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
        let (mut rx, obs, enc, mut rng) = receiver(8);
        let rec = recovery();
        let ms = Duration::from_millis;
        let mut t = Instant::now();
        // A gap in generation 1, NACKed on evidence; its repair arrives
        // 2 ms after the NACK: one round-trip sample, bound 2 + 4 x 1 ms.
        let nacked_at = stream(&mut rx, &enc, &mut rng, 0..7, &[(1, 0)], &mut t);
        assert_eq!(rx.nacks(), [(1, 1)]);
        let repair = enc.coded_packet(1, &mut rng).to_bytes();
        rx.arrive(&repair, nacked_at[0] + ms(2));
        let rtt = obs.snapshot();
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
        rx.arrive(&enc.coded_packet(7, &mut rng).to_bytes(), due + ms(2));
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
        let reassembly = Reassembly::new(&config(), &rec, 10_000, Some(HOPS[0]), &obs);
        let mut rx = Logged::new(reassembly);
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
        clock.arrival(0, t, &obs.recovery);
        let asked = std::cell::Cell::new(0);
        let done = |_| {
            asked.set(asked.get() + 1);
            false
        };
        let mut nacked = Vec::new();
        clock.poll(t + rec.decode_timeout, &obs.recovery, done, |u| {
            nacked.push(u)
        });
        assert_eq!(nacked, [0, 1, 2, 3, 4]);
        assert!(asked.get() <= 2 * nacked.len(), "{} asked", asked.get());
        assert_eq!(clock.open.len(), 1 + LOOKAHEAD as usize);
    }

    /// Which end a datagram on the delay line is for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum End {
        Source,
        Receiver,
    }

    /// What one virtual-time transfer did.
    #[derive(Debug, PartialEq)]
    struct LoopRun {
        /// The receiver's reassembled object (`None`: never completed).
        object: Option<Vec<u8>>,
        source: RecoveryStats,
        receiver: RecoveryStats,
        /// Fresh generations that left above the policy floor.
        above_floor: usize,
        /// Generations none of whose ACKs reached the source.
        never_acked: u64,
        /// Virtual time from the first poll to the source's end.
        elapsed: Duration,
    }

    /// A datagram in flight: when it lands, its sequence number (ties
    /// land in sending order), which end it is for, and its bytes.
    type InFlight = (Instant, u64, End, Vec<u8>);

    /// An in-memory path both ways: a heap of datagrams in flight that
    /// holds each for `delay` and drops it with probability `loss`,
    /// drawn from its own seeded rng.
    struct DelayLine {
        heap: BinaryHeap<Reverse<InFlight>>,
        drops: StdRng,
        seq: u64,
        delay: Duration,
        loss: f64,
    }

    impl DelayLine {
        /// Puts what `out` holds on the line towards `to`, sent at `now`.
        fn ship(&mut self, out: &mut SendBatch, to: End, now: Instant) {
            for (bytes, _) in out.iter() {
                if !self.drops.gen_bool(self.loss) {
                    let frame = (now + self.delay, self.seq, to, bytes.to_vec());
                    self.heap.push(Reverse(frame));
                }
                self.seq += 1;
            }
            out.clear();
        }

        /// When the next datagram lands.
        fn next(&self) -> Option<Instant> {
            self.heap.peek().map(|Reverse((due, ..))| *due)
        }

        /// The next datagram to have landed by `now`.
        fn landed(&mut self, now: Instant) -> Option<(End, Vec<u8>)> {
            self.next().filter(|&due| due <= now)?;
            let Reverse((_, _, to, frame)) = self.heap.pop()?;
            Some((to, frame))
        }
    }

    /// Runs one transfer of `object` from a source to a receiver through
    /// a [`DelayLine`] seeded with `seed`, in virtual time: no socket, no
    /// sleep. Each end is polled the way the driver polls it: every frame
    /// landed is handed in, then a drained poll; a drained poll is also
    /// due at the deadline it asked for. Once done the receiver is gone,
    /// as its thread would be.
    fn transfer_in_virtual_time(
        cfg: &TransferConfig,
        rec: &RecoveryConfig,
        object: &[u8],
        seed: u64,
        delay: Duration,
        loss: f64,
    ) -> LoopRun {
        let enc = ObjectEncoder::new(cfg.generation, cfg.session, object).unwrap();
        let (src_obs, rx_obs) = (TransferObs::new(), TransferObs::new());
        let t0 = Instant::now();
        let to_receiver = [([127, 0, 0, 1], 2).into()];
        let mut src = Source::new(cfg, rec, &enc, &to_receiver, &src_obs.recovery, t0);
        let peer = Some(([127, 0, 0, 1], 1).into());
        let mut rx = Reassembly::new(cfg, rec, enc.generations(), peer, &rx_obs);
        let blocks = cfg.generation.blocks_per_generation();
        let floor = cfg.redundancy.packets_per_generation(blocks);
        let mut line = DelayLine {
            heap: BinaryHeap::new(),
            drops: StdRng::seed_from_u64(seed),
            seq: 0,
            delay,
            loss,
        };
        let mut out = SendBatch::new();
        let (mut src_at, mut rx_at) = (Some(t0), None);
        let (mut above_floor, mut rx_done) = (0, false);
        let mut acked = vec![false; enc.generations() as usize];
        let elapsed = loop {
            let now = [src_at, rx_at, line.next()].into_iter().flatten().min();
            let now = now.expect("the source always has a deadline");
            assert!(now - t0 < Duration::from_secs(600), "seed {seed}: no end");
            let (mut src_woke, mut rx_woke) = (src_at.is_some_and(|at| at <= now), false);
            while let Some((to, frame)) = line.landed(now) {
                if to == End::Source {
                    let fb = Feedback::from_bytes(&frame).expect("feedback");
                    if fb.kind == FeedbackKind::GenerationAck {
                        acked[fb.generation as usize] = true;
                    }
                    src.poll(now, Some(&frame), &mut out);
                    src_woke = true;
                } else if !rx_done {
                    rx_done = matches!(rx.poll(now, Some(&frame), &mut out), Step::Done);
                    rx_woke = true;
                    line.ship(&mut out, End::Source, now);
                }
            }
            if src_woke {
                let sent = src.sent;
                let step = src.poll(now, None, &mut out);
                above_floor += usize::from(src.sent > sent && src.per_gen > floor);
                line.ship(&mut out, End::Receiver, now);
                match step {
                    Step::Done => break now - t0,
                    Step::Wait(at) => src_at = at,
                }
            }
            if rx_done {
                rx_at = None;
            } else if rx_woke || rx_at.is_some_and(|at| at <= now) {
                match rx.poll(now, None, &mut out) {
                    Step::Done => rx_done = true,
                    Step::Wait(at) => rx_at = at,
                }
                line.ship(&mut out, End::Source, now);
            }
        };
        LoopRun {
            object: rx.done.take().map(|(object, _)| object),
            source: src.close(&src_obs),
            receiver: recovery_since(&rx_obs.recovery, &RecoveryStats::default()),
            above_floor,
            never_acked: acked.iter().filter(|&&a| !a).count() as u64,
            elapsed,
        }
    }

    /// An object of `generations` generations of `cfg`'s layout, less its
    /// length prefix, every byte telling its position.
    fn object(cfg: &TransferConfig, generations: usize) -> Vec<u8> {
        let len = generations * cfg.generation.generation_payload() - 8;
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Every seed delivers the object byte for byte and replays exactly.
    /// What the source gives up on is exactly what no ACK told it about:
    /// the receiver's completion burst is its last word, so a generation
    /// whose ACKs were all lost is waited on for `idle_timeout` and then
    /// counted unrecovered though it was delivered (ROADMAP: lost final
    /// ACKs).
    #[test]
    fn virtual_time_transfers_deliver_exactly_and_replay_by_seed() {
        const SEEDS: u64 = 128;
        let (cfg, rec) = (config(), RecoveryConfig::default());
        let object = object(&cfg, 24);
        let (delay, loss) = (Duration::from_millis(1), 0.1);
        let (mut recovered, mut short) = (0, 0);
        for seed in 0..SEEDS {
            let repro = format!(
                "repro: transfer_in_virtual_time(&config(), &RecoveryConfig::default(), \
                 &object(&config(), 24), {seed}, {delay:?}, {loss})"
            );
            let run = transfer_in_virtual_time(&cfg, &rec, &object, seed, delay, loss);
            assert!(
                run.object.as_ref() == Some(&object),
                "not delivered; {repro}"
            );
            assert_eq!(run.source.unrecovered, run.never_acked, "{repro}");
            let again = transfer_in_virtual_time(&cfg, &rec, &object, seed, delay, loss);
            assert_eq!(run, again, "a rerun differs; {repro}");
            recovered += run.source.generations_recovered;
            short += u64::from(run.source.unrecovered > 0);
        }
        assert!(recovered > SEEDS, "10 % loss each way called for repairs");
        eprintln!("{SEEDS} seeds: {short} ended with delivered generations never ACKed");
    }

    /// The fresh pass puts extras on a generation only once a measured
    /// repair round trip outlasts the pacing time they would take on
    /// what is left to send. One transfer_lossy-sized object at 0 and
    /// 25 ms one-way delay counts how often that happens.
    #[test]
    fn fresh_policy_under_a_propagation_delay() {
        let cfg = TransferConfig {
            session: SessionId::new(4),
            ..TransferConfig::default()
        };
        let rec = RecoveryConfig::default();
        let object = object(&cfg, 180);
        let mut above = Vec::new();
        for delay in [Duration::ZERO, Duration::from_millis(25)] {
            let run = transfer_in_virtual_time(&cfg, &rec, &object, 2017, delay, 0.1);
            assert!(run.object.as_ref() == Some(&object), "at {delay:?}");
            assert_eq!(run.source.unrecovered, run.never_acked, "at {delay:?}");
            eprintln!(
                "one-way {delay:?}: {} of 180 fresh generations above the floor, \
                 {} repair rounds, {} never ACKed, {:?} virtual",
                run.above_floor, run.source.retransmit_rounds, run.never_acked, run.elapsed
            );
            above.push(run.above_floor);
        }
        // A finding, not a goal (EXPERIMENTS.md): at 25 ms the first
        // repair round trip is measured only after the whole pass has
        // left, and at 0 ms it is too short to hide an extra packet.
        assert_eq!(above, [0, 0], "fresh generations above the floor");
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
        let timeout = source_socket.read_timeout().unwrap();
        assert_eq!(timeout, None, "the socket is handed back blocking");
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
        let obs = TransferObs::new();
        obs.recovery.nacks_sent.add(3);
        obs.recovery.retransmit_packets.add(9);
        obs.recovery.generations_recovered.add(2);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.nacks_sent"), Some(3));
        assert_eq!(snap.counter("recovery.retransmit_packets"), Some(9));
        assert_eq!(snap.counter("recovery.generations_recovered"), Some(2));
    }
}
