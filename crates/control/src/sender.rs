//! Reliable, epoch-fenced control-signal delivery.
//!
//! The paper's controller pushes signals over UDP fire-and-forget; a
//! lost `NC_FORWARD_TAB` silently leaves a relay routing into a black
//! hole. [`SignalSender`] closes that gap: every push is wrapped in a
//! [`FencedSignal`](crate::FencedSignal) (controller epoch +
//! per-destination sequence number), sent, and retransmitted with
//! exponential backoff until the receiver acknowledges that exact
//! sequence number or the retry budget runs out. Receivers deduplicate
//! by sequence number, so at-least-once delivery becomes exactly-once
//! *application* (DESIGN.md §13). The receiver's answer is an [`Ack`].
//!
//! Two parts: the [`exchange`] table is the state machine (framing, ACK
//! matching, the retry schedule, told the time), and [`SignalSender`] is
//! the one loop that runs it over a socket. Every call — one push, a
//! stats query, a wave of pushes, a sweep of queries — begins its
//! exchanges in the table and blocks on the socket until the earliest
//! deadline, so requests to different relays wait out their timeouts
//! together.

pub mod exchange;

use std::error::Error;
use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use crate::autoscale::ControlLink;
use crate::metrics::ControlMetrics;
use crate::signal::Signal;
use exchange::{Answer, Completed, ExchangeTable};

/// The retry policy, which is fixed (150 ms ACK window, 5 attempts,
/// 25 ms × 2^(n−1) backoff; see [`exchange`]). [`SignalSender::new`]
/// takes one so its callers need not change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderConfig {
    _fixed: (),
}

/// Why a push did not land.
#[derive(Debug)]
pub enum SendError {
    /// A socket operation failed outright.
    Io(std::io::Error),
    /// Every attempt timed out without a matching ACK.
    Timeout {
        /// Transmission attempts made.
        attempts: u32,
    },
    /// The receiver is fenced on a newer controller epoch — this
    /// controller incarnation has been superseded and must stop.
    StaleEpoch,
    /// The receiver decoded the signal but refused to apply it.
    Rejected(String),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Io(e) => write!(f, "signal push I/O error: {e}"),
            SendError::Timeout { attempts } => {
                write!(f, "no ACK after {attempts} attempts")
            }
            SendError::StaleEpoch => write!(f, "fenced off: receiver holds a newer epoch"),
            SendError::Rejected(reason) => write!(f, "receiver rejected signal: {reason}"),
        }
    }
}

impl Error for SendError {}

/// Proof of delivery for one push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReceipt {
    /// The sequence number the receiver acknowledged.
    pub seq: u64,
    /// Transmission attempts it took.
    pub attempts: u32,
    /// Push-to-ACK latency (of the successful attempt's wait).
    pub rtt: Duration,
}

/// Why a receiver refused a control datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// A bare frame other than `NC_STATS` (refused before the fence).
    Unfenced,
    /// Not a control frame at all (refused before the fence).
    BadFrame,
    /// Fenced by a superseded controller epoch.
    StaleEpoch,
    /// An `NC_FORWARD_TAB` whose table does not parse.
    BadTable,
}

impl Refusal {
    const ALL: [Refusal; 4] = [
        Refusal::Unfenced,
        Refusal::BadFrame,
        Refusal::StaleEpoch,
        Refusal::BadTable,
    ];

    /// The reason word on the wire.
    fn as_str(self) -> &'static str {
        match self {
            Refusal::Unfenced => "unfenced",
            Refusal::BadFrame => "bad-frame",
            Refusal::StaleEpoch => "stale-epoch",
            Refusal::BadTable => "bad-table",
        }
    }
}

/// A receiver's answer to one control datagram: the reply grammar,
/// written by [`Daemon`](crate::Daemon) and parsed by [`SignalSender`].
/// One UDP datagram of text:
///
/// ```text
/// OK <seq>                 applied (or a duplicate of an applied frame)
/// ERR stale-epoch <seq>    fenced off by a newer controller epoch
/// ERR bad-table <seq>      decoded but rejected
/// ERR <reason>             refused before the fence (unfenced, bad-frame)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    /// The frame with this sequence number is applied.
    Ok {
        /// Sequence number of the frame answered.
        seq: u64,
    },
    /// The frame was refused.
    Err {
        /// Why.
        reason: Refusal,
        /// Sequence number of the frame answered; `None` when it was
        /// refused before its fence was read.
        seq: Option<u64>,
    },
}

impl fmt::Display for Ack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Ack::Ok { seq } => write!(f, "OK {seq}"),
            Ack::Err { reason, seq } => {
                write!(f, "ERR {}", reason.as_str())?;
                seq.map_or(Ok(()), |seq| write!(f, " {seq}"))
            }
        }
    }
}

impl Ack {
    /// Parses an acknowledgement datagram. Returns `None` for anything
    /// else (e.g. an `NC_STATS` JSON reply).
    pub fn parse(reply: &[u8]) -> Option<Ack> {
        let text = std::str::from_utf8(reply).ok()?;
        let mut parts = text.split_whitespace();
        let ack = match parts.next()? {
            "OK" => Ack::Ok {
                seq: parts.next()?.parse().ok()?,
            },
            "ERR" => {
                let word = parts.next()?;
                let reason = Refusal::ALL.into_iter().find(|r| r.as_str() == word)?;
                let seq = match parts.next() {
                    Some(seq) => Some(seq.parse().ok()?),
                    None => None,
                };
                Ack::Err { reason, seq }
            }
            _ => return None,
        };
        parts.next().is_none().then_some(ack)
    }

    /// Whether this answers the push of `seq`. A refusal before the fence
    /// carries no seq: it answers the push in flight.
    pub(crate) fn answers(self, seq: u64) -> bool {
        match self {
            Ack::Ok { seq: s } | Ack::Err { seq: Some(s), .. } => s == seq,
            Ack::Err { seq: None, .. } => true,
        }
    }

    /// What a push answered with this ACK returns: the acknowledged
    /// sequence number, or why the push failed.
    ///
    /// # Errors
    ///
    /// [`SendError::StaleEpoch`] for `ERR stale-epoch`,
    /// [`SendError::Rejected`] for any other refusal.
    pub fn into_result(self) -> Result<u64, SendError> {
        match self {
            Ack::Ok { seq } => Ok(seq),
            Ack::Err {
                reason: Refusal::StaleEpoch,
                ..
            } => Err(SendError::StaleEpoch),
            Ack::Err { reason, .. } => Err(SendError::Rejected(reason.as_str().to_owned())),
        }
    }
}

/// Receive buffer sizes: an ACK fits in `ACK_BUFFER` bytes (the longest,
/// `ERR stale-epoch <u64>`, is 36), a stats snapshot in `STATS_BUFFER`.
const ACK_BUFFER: usize = 64;
const STATS_BUFFER: usize = 64 * 1024;

/// The controller's sending half: the exchange table, and the socket and
/// receive buffer it is driven over.
#[derive(Debug)]
pub struct SignalSender {
    socket: UdpSocket,
    table: ExchangeTable,
    /// The one receive buffer, sized for the largest reply asked for so
    /// far. A push-only sender never holds 64 KiB: allocating and freeing
    /// that much with every short-lived sender doubled `ncbench`
    /// `transfer_lossy`'s set-up time, through the heap's layout.
    buf: Vec<u8>,
    /// The read timeout the socket holds, in whole milliseconds: a wait
    /// that rounds to the same one costs no system call.
    timeout: Option<Duration>,
    metrics: Option<ControlMetrics>,
}

impl SignalSender {
    /// Binds a sender socket on loopback, fencing every push with
    /// `epoch`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn new(epoch: u64, _config: SenderConfig) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        Ok(SignalSender {
            socket,
            table: ExchangeTable::new(epoch),
            buf: Vec::new(),
            timeout: None,
            metrics: None,
        })
    }

    /// Attaches a metrics bundle; pushes, retries, failures and ACK
    /// latency record into it.
    pub fn with_metrics(mut self, metrics: ControlMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The epoch stamped on every outbound frame.
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// The sequence number the next push to `to` will carry.
    pub fn next_seq(&self, to: SocketAddr) -> u64 {
        self.table.next_seq(to)
    }

    /// The sender's local socket address (ACKs return here).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Pushes `signal` to `to` in a fenced frame and blocks until the
    /// receiver ACKs that exact sequence number, retransmitting with
    /// exponential backoff up to the attempt budget.
    ///
    /// # Errors
    ///
    /// [`SendError::Timeout`] when the budget runs out,
    /// [`SendError::StaleEpoch`] when the receiver is fenced on a newer
    /// epoch (stop this controller), [`SendError::Rejected`] when the
    /// receiver refuses the signal, [`SendError::Io`] on socket errors.
    pub fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
        self.exchange([(to, signal)]).remove(0).into_push()
    }

    /// Sends a bare `NC_STATS` query — the one frame a relay answers
    /// without a fence — and returns the JSON snapshot reply, with the
    /// same timeout/retry budget as a push. Stats queries are read-only,
    /// so they are deliberately not sequence-numbered: a reconciliation
    /// pass may ask many times.
    ///
    /// # Errors
    ///
    /// [`SendError::Timeout`] or [`SendError::Io`].
    pub fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
        self.exchange([(to, &Signal::NcStats)])
            .remove(0)
            .into_stats()
    }

    /// The one socket loop: begins an exchange per request, then transmits
    /// what the table's schedule says and blocks on the socket until the
    /// earliest deadline (rounded up to the millisecond), handing the
    /// table every datagram, until the table is empty. A receive error
    /// other than the timeout counts as a lost datagram. Returns the
    /// exchanges in request order.
    fn exchange<'s>(
        &mut self,
        requests: impl IntoIterator<Item = (SocketAddr, &'s Signal)>,
    ) -> Vec<Completed> {
        let mut reply_size = ACK_BUFFER;
        for (to, signal) in requests {
            if matches!(signal, Signal::NcStats) {
                reply_size = STATS_BUFFER;
            }
            self.table.begin(to, signal);
        }
        if self.buf.len() < reply_size {
            self.buf = vec![0u8; reply_size];
        }
        let mut done = Vec::new();
        loop {
            let socket = &self.socket;
            let transmit = |to, wire: &[u8]| socket.send_to(wire, to).map(drop);
            let Some(deadline) = self.table.poll(Instant::now(), &mut done, transmit) else {
                break;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                continue;
            }
            let wait = Some(Duration::from_millis(left.as_micros().div_ceil(1000) as u64));
            if self.timeout != wait && socket.set_read_timeout(wait).is_ok() {
                self.timeout = wait;
            }
            if let Ok((n, from)) = socket.recv_from(&mut self.buf) {
                done.extend(self.table.receive(Instant::now(), from, &self.buf[..n]));
            }
        }
        done.sort_by_key(|c| c.id);
        if let Some(m) = &self.metrics {
            for c in done.iter().filter(|c| c.seq.is_some()) {
                m.sender_pushes.inc();
                m.sender_retries
                    .add(u64::from(c.attempts.saturating_sub(1)));
                match &c.answer {
                    Ok(Answer::Applied(r)) => m.sender_ack_ns.record(r.rtt.as_nanos() as u64),
                    Err(SendError::Timeout { .. }) => m.sender_failed.inc(),
                    _ => {}
                }
            }
        }
        done
    }
}

/// The fan-out forms run over the table: every frame of a wave, every
/// query of a sweep, leaves at once and the call waits once.
impl ControlLink for SignalSender {
    fn epoch(&self) -> u64 {
        SignalSender::epoch(self)
    }

    fn next_seq(&self, to: SocketAddr) -> u64 {
        SignalSender::next_seq(self, to)
    }

    fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
        SignalSender::push(self, to, signal)
    }

    fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
        SignalSender::query_stats(self, to)
    }

    fn push_wave(
        &mut self,
        frames: &[(SocketAddr, Signal)],
    ) -> Vec<Result<SendReceipt, SendError>> {
        self.exchange(frames.iter().map(|(to, signal)| (*to, signal)))
            .into_iter()
            .map(Completed::into_push)
            .collect()
    }

    fn query_all(&mut self, to: &[SocketAddr]) -> Vec<Result<String, SendError>> {
        self.exchange(to.iter().map(|to| (*to, &Signal::NcStats)))
            .into_iter()
            .map(Completed::into_stats)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::FencedSignal;
    use ncvnf_rlnc::SessionId;
    use std::sync::mpsc;

    fn probe() -> Signal {
        Signal::NcStart {
            session: SessionId::new(1),
        }
    }

    fn peer(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Polls `table` at `now`: the frames it transmits, decoded (`None`
    /// for a bare stats query), and the exchanges it retires.
    fn poll_at(
        table: &mut ExchangeTable,
        now: Instant,
    ) -> (Vec<(SocketAddr, Option<FencedSignal>)>, Vec<Completed>) {
        let (mut sent, mut done) = (Vec::new(), Vec::new());
        table.poll(now, &mut done, |to, wire| {
            sent.push((to, FencedSignal::from_bytes(wire).ok().map(|(f, _)| f)));
            Ok(())
        });
        (sent, done)
    }

    fn ok(seq: u64) -> Vec<u8> {
        Ack::Ok { seq }.to_string().into_bytes()
    }

    /// The sender over a real socket: a push and its ACK, one receive.
    #[test]
    fn first_try_ack_succeeds_with_sequenced_frames() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = socket.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            socket.set_read_timeout(Some(ms(2000))).unwrap();
            while let Ok((n, src)) = socket.recv_from(&mut buf) {
                let Ok((frame, _)) = FencedSignal::from_bytes(&buf[..n]) else {
                    continue;
                };
                let _ = socket.send_to(&ok(frame.seq), src);
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });
        let mut sender = SignalSender::new(3, SenderConfig::default()).unwrap();
        let r1 = sender.push(addr, &probe()).unwrap();
        let r2 = sender.push(addr, &probe()).unwrap();
        assert_eq!((r1.seq, r1.attempts), (1, 1));
        assert_eq!((r2.seq, r2.attempts), (2, 1));
        let f1 = rx.recv().unwrap();
        assert_eq!((f1.epoch, f1.seq), (3, 1));
        let f2 = rx.recv().unwrap();
        assert_eq!((f2.epoch, f2.seq), (3, 2));
    }

    #[test]
    fn resend_instants_follow_the_windows_and_backoffs() {
        let t0 = Instant::now();
        let mut table = ExchangeTable::new(1);
        table.begin(peer(1), &probe());
        let mut sent_at = Vec::new();
        let mut now = t0;
        let done = loop {
            let (sent, done) = poll_at(&mut table, now);
            if !sent.is_empty() {
                sent_at.push((now - t0).as_millis());
                // Nothing happens before the schedule's next instant.
                let before = table.poll(now, &mut Vec::new(), |_, _| Ok(())).unwrap();
                let (early, _) = poll_at(&mut table, before - ms(1));
                assert!(early.is_empty());
            }
            match table.poll(now, &mut Vec::new(), |_, _| Ok(())) {
                Some(next) if done.is_empty() => now = next,
                _ => break done,
            }
        };
        // 150 ms windows; backoffs of 25, 50, 100 and 200 ms.
        assert_eq!(sent_at, [0, 175, 375, 625, 975]);
        assert_eq!(now - t0, ms(1125), "the fifth window closes the exchange");
        assert!(matches!(
            done[..],
            [Completed {
                answer: Err(SendError::Timeout { attempts: 5 }),
                ..
            }]
        ));
    }

    #[test]
    fn lost_acks_are_retried_with_backoff() {
        // Silent for two attempts, then ACK.
        let mut table = ExchangeTable::new(1);
        let mut seqs = Vec::new();
        let done = table.settle(Instant::now(), [(peer(1), &probe())], |_, wire| {
            let (frame, _) = FencedSignal::from_bytes(wire).unwrap();
            seqs.push(frame.seq);
            (seqs.len() >= 3).then(|| ok(frame.seq))
        });
        let receipt = done.into_iter().next().unwrap().into_push().unwrap();
        assert_eq!(receipt.attempts, 3);
        // All three transmissions carried the same seq (idempotent
        // retransmission, not a fresh signal).
        assert_eq!(seqs, [1, 1, 1]);
    }

    #[test]
    fn unreachable_receiver_times_out_after_budget() {
        let started = Instant::now();
        let mut table = ExchangeTable::new(1);
        let requests = [(peer(1), probe()), (peer(2), Signal::NcStats)];
        let mut sends = 0;
        let done = table.settle(started, requests.iter().map(|(to, s)| (*to, s)), |_, _| {
            sends += 1;
            None
        });
        assert_eq!(sends, 10, "five attempts to each peer");
        for c in done {
            assert!(matches!(c.answer, Err(SendError::Timeout { attempts: 5 })));
        }
        assert!(
            started.elapsed() < ms(100),
            "virtual time, not the wall clock"
        );
    }

    #[test]
    fn stale_epoch_and_rejections_are_surfaced_not_retried() {
        for (reason, expect) in [
            (Refusal::StaleEpoch, "fenced off"),
            (Refusal::BadTable, "bad-table"),
        ] {
            let mut table = ExchangeTable::new(1);
            let done = table.settle(Instant::now(), [(peer(1), &probe())], |_, wire| {
                let (frame, _) = FencedSignal::from_bytes(wire).unwrap();
                let seq = Some(frame.seq);
                Some(Ack::Err { reason, seq }.to_string().into_bytes())
            });
            let c = done.into_iter().next().unwrap();
            assert_eq!(c.attempts, 1);
            let err = c.into_push().unwrap_err();
            assert!(err.to_string().contains(expect), "{err}");
            assert_eq!(
                matches!(err, SendError::StaleEpoch),
                reason == Refusal::StaleEpoch
            );
        }
    }

    #[test]
    fn a_reply_from_another_peer_completes_its_own_exchange() {
        let t0 = Instant::now();
        let mut table = ExchangeTable::new(1);
        let a = table.begin(peer(1), &probe());
        let b = table.begin(peer(2), &probe());
        let (sent, _) = poll_at(&mut table, t0);
        assert_eq!(sent.len(), 2, "both leave at once");
        // Both pushes carry seq 1; B's ACK completes B, not A.
        let done = table.receive(t0 + ms(3), peer(2), &ok(1)).unwrap();
        assert_eq!((done.id, done.to), (b, peer(2)));
        assert_eq!(done.into_push().unwrap().rtt, ms(3));
        assert!(
            table.receive(t0 + ms(4), peer(2), &ok(1)).is_none(),
            "a duplicate"
        );
        let done = table.receive(t0 + ms(5), peer(1), &ok(1)).unwrap();
        assert_eq!(done.id, a);
        assert_eq!(table.poll(t0 + ms(5), &mut Vec::new(), |_, _| Ok(())), None);
    }

    #[test]
    fn an_err_without_seq_answers_only_its_own_peers_push() {
        let t0 = Instant::now();
        let mut table = ExchangeTable::new(1);
        let a = table.begin(peer(1), &probe());
        let b = table.begin(peer(2), &probe());
        poll_at(&mut table, t0);
        let refusal = Ack::Err {
            reason: Refusal::BadFrame,
            seq: None,
        };
        let done = table
            .receive(t0, peer(1), refusal.to_string().as_bytes())
            .unwrap();
        assert_eq!(done.id, a);
        assert!(matches!(done.into_push(), Err(SendError::Rejected(r)) if r == "bad-frame"));
        // B is still in flight and resends when its window closes.
        let (sent, done) = poll_at(&mut table, t0 + ms(175));
        assert!(done.is_empty());
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, peer(2));
        assert_eq!(table.receive(t0 + ms(176), peer(2), &ok(1)).unwrap().id, b);
    }

    #[test]
    fn frames_to_one_peer_leave_one_at_a_time_in_order() {
        let t0 = Instant::now();
        let mut table = ExchangeTable::new(4);
        table.begin(peer(1), &probe());
        table.begin(peer(1), &probe());
        assert_eq!(table.next_seq(peer(1)), 3);
        let (sent, _) = poll_at(&mut table, t0);
        assert_eq!(sent.len(), 1, "one frame in flight per peer");
        assert_eq!(sent[0].1.as_ref().map(|f| (f.epoch, f.seq)), Some((4, 1)));
        assert!(
            table.receive(t0, peer(1), &ok(2)).is_none(),
            "not the seq in flight"
        );
        assert_eq!(table.receive(t0, peer(1), &ok(1)).unwrap().seq, Some(1));
        let (sent, _) = poll_at(&mut table, t0);
        assert_eq!(sent[0].1.as_ref().map(|f| f.seq), Some(2));
    }

    #[test]
    fn stats_queries_go_bare_and_unsequenced() {
        let t0 = Instant::now();
        let mut table = ExchangeTable::new(1);
        let mut wires = Vec::new();
        table.begin(peer(1), &Signal::NcStats);
        table.poll(t0, &mut Vec::new(), |_, wire| {
            wires.push(wire.to_vec());
            Ok(())
        });
        assert_eq!(wires, [Signal::NcStats.to_bytes().to_vec()]);
        assert_eq!(table.next_seq(peer(1)), 1);
        assert!(
            table.receive(t0, peer(1), &ok(1)).is_none(),
            "an ACK is no snapshot"
        );
        let json = r#"{"counters":{}}"#;
        let done = table.receive(t0, peer(1), json.as_bytes()).unwrap();
        assert_eq!(done.into_stats().unwrap(), json);
    }

    #[test]
    fn ack_parser_handles_all_shapes() {
        assert_eq!(Ack::parse(b"OK"), None, "every OK names its seq");
        assert_eq!(Ack::parse(b"OK 17"), Some(Ack::Ok { seq: 17 }));
        assert_eq!(
            Ack::parse(b"ERR bad-table"),
            Some(Ack::Err {
                reason: Refusal::BadTable,
                seq: None
            })
        );
        assert_eq!(
            Ack::parse(b"ERR stale-epoch 9"),
            Some(Ack::Err {
                reason: Refusal::StaleEpoch,
                seq: Some(9)
            })
        );
        assert_eq!(Ack::parse(b"ERR who-knows 9"), None);
        assert_eq!(Ack::parse(b"OK 9 10"), None);
        assert_eq!(Ack::parse(b"{\"counters\":{}}"), None);
        assert_eq!(Ack::parse(&[0xFF, 0xFE]), None);
        // Every reply the parser reads back is the one written.
        for ack in [
            Ack::Ok { seq: 3 },
            Ack::Err {
                reason: Refusal::Unfenced,
                seq: None,
            },
            Ack::Err {
                reason: Refusal::BadTable,
                seq: Some(4),
            },
        ] {
            assert_eq!(Ack::parse(ack.to_string().as_bytes()), Some(ack));
        }
    }
}
