//! Reliable, epoch-fenced control-signal delivery.
//!
//! The paper's controller pushes signals over UDP fire-and-forget; a
//! lost `NC_FORWARD_TAB` silently leaves a relay routing into a black
//! hole. [`SignalSender`] closes that gap: every push is wrapped in a
//! [`FencedSignal`] (controller epoch + per-destination sequence
//! number), sent, and retransmitted with exponential backoff until the
//! receiver acknowledges that exact sequence number or the retry budget
//! runs out. Receivers deduplicate by sequence number, so at-least-once
//! delivery becomes exactly-once *application* (DESIGN.md §13). The
//! receiver's answer is an [`Ack`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use ncvnf_obs::Counter;

use crate::metrics::ControlMetrics;
use crate::signal::{FencedSignal, Signal};

/// Retry policy for un-ACKed pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenderConfig {
    /// How long to wait for an ACK before retransmitting.
    pub ack_timeout: Duration,
    /// Total transmission attempts per push (first send included).
    pub max_attempts: u32,
    /// Backoff before attempt `n+1` is `backoff_base << (n-1)`.
    pub backoff_base: Duration,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            ack_timeout: Duration::from_millis(150),
            max_attempts: 5,
            backoff_base: Duration::from_millis(25),
        }
    }
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

/// The controller's sending half: owns the epoch, the per-destination
/// sequence counters, and the retry loop.
#[derive(Debug)]
pub struct SignalSender {
    socket: UdpSocket,
    epoch: u64,
    seqs: HashMap<SocketAddr, u64>,
    config: SenderConfig,
    metrics: Option<ControlMetrics>,
}

impl SignalSender {
    /// Binds a sender socket on loopback, fencing every push with
    /// `epoch`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn new(epoch: u64, config: SenderConfig) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        Ok(SignalSender {
            socket,
            epoch,
            seqs: HashMap::new(),
            config,
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
        self.epoch
    }

    /// The sequence number the next push to `to` will carry.
    pub fn next_seq(&self, to: SocketAddr) -> u64 {
        self.seqs.get(&to).copied().unwrap_or(0) + 1
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
    /// exponential backoff up to the configured attempt budget.
    ///
    /// # Errors
    ///
    /// [`SendError::Timeout`] when the budget runs out,
    /// [`SendError::StaleEpoch`] when the receiver is fenced on a newer
    /// epoch (stop this controller), [`SendError::Rejected`] when the
    /// receiver refuses the signal, [`SendError::Io`] on socket errors.
    pub fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
        let seq = {
            let counter = self.seqs.entry(to).or_insert(0);
            *counter += 1;
            *counter
        };
        if let Some(m) = &self.metrics {
            m.sender_pushes.inc();
        }
        let wire = FencedSignal {
            epoch: self.epoch,
            seq,
            signal: signal.clone(),
        }
        .to_bytes();
        // Skipped while waiting: an ACK for an older seq (a late
        // duplicate) and anything that is not an ACK.
        let retries = self.metrics.as_ref().map(|m| &m.sender_retries);
        let answer = self.exchange(to, &wire, &mut [0u8; 2048], retries, |reply| {
            Ack::parse(reply).filter(|ack| ack.answers(seq))
        });
        if let Some(m) = &self.metrics {
            match &answer {
                Ok((Ack::Ok { .. }, _, rtt)) => m.sender_ack_ns.record(rtt.as_nanos() as u64),
                Err(SendError::Timeout { .. }) => m.sender_failed.inc(),
                _ => {}
            }
        }
        let (ack, attempts, rtt) = answer?;
        ack.into_result()?;
        Ok(SendReceipt { seq, attempts, rtt })
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
        let wire = Signal::NcStats.to_bytes();
        // A late ACK is skipped: the snapshot starts with '{'.
        self.exchange(to, &wire, &mut vec![0u8; 65536], None, |reply| {
            (reply.first() == Some(&b'{'))
                .then(|| std::str::from_utf8(reply).ok().map(str::to_owned))
                .flatten()
        })
        .map(|(json, _, _)| json)
    }

    /// Sends `wire` to `to` until `accept` takes a datagram from `to`,
    /// waiting one ACK window per attempt and backing off exponentially
    /// between attempts (each counted in `retries`). Returns what
    /// `accept` made of the reply, the attempts it took and the last
    /// attempt's wait.
    fn exchange<T>(
        &self,
        to: SocketAddr,
        wire: &[u8],
        buf: &mut [u8],
        retries: Option<&Counter>,
        mut accept: impl FnMut(&[u8]) -> Option<T>,
    ) -> Result<(T, u32, Duration), SendError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let sent_at = Instant::now();
            self.socket.send_to(wire, to).map_err(SendError::Io)?;
            let deadline = sent_at + self.config.ack_timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                self.socket
                    .set_read_timeout(Some(remaining))
                    .map_err(SendError::Io)?;
                match self.socket.recv_from(buf) {
                    Ok((n, src)) if src == to => {
                        if let Some(value) = accept(&buf[..n]) {
                            return Ok((value, attempts, sent_at.elapsed()));
                        }
                    }
                    Ok(_) => {}
                    Err(ref e) if is_timeout(e) => break,
                    Err(e) => return Err(SendError::Io(e)),
                }
            }
            if attempts >= self.config.max_attempts {
                return Err(SendError::Timeout { attempts });
            }
            if let Some(retries) = retries {
                retries.inc();
            }
            std::thread::sleep(self.config.backoff_base * (1 << (attempts - 1).min(8)));
        }
    }
}

/// True for the receive-timeout errors a bounded wait expects.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_rlnc::SessionId;
    use std::sync::mpsc;

    fn fast_config() -> SenderConfig {
        SenderConfig {
            ack_timeout: Duration::from_millis(60),
            max_attempts: 4,
            backoff_base: Duration::from_millis(5),
        }
    }

    /// A scripted receiver: applies `script(attempt)` to each arriving
    /// frame to decide the reply (None = stay silent).
    fn scripted_receiver(
        script: impl Fn(u32, &FencedSignal) -> Option<String> + Send + 'static,
    ) -> (SocketAddr, mpsc::Receiver<FencedSignal>) {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = socket.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let mut attempt = 0;
            socket
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            while let Ok((n, src)) = socket.recv_from(&mut buf) {
                let Ok((frame, _)) = FencedSignal::from_bytes(&buf[..n]) else {
                    continue;
                };
                attempt += 1;
                if tx.send(frame.clone()).is_err() {
                    break;
                }
                if let Some(reply) = script(attempt, &frame) {
                    let _ = socket.send_to(reply.as_bytes(), src);
                }
            }
        });
        (addr, rx)
    }

    fn probe() -> Signal {
        Signal::NcStart {
            session: SessionId::new(1),
        }
    }

    #[test]
    fn first_try_ack_succeeds_with_sequenced_frames() {
        let (addr, rx) = scripted_receiver(|_, f| Some(format!("OK {}", f.seq)));
        let mut sender = SignalSender::new(3, fast_config()).unwrap();
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
    fn lost_acks_are_retried_with_backoff() {
        // Silent for two attempts, then ACK.
        let (addr, rx) =
            scripted_receiver(|attempt, f| (attempt >= 3).then(|| format!("OK {}", f.seq)));
        let mut sender = SignalSender::new(1, fast_config()).unwrap();
        let receipt = sender.push(addr, &probe()).unwrap();
        assert_eq!(receipt.attempts, 3);
        // All three transmissions carried the same seq (idempotent
        // retransmission, not a fresh signal).
        for _ in 0..3 {
            assert_eq!(rx.recv().unwrap().seq, 1);
        }
    }

    #[test]
    fn unreachable_receiver_times_out_after_budget() {
        let (addr, _rx) = scripted_receiver(|_, _| None);
        let mut sender = SignalSender::new(1, fast_config()).unwrap();
        match sender.push(addr, &probe()) {
            Err(SendError::Timeout { attempts }) => assert_eq!(attempts, 4),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn stale_epoch_and_rejections_are_surfaced_not_retried() {
        let (addr, rx) = scripted_receiver(|_, f| Some(format!("ERR stale-epoch {}", f.seq)));
        let mut sender = SignalSender::new(1, fast_config()).unwrap();
        assert!(matches!(
            sender.push(addr, &probe()),
            Err(SendError::StaleEpoch)
        ));
        drop(rx);
        let (addr, _rx) = scripted_receiver(|_, f| Some(format!("ERR bad-table {}", f.seq)));
        let mut sender = SignalSender::new(1, fast_config()).unwrap();
        match sender.push(addr, &probe()) {
            Err(SendError::Rejected(reason)) => assert_eq!(reason, "bad-table"),
            other => panic!("expected rejection, got {other:?}"),
        }
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
