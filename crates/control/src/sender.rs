//! Reliable, epoch-fenced control-signal delivery.
//!
//! The paper's controller pushes signals over UDP fire-and-forget; a
//! lost `NC_FORWARD_TAB` silently leaves a relay routing into a black
//! hole. [`SignalSender`] closes that gap: every push is wrapped in a
//! [`FencedSignal`] (controller epoch + per-destination sequence
//! number), sent, and retransmitted with exponential backoff until the
//! receiver acknowledges that exact sequence number or the retry budget
//! runs out. Receivers deduplicate by sequence number, so at-least-once
//! delivery becomes exactly-once *application* (DESIGN.md §13).
//!
//! ACK grammar (one UDP datagram from the receiver):
//!
//! ```text
//! OK <seq>                 applied (or deduplicated)
//! ERR stale-epoch <seq>    fenced off by a newer controller epoch
//! ERR <reason> <seq>       decoded but rejected (e.g. bad-table)
//! ERR <reason>             refused before the fence (bad-frame)
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

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

/// What a receiver's ACK datagram said.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ack {
    Ok { seq: u64 },
    Err { reason: String, seq: Option<u64> },
}

/// Parses an `OK <seq>`/`ERR` acknowledgement datagram. Returns `None`
/// for anything else (e.g. an `NC_STATS` JSON reply).
fn parse_ack(reply: &[u8]) -> Option<Ack> {
    let text = std::str::from_utf8(reply).ok()?;
    let mut parts = text.split_whitespace();
    match parts.next()? {
        "OK" => Some(Ack::Ok {
            seq: parts.next()?.parse().ok()?,
        }),
        "ERR" => {
            let rest: Vec<&str> = parts.collect();
            let (reason, seq) = match rest.split_last() {
                Some((last, head)) => match last.parse::<u64>() {
                    Ok(seq) => (head.join(" "), Some(seq)),
                    Err(_) => (rest.join(" "), None),
                },
                None => (String::new(), None),
            };
            Some(Ack::Err { reason, seq })
        }
        _ => None,
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
        let mut buf = [0u8; 2048];
        let mut attempts = 0;
        loop {
            attempts += 1;
            let sent_at = Instant::now();
            self.socket.send_to(&wire, to).map_err(SendError::Io)?;
            match self.await_ack(to, seq, &mut buf)? {
                Some(Ack::Ok { .. }) => {
                    let rtt = sent_at.elapsed();
                    if let Some(m) = &self.metrics {
                        m.sender_ack_ns.record(rtt.as_nanos() as u64);
                    }
                    return Ok(SendReceipt { seq, attempts, rtt });
                }
                Some(Ack::Err { reason, .. }) => {
                    return if reason == "stale-epoch" {
                        Err(SendError::StaleEpoch)
                    } else {
                        Err(SendError::Rejected(reason))
                    };
                }
                None => {}
            }
            if attempts >= self.config.max_attempts {
                if let Some(m) = &self.metrics {
                    m.sender_failed.inc();
                }
                return Err(SendError::Timeout { attempts });
            }
            if let Some(m) = &self.metrics {
                m.sender_retries.inc();
            }
            std::thread::sleep(self.config.backoff_base * (1 << (attempts - 1).min(8)));
        }
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
        let mut buf = vec![0u8; 65536];
        let mut attempts = 0;
        loop {
            attempts += 1;
            self.socket.send_to(&wire, to).map_err(SendError::Io)?;
            let deadline = Instant::now() + self.config.ack_timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                self.socket
                    .set_read_timeout(Some(remaining))
                    .map_err(SendError::Io)?;
                match self.socket.recv_from(&mut buf) {
                    Ok((n, src)) if src == to && buf.first() == Some(&b'{') => {
                        if let Ok(json) = std::str::from_utf8(&buf[..n]) {
                            return Ok(json.to_owned());
                        }
                    }
                    Ok(_) => {} // late ACK or foreign datagram: keep waiting
                    Err(ref e) if is_timeout(e) => break,
                    Err(e) => return Err(SendError::Io(e)),
                }
            }
            if attempts >= self.config.max_attempts {
                return Err(SendError::Timeout { attempts });
            }
            std::thread::sleep(self.config.backoff_base * (1 << (attempts - 1).min(8)));
        }
    }

    /// Waits out one ACK window for `(to, seq)`. Returns `Ok(None)` on
    /// timeout (caller retries), the parsed ACK when the right one
    /// arrives; stray datagrams and ACKs for older sequence numbers are
    /// skipped.
    fn await_ack(
        &self,
        to: SocketAddr,
        seq: u64,
        buf: &mut [u8],
    ) -> Result<Option<Ack>, SendError> {
        let deadline = Instant::now() + self.config.ack_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.socket
                .set_read_timeout(Some(remaining))
                .map_err(SendError::Io)?;
            let (n, src) = match self.socket.recv_from(buf) {
                Ok(x) => x,
                Err(ref e) if is_timeout(e) => return Ok(None),
                Err(e) => return Err(SendError::Io(e)),
            };
            if src != to {
                continue;
            }
            match parse_ack(&buf[..n]) {
                // A refusal before the fence carries no seq: it answers
                // the in-flight push.
                Some(ack @ Ack::Err { seq: None, .. }) => return Ok(Some(ack)),
                Some(ack @ (Ack::Ok { seq: s } | Ack::Err { seq: Some(s), .. })) if s == seq => {
                    return Ok(Some(ack))
                }
                // An ACK for an older seq (late duplicate), or junk.
                _ => continue,
            }
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
        assert_eq!(parse_ack(b"OK"), None, "every OK names its seq");
        assert_eq!(parse_ack(b"OK 17"), Some(Ack::Ok { seq: 17 }));
        assert_eq!(
            parse_ack(b"ERR bad-table"),
            Some(Ack::Err {
                reason: "bad-table".into(),
                seq: None
            })
        );
        assert_eq!(
            parse_ack(b"ERR stale-epoch 9"),
            Some(Ack::Err {
                reason: "stale-epoch".into(),
                seq: Some(9)
            })
        );
        assert_eq!(parse_ack(b"{\"counters\":{}}"), None);
        assert_eq!(parse_ack(&[0xFF, 0xFE]), None);
    }
}
