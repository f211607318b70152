//! The controller's sending half as a state machine: the exchange table.
//!
//! It owns the epoch, the per-peer sequence numbers, the framing, ACK
//! matching and the retry schedule, and it is told the time: every
//! method that can act takes `now`. An exchange is one request and the
//! one reply that answers it — a fenced push and its [`Ack`], or a bare
//! `NC_STATS` query and its snapshot. Each peer's exchanges run in FIFO
//! order with one in flight at a time; different peers' run side by
//! side, so a silent peer delays only its own queue.
//!
//! The schedule: an attempt waits `ACK_TIMEOUT` (150 ms) for its answer,
//! then the exchange backs off `BACKOFF_BASE` × 2^(n−1) (25 ms × 2^(n−1))
//! after attempt n and sends again, `MAX_ATTEMPTS` (5) attempts in all. A peer that never
//! answers costs 5 × 150 ms + 25 + 50 + 100 + 200 ms = 1,125 ms.
//!
//! [`super::SignalSender`] drives the table over a socket;
//! [`ExchangeTable::settle`] drives it over in-memory delivery in
//! virtual time.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;

use super::{Ack, SendError, SendReceipt};
use crate::signal::{FencedSignal, Signal};

/// How long an attempt waits for its answer.
const ACK_TIMEOUT: Duration = Duration::from_millis(150);
/// Transmissions per exchange, the first included.
const MAX_ATTEMPTS: u32 = 5;
/// The backoff after attempt n is `BACKOFF_BASE << (n - 1)`.
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Where one exchange stands.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Leaves at the next poll.
    Unsent,
    /// An attempt is out; its ACK window closes at the instant.
    Waiting(Instant),
    /// Backing off; the next attempt leaves at the instant.
    Backoff(Instant),
}

#[derive(Debug)]
struct Exchange {
    id: usize,
    /// The push's sequence number; `None` for an `NC_STATS` query.
    seq: Option<u64>,
    wire: Bytes,
    attempts: u32,
    /// When the last attempt left.
    sent_at: Option<Instant>,
    stage: Stage,
}

/// What answered an exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// The peer applied the push (`OK <seq>`).
    Applied(SendReceipt),
    /// The peer's `NC_STATS` snapshot (JSON text).
    Stats(String),
}

/// One finished exchange.
#[derive(Debug)]
pub struct Completed {
    /// The id [`ExchangeTable::begin`] returned.
    pub id: usize,
    /// The peer.
    pub to: SocketAddr,
    /// The push's sequence number; `None` for an `NC_STATS` query.
    pub seq: Option<u64>,
    /// Transmissions it took.
    pub attempts: u32,
    /// The answer, or why there is none: [`SendError::Timeout`] once the
    /// attempts are spent, [`SendError::Io`] when a transmission failed,
    /// [`SendError::StaleEpoch`] or [`SendError::Rejected`] when the peer
    /// refused the push.
    pub answer: Result<Answer, SendError>,
}

impl Completed {
    /// A push's outcome.
    ///
    /// # Errors
    ///
    /// The exchange's error; [`SendError::Rejected`] for a stats query.
    pub fn into_push(self) -> Result<SendReceipt, SendError> {
        match self.answer? {
            Answer::Applied(receipt) => Ok(receipt),
            Answer::Stats(_) => Err(SendError::Rejected("a stats query is not a push".into())),
        }
    }

    /// A stats query's outcome.
    ///
    /// # Errors
    ///
    /// The exchange's error; [`SendError::Rejected`] for a push.
    pub fn into_stats(self) -> Result<String, SendError> {
        match self.answer? {
            Answer::Stats(json) => Ok(json),
            Answer::Applied(_) => Err(SendError::Rejected("a push is not a stats query".into())),
        }
    }
}

/// The exchange table: every request the controller has begun and not
/// yet seen answered or given up on. See the module docs.
#[derive(Debug)]
pub struct ExchangeTable {
    epoch: u64,
    /// Last sequence number given out per peer.
    seqs: HashMap<SocketAddr, u64>,
    /// Each peer's exchanges, oldest (the one in flight) first.
    queues: HashMap<SocketAddr, VecDeque<Exchange>>,
    next_id: usize,
}

impl ExchangeTable {
    /// An empty table fencing every push with `epoch`.
    pub fn new(epoch: u64) -> Self {
        ExchangeTable {
            epoch,
            seqs: HashMap::new(),
            queues: HashMap::new(),
            next_id: 0,
        }
    }

    /// The epoch stamped on every push.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sequence number the next push to `to` will carry.
    pub fn next_seq(&self, to: SocketAddr) -> u64 {
        self.seqs.get(&to).copied().unwrap_or(0) + 1
    }

    /// Queues `signal` for `to` behind that peer's earlier exchanges and
    /// returns the exchange's id (ids count up from 0 in `begin` order).
    /// `NC_STATS` goes bare and unsequenced, the one frame a relay
    /// answers without a fence, so a stats query may be repeated freely;
    /// every other signal is pushed in a [`FencedSignal`] with the next
    /// sequence number for `to`.
    pub fn begin(&mut self, to: SocketAddr, signal: &Signal) -> usize {
        let (seq, wire) = if matches!(signal, Signal::NcStats) {
            (None, signal.to_bytes())
        } else {
            let seq = self.next_seq(to);
            self.seqs.insert(to, seq);
            let frame = FencedSignal {
                epoch: self.epoch,
                seq,
                signal: signal.clone(),
            };
            (Some(seq), frame.to_bytes())
        };
        let id = self.next_id;
        self.next_id += 1;
        self.queues.entry(to).or_default().push_back(Exchange {
            id,
            seq,
            wire,
            attempts: 0,
            sent_at: None,
            stage: Stage::Unsent,
        });
        id
    }

    /// Hands the table one datagram `from` a peer at `now`. Returns the
    /// exchange it answers: that peer's exchange in flight, if the
    /// datagram is its ACK (one naming its seq, or a refusal naming
    /// none) or, for a stats query, a snapshot. Anything else — a late
    /// duplicate, a stray — changes nothing.
    pub fn receive(&mut self, now: Instant, from: SocketAddr, bytes: &[u8]) -> Option<Completed> {
        let queue = self.queues.get_mut(&from)?;
        let front = queue.front()?;
        let sent_at = front.sent_at?;
        let answer = match front.seq {
            Some(seq) => {
                let ack = Ack::parse(bytes).filter(|ack| ack.answers(seq))?;
                ack.into_result().map(|seq| {
                    Answer::Applied(SendReceipt {
                        seq,
                        attempts: front.attempts,
                        rtt: now.saturating_duration_since(sent_at),
                    })
                })
            }
            None if bytes.first() == Some(&b'{') => {
                Ok(Answer::Stats(std::str::from_utf8(bytes).ok()?.to_owned()))
            }
            None => return None,
        };
        Some(self.finish(from, answer))
    }

    /// Runs the schedule at `now`: every exchange whose turn has come is
    /// handed to `transmit` (a first attempt or a resend), and every one
    /// that ran out of attempts, or whose transmission failed, is
    /// appended to `done`. Returns the next instant the schedule acts at,
    /// or `None` when the table is empty.
    pub fn poll(
        &mut self,
        now: Instant,
        done: &mut Vec<Completed>,
        mut transmit: impl FnMut(SocketAddr, &[u8]) -> std::io::Result<()>,
    ) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let peers: Vec<SocketAddr> = self.queues.keys().copied().collect();
        for to in peers {
            while let Some(front) = self.queues.get_mut(&to).and_then(|q| q.front_mut()) {
                match front.stage {
                    Stage::Unsent => {}
                    Stage::Waiting(until) | Stage::Backoff(until) if until > now => {
                        next = Some(next.map_or(until, |n| n.min(until)));
                        break;
                    }
                    Stage::Waiting(closed) => {
                        if front.attempts >= MAX_ATTEMPTS {
                            let attempts = front.attempts;
                            done.push(self.finish(to, Err(SendError::Timeout { attempts })));
                        } else {
                            let backoff = BACKOFF_BASE * (1 << (front.attempts - 1).min(8));
                            front.stage = Stage::Backoff(closed + backoff);
                        }
                        continue;
                    }
                    Stage::Backoff(_) => {}
                }
                // Unsent, or its backoff is over: an attempt leaves now.
                front.attempts += 1;
                front.sent_at = Some(now);
                front.stage = Stage::Waiting(now + ACK_TIMEOUT);
                if let Err(e) = transmit(to, &front.wire) {
                    done.push(self.finish(to, Err(SendError::Io(e))));
                }
            }
        }
        next
    }

    /// Begins an exchange per request and drives every exchange to its
    /// end in virtual time from `now`, over in-memory delivery:
    /// `deliver(to, frame)` carries each frame to its peer and returns the
    /// peer's reply, if it sends one. A peer that stays silent costs the
    /// retry schedule in virtual time, not on the wall clock. Returns the
    /// exchanges in `begin` order.
    pub fn settle<'s>(
        &mut self,
        mut now: Instant,
        requests: impl IntoIterator<Item = (SocketAddr, &'s Signal)>,
        mut deliver: impl FnMut(SocketAddr, &[u8]) -> Option<Vec<u8>>,
    ) -> Vec<Completed> {
        for (to, signal) in requests {
            self.begin(to, signal);
        }
        let mut done = Vec::new();
        let mut outbox: Vec<(SocketAddr, Vec<u8>)> = Vec::new();
        loop {
            let next = self.poll(now, &mut done, |to, wire| {
                outbox.push((to, wire.to_vec()));
                Ok(())
            });
            if outbox.is_empty() {
                let Some(next) = next else { break };
                now = next;
            }
            for (to, wire) in outbox.drain(..) {
                let reply = deliver(to, &wire);
                done.extend(reply.and_then(|reply| self.receive(now, to, &reply)));
            }
        }
        done.sort_by_key(|c| c.id);
        done
    }

    /// Retires `to`'s exchange in flight with `answer`.
    fn finish(&mut self, to: SocketAddr, answer: Result<Answer, SendError>) -> Completed {
        let queue = self.queues.get_mut(&to).expect("a peer with an exchange");
        let exchange = queue.pop_front().expect("an exchange in flight");
        if queue.is_empty() {
            self.queues.remove(&to);
        }
        Completed {
            id: exchange.id,
            to,
            seq: exchange.seq,
            attempts: exchange.attempts,
            answer,
        }
    }
}
