//! Receiver feedback: generation ACKs, retransmission NACKs, wake
//! requests and backpressure.
//!
//! Two receiver messages keep the paper's data plane honest:
//!
//! * an ACK "directly back to the source once it has successfully received
//!   the (decoded) first generation" (used for the Table II delay
//!   measurement) — and, in the recovery protocol, to close out every
//!   generation so the source can stop retransmitting;
//! * a NACK requesting more coded packets for a generation that cannot be
//!   decoded — the "retransmissions" a receiver "has to wait for ... to
//!   collect all 4 packets for decoding a generation" under loss at NC0.
//!
//! A draining relay sends a wake request to the controller, and an
//! overloaded one a congestion frame upstream. Relays send no liveness
//! beacon: the controller's `NC_STATS` sweep is the heartbeat, and kind 3
//! (the retired beacon) decodes as an unknown kind.
//!
//! Wire format (distinct from NC data packets, which begin with 0xAC):
//!
//! ```text
//! byte 0      magic 0xFB
//! byte 1      kind: 1 = GenerationAck, 2 = RetransmitRequest,
//!             4 = Wake, 5 = Congestion (3 is retired)
//! bytes 2-3   session id, big endian
//! bytes 4-7   generation id (wakes: node id; congestion: unused, 0),
//!             big endian
//! bytes 8-9   count (packets requested; congestion: datagrams shed
//!             since the last frame; 0 for ACK and Wake), big endian
//! bytes 10-13 missing-block bitmap (bit i = original block i missing;
//!             congestion: cumulative shed total; zero when unknown),
//!             big endian
//! ```
//!
//! The bitmap lets a systematic (non-NC) source retransmit exactly the
//! lost blocks; a coding source ignores it and sends fresh random
//! combinations, which are innovative with overwhelming probability.
//!
//! Decoding is total: truncated frames, bad magic and unknown kinds all
//! return a typed [`FeedbackError`] — never a panic, never a mis-parse.
//! Relays count and drop frames that fail to decode
//! (`RelayStats::malformed_feedback`).

use std::error::Error;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};
use ncvnf_rlnc::SessionId;

/// Magic byte identifying feedback packets.
pub const FEEDBACK_MAGIC: u8 = 0xFB;
/// Encoded length of a feedback packet.
pub const FEEDBACK_LEN: usize = 14;

/// Kind of feedback message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackKind {
    /// A generation decoded successfully (sent for generation 0 to measure
    /// end-to-end delay, and for every generation to close it out in the
    /// recovery protocol).
    GenerationAck,
    /// The receiver needs `count` more coded packets for this generation.
    RetransmitRequest,
    /// A draining VNF saw traffic (a data packet or a NACK for one of
    /// its sessions) and asks the controller to wake it: `generation`
    /// carries the node id, `session` the session whose packet arrived
    /// (zero when unknown). Sent once per drain window.
    Wake,
    /// Backpressure from an overloaded relay shard toward the upstream
    /// sender whose datagram it just shed: `session` names the throttled
    /// session (zero = everyone), `count` the datagrams shed since the
    /// last frame and `missing_bitmap` the shard's cumulative shed total
    /// (`generation` is unused and 0). Sources fold this into their AIMD
    /// redundancy controller as a multiplicative-decrease signal and pause
    /// their bursts.
    Congestion,
}

/// Why a frame failed to decode as feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackError {
    /// Fewer than [`FEEDBACK_LEN`] bytes.
    Truncated {
        /// Bytes actually present.
        actual: usize,
    },
    /// First byte is not [`FEEDBACK_MAGIC`].
    BadMagic(u8),
    /// Kind byte outside the known set (the retired kind 3 included).
    UnknownKind(u8),
}

impl fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedbackError::Truncated { actual } => {
                write!(
                    f,
                    "truncated feedback frame: {actual} of {FEEDBACK_LEN} bytes"
                )
            }
            FeedbackError::BadMagic(b) => write!(f, "bad feedback magic {b:#04x}"),
            FeedbackError::UnknownKind(k) => write!(f, "unknown feedback kind {k}"),
        }
    }
}

impl Error for FeedbackError {}

/// A feedback message from a receiver (or VNF daemon) to the source (or
/// controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feedback {
    /// Message kind.
    pub kind: FeedbackKind,
    /// Session the feedback refers to (zero when unknown).
    pub session: SessionId,
    /// Generation the feedback refers to (wakes: the node id).
    pub generation: u64,
    /// Packets requested (retransmit requests) or datagrams shed
    /// (congestion).
    pub count: u16,
    /// Bitmap of missing original blocks (bit i = block i), zero when the
    /// receiver holds mixed packets and cannot name specific blocks.
    pub missing_bitmap: u32,
}

impl Feedback {
    /// An ACK closing out `generation` of `session`.
    pub fn ack(session: SessionId, generation: u64) -> Self {
        Feedback {
            kind: FeedbackKind::GenerationAck,
            session,
            generation,
            count: 0,
            missing_bitmap: 0,
        }
    }

    /// A NACK requesting `count` more coded packets for `generation`.
    pub fn nack(session: SessionId, generation: u64, count: u16, missing_bitmap: u32) -> Self {
        Feedback {
            kind: FeedbackKind::RetransmitRequest,
            session,
            generation,
            count,
            missing_bitmap,
        }
    }

    /// A scale-to-zero wake request from draining VNF `node`: traffic
    /// for `session` arrived and the controller should re-arm the node
    /// (in dependency order: a relay before any relay that forwards to it).
    pub fn wake(node: u32, session: SessionId) -> Self {
        Feedback {
            kind: FeedbackKind::Wake,
            session,
            generation: node as u64,
            count: 0,
            missing_bitmap: 0,
        }
    }

    /// A backpressure frame from an overloaded relay shard: `shed` the
    /// datagrams shed since the last congestion frame and `total_shed`
    /// the shard's cumulative shed count.
    pub fn congestion(session: SessionId, shed: u16, total_shed: u32) -> Self {
        Feedback {
            kind: FeedbackKind::Congestion,
            session,
            generation: 0,
            count: shed,
            missing_bitmap: total_shed,
        }
    }

    /// The node id of a wake (the generation field).
    pub fn node_id(&self) -> u32 {
        self.generation as u32
    }

    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(FEEDBACK_LEN);
        buf.put_u8(FEEDBACK_MAGIC);
        buf.put_u8(match self.kind {
            FeedbackKind::GenerationAck => 1,
            FeedbackKind::RetransmitRequest => 2,
            FeedbackKind::Wake => 4,
            FeedbackKind::Congestion => 5,
        });
        buf.put_u16(self.session.value());
        buf.put_u32(self.generation as u32);
        buf.put_u16(self.count);
        buf.put_u32(self.missing_bitmap);
        buf.freeze()
    }

    /// Decodes a feedback frame (trailing bytes are ignored).
    ///
    /// # Errors
    ///
    /// [`FeedbackError::Truncated`], [`FeedbackError::BadMagic`] or
    /// [`FeedbackError::UnknownKind`]. Never panics on any input.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FeedbackError> {
        if data.is_empty() || data[0] != FEEDBACK_MAGIC {
            return Err(match data.first() {
                Some(&b) => FeedbackError::BadMagic(b),
                None => FeedbackError::Truncated { actual: 0 },
            });
        }
        if data.len() < FEEDBACK_LEN {
            return Err(FeedbackError::Truncated { actual: data.len() });
        }
        let kind = match data[1] {
            1 => FeedbackKind::GenerationAck,
            2 => FeedbackKind::RetransmitRequest,
            4 => FeedbackKind::Wake,
            5 => FeedbackKind::Congestion,
            k => return Err(FeedbackError::UnknownKind(k)),
        };
        Ok(Feedback {
            kind,
            session: SessionId::new(u16::from_be_bytes([data[2], data[3]])),
            generation: u32::from_be_bytes([data[4], data[5], data[6], data[7]]) as u64,
            count: u16::from_be_bytes([data[8], data[9]]),
            missing_bitmap: u32::from_be_bytes([data[10], data[11], data[12], data[13]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let fb = Feedback {
            kind: FeedbackKind::RetransmitRequest,
            session: SessionId::new(300),
            generation: 77,
            count: 3,
            missing_bitmap: 0b1010,
        };
        let wire = fb.to_bytes();
        assert_eq!(wire.len(), FEEDBACK_LEN);
        assert_eq!(Feedback::from_bytes(&wire), Ok(fb));
    }

    #[test]
    fn retired_beacon_kind_is_unknown() {
        let mut wire = Feedback::wake(42, SessionId::new(0)).to_bytes().to_vec();
        wire[1] = 3;
        assert_eq!(
            Feedback::from_bytes(&wire),
            Err(FeedbackError::UnknownKind(3))
        );
    }

    #[test]
    fn wake_roundtrip_carries_node_and_session() {
        let wake = Feedback::wake(17, SessionId::new(21));
        let back = Feedback::from_bytes(&wake.to_bytes()).unwrap();
        assert_eq!(back.kind, FeedbackKind::Wake);
        assert_eq!(back.node_id(), 17);
        assert_eq!(back.session, SessionId::new(21));
        assert_eq!(back.count, 0);
    }

    #[test]
    fn congestion_roundtrip_carries_shed_counts() {
        let cg = Feedback::congestion(SessionId::new(9), 12, 340);
        let back = Feedback::from_bytes(&cg.to_bytes()).unwrap();
        assert_eq!(back.kind, FeedbackKind::Congestion);
        assert_eq!(back.session, SessionId::new(9));
        assert_eq!(back.generation, 0);
        assert_eq!(back.count, 12);
        assert_eq!(back.missing_bitmap, 340);
    }

    #[test]
    fn rejects_foreign_packets_with_typed_errors() {
        assert_eq!(
            Feedback::from_bytes(&[0xAC; 14]),
            Err(FeedbackError::BadMagic(0xAC))
        );
        assert_eq!(
            Feedback::from_bytes(&[0xFB, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(FeedbackError::UnknownKind(9))
        );
        assert_eq!(
            Feedback::from_bytes(&[0xFB]),
            Err(FeedbackError::Truncated { actual: 1 })
        );
        assert_eq!(
            Feedback::from_bytes(&[]),
            Err(FeedbackError::Truncated { actual: 0 })
        );
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let fb = Feedback::ack(SessionId::new(1), 9);
        let mut wire = fb.to_bytes().to_vec();
        wire.extend_from_slice(b"junk");
        assert_eq!(Feedback::from_bytes(&wire), Ok(fb));
    }
}
