//! The NC packet header.
//!
//! The paper inserts a network-coding layer between UDP and the
//! application. Its header carries the session id, the generation id, and
//! the encoding coefficient vector — "a total of 8 bytes plus the length of
//! coefficients". The layout used here:
//!
//! ```text
//! byte 0      magic 0xAC — identifies NC packets (Sec. III-A: each VNF
//!             "checks if a packet has the network coding protocol header")
//! byte 1      protocol version (currently 1)
//! bytes 2-3   session id, big endian
//! bytes 4-7   generation id, big endian
//! bytes 8..   one GF(2^8) coefficient per block in the generation
//! ```
//!
//! Byte 1 is read as a kind. Kinds 2 and 3 once carried a sliding-window
//! framing; that framing is gone, and [`PacketView::parse`] rejects both
//! with [`HeaderError::BadKind`] so a stray one is dropped, never read as
//! a generation. Every other value parses as the layout above (the
//! version byte is otherwise not checked).
//!
//! [`PacketView::parse`] is the one parser, [`PacketView::write_into`]
//! the one serializer (an owned packet serializes through its view) and
//! [`PacketView::shard_key`] the one dispatch peek.

use bytes::Bytes;

use crate::error::HeaderError;
use crate::pool::PayloadPool;

/// Magic byte identifying an NC packet.
pub const NC_MAGIC: u8 = 0xAC;
/// Protocol version encoded in byte 1.
pub const NC_VERSION: u8 = 1;
/// Kind bytes of the retired sliding-window framing (data, ack): never
/// parsed as a generation.
const RETIRED_KINDS: [u8; 2] = [2, 3];

/// Identifier of a multicast session, assigned by the controller.
///
/// # Examples
///
/// ```
/// use ncvnf_rlnc::SessionId;
/// let s = SessionId::new(7);
/// assert_eq!(u16::from(s), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(u16);

impl SessionId {
    /// Wraps a raw session number.
    pub const fn new(id: u16) -> Self {
        SessionId(id)
    }

    /// Returns the raw session number.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl From<u16> for SessionId {
    fn from(id: u16) -> Self {
        SessionId(id)
    }
}

impl From<SessionId> for u16 {
    fn from(id: SessionId) -> Self {
        id.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One coded packet: session, generation id and coefficient vector
/// (its length is the out-of-band generation size), then the payload.
///
/// Coefficients and payload are [`Bytes`], so cloning a packet (forwarding
/// it to several next hops) bumps reference counts instead of copying, and
/// pooled buffers can be reclaimed via
/// [`PayloadPool::recycle`](crate::PayloadPool::recycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedPacket {
    pub(crate) session: SessionId,
    pub(crate) generation: u64,
    pub(crate) coefficients: Bytes,
    pub(crate) payload: Bytes,
}

impl CodedPacket {
    /// Length of the fixed prefix before the coefficients.
    pub const FIXED_LEN: usize = 8;

    /// Assembles a packet.
    pub fn new(session: SessionId, generation: u64, coefficients: Bytes, payload: Bytes) -> Self {
        CodedPacket {
            session,
            generation,
            coefficients,
            payload,
        }
    }

    /// The session this packet belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The encoding coefficient vector.
    pub fn coefficients(&self) -> &[u8] {
        &self.coefficients
    }

    /// The encoded block carried by this packet.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Borrows the packet as a [`PacketView`].
    pub fn view(&self) -> PacketView<'_> {
        PacketView {
            session: self.session,
            generation: self.generation,
            coefficients: &self.coefficients,
            payload: &self.payload,
        }
    }

    /// Total wire length of this packet (header + payload).
    pub fn wire_len(&self) -> usize {
        Self::FIXED_LEN + self.coefficients.len() + self.payload.len()
    }

    /// Serializes the packet into a fresh wire buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_into(&mut out);
        Bytes::from(out)
    }

    /// Appends the wire form to `out` (with a reused `out` of settled
    /// capacity, serialization performs no allocation, unlike
    /// [`to_bytes`](Self::to_bytes) which builds a fresh buffer).
    pub fn write_into(&self, out: &mut Vec<u8>) {
        self.view().write_into(out);
    }

    /// Parses a wire buffer produced by [`CodedPacket::to_bytes`] into
    /// freshly allocated storage (receivers and tests; the relay parses
    /// a borrowed [`PacketView`] instead).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PacketView::parse`].
    pub fn from_bytes(data: &[u8], generation_size: usize) -> Result<Self, HeaderError> {
        Ok(PacketView::parse(data, generation_size)?.to_owned_pooled(&mut PayloadPool::new()))
    }
}

/// A zero-copy view of a coded packet still sitting in a receive buffer.
///
/// The relay hot path parses ingress datagrams into a view instead of an
/// owned [`CodedPacket`]: a recoding or decoding VNF only *reads* the
/// coefficients and payload, so copying them into per-packet buffers is
/// wasted work unless the packet itself must travel on verbatim — in
/// which case [`to_owned_pooled`](Self::to_owned_pooled) materializes it
/// from recycled pool storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    session: SessionId,
    generation: u64,
    coefficients: &'a [u8],
    payload: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Parses a data packet without copying anything. The coefficient
    /// count is `generation_size`: it is not on the wire, and both ends
    /// learn it from the `NC_SETTINGS` control signal.
    ///
    /// # Errors
    ///
    /// [`HeaderError::BadMagic`] if the buffer is not an NC packet;
    /// [`HeaderError::BadKind`] if its kind byte is one of the retired
    /// sliding-window kinds (2, 3); [`HeaderError::Truncated`] if it is
    /// shorter than the prefix and `generation_size` coefficients.
    pub fn parse(data: &'a [u8], generation_size: usize) -> Result<Self, HeaderError> {
        let needed = CodedPacket::FIXED_LEN + generation_size;
        let Some(&magic) = data.first() else {
            return Err(HeaderError::Truncated {
                needed,
                available: 0,
            });
        };
        if magic != NC_MAGIC {
            return Err(HeaderError::BadMagic { found: magic });
        }
        if let Some(&kind) = data.get(1).filter(|k| RETIRED_KINDS.contains(k)) {
            return Err(HeaderError::BadKind {
                expected: NC_VERSION,
                found: kind,
            });
        }
        if data.len() < needed {
            return Err(HeaderError::Truncated {
                needed,
                available: data.len(),
            });
        }
        let generation = u32::from_be_bytes(data[4..8].try_into().expect("4 bytes"));
        Ok(PacketView {
            session: SessionId::new(u16::from_be_bytes([data[2], data[3]])),
            generation: u64::from(generation),
            coefficients: &data[CodedPacket::FIXED_LEN..needed],
            payload: &data[needed..],
        })
    }

    /// Reads the `(session, generation)` pair a sharded relay places a
    /// data packet by, from the fixed prefix alone (the generation size
    /// is not needed) and without touching the heap. `None` means the
    /// datagram is not an NC data packet.
    #[must_use]
    pub fn shard_key(data: &[u8]) -> Option<(SessionId, u64)> {
        let view = PacketView::parse(data, 0).ok()?;
        Some((view.session, view.generation))
    }

    /// The session this packet belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The encoding coefficient vector.
    pub fn coefficients(&self) -> &'a [u8] {
        self.coefficients
    }

    /// The encoded block carried by this packet.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Appends the viewed packet's wire form to `out`: the bytes
    /// [`CodedPacket::write_into`] writes for an owned copy, without
    /// making one. This is how a relay forwards a packet verbatim.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        write_prefix(out, self.session, self.generation);
        out.extend_from_slice(self.coefficients);
        out.extend_from_slice(self.payload);
    }

    /// Copies the view into an owned packet backed by recycled buffers
    /// from `pool` (recycle it back once sent).
    pub fn to_owned_pooled(&self, pool: &mut PayloadPool) -> CodedPacket {
        CodedPacket {
            session: self.session,
            generation: self.generation,
            coefficients: pool.checkout_copy(self.coefficients).freeze(),
            payload: pool.checkout_copy(self.payload).freeze(),
        }
    }
}

/// Appends a data packet's fixed prefix, everything before its
/// coefficients: the one place that writes the header.
pub(crate) fn write_prefix(out: &mut Vec<u8>, session: SessionId, generation: u64) {
    out.push(NC_MAGIC);
    out.push(NC_VERSION);
    out.extend_from_slice(&session.value().to_be_bytes());
    out.extend_from_slice(&(generation as u32).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CodedPacket {
        CodedPacket::new(
            SessionId::new(42),
            0xDEAD,
            Bytes::from(vec![1, 2, 3, 4]),
            Bytes::from_static(b"payload bytes"),
        )
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Wire image captured from commit 6ed38ad (before the two packet
    /// types were folded into one): no later change may move a byte.
    #[test]
    fn golden_wire_vectors_are_unchanged() {
        let k1 = CodedPacket::new(
            SessionId::new(0x1234),
            0xDEAD_BEEF,
            Bytes::from(vec![1, 0, 0xfe, 7]),
            Bytes::from_static(b"generation payload"),
        );
        let wire = unhex("ac011234deadbeef0100fe0767656e65726174696f6e207061796c6f6164");
        let mut out = Vec::new();
        k1.write_into(&mut out);
        assert_eq!(out, wire);
        assert_eq!(&k1.to_bytes()[..], &wire[..]);
        assert_eq!(PacketView::parse(&wire, 4).unwrap(), k1.view());
        assert_eq!(CodedPacket::from_bytes(&wire, 4).unwrap(), k1);
    }

    /// Wire images of the retired sliding-window data packet (kind 2)
    /// and ack (kind 3), from the same commit: whatever the generation
    /// size, and however short, each is refused by its kind byte.
    #[test]
    fn retired_window_kinds_are_rejected() {
        let data = unhex("ac02050901020304050607080303000577696e646f77207061796c6f6164");
        let ack = unhex("ac0300ff000000010000004d0300");
        for (wire, kind) in [(&data, 2), (&ack, 3)] {
            for g in [0, 4, 200] {
                for len in 2..=wire.len() {
                    assert_eq!(
                        PacketView::parse(&wire[..len], g),
                        Err(HeaderError::BadKind {
                            expected: NC_VERSION,
                            found: kind
                        })
                    );
                }
            }
            assert_eq!(PacketView::shard_key(wire), None);
        }
    }

    #[test]
    fn roundtrip() {
        let pkt = sample();
        let wire = pkt.to_bytes();
        assert_eq!(wire.len(), 8 + 4 + 13);
        assert_eq!(wire.len(), pkt.wire_len());
        let back = CodedPacket::from_bytes(&wire, 4).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn view_parse_borrows_and_pooled_copy_recycles() {
        let pkt = sample();
        let wire = pkt.to_bytes();
        let view = PacketView::parse(&wire, 4).unwrap();
        assert_eq!(view.session(), pkt.session());
        assert_eq!(view.generation(), pkt.generation());
        assert_eq!(view.coefficients(), pkt.coefficients());
        assert_eq!(view.payload(), pkt.payload());
        let mut pool = PayloadPool::new();
        let owned = view.to_owned_pooled(&mut pool);
        assert_eq!(owned, pkt);
        // The pooled copy's buffers go back to the free list.
        assert_eq!(pool.recycle(owned), 2);
        assert_eq!(pool.idle(), 2);
        assert!(PacketView::parse(&wire[..6], 4).is_err());
        assert!(PacketView::parse(b"\x00junk-not-nc", 4).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = sample().to_bytes().to_vec();
        wire[0] = 0x00;
        let err = CodedPacket::from_bytes(&wire, 4).unwrap_err();
        assert_eq!(err, HeaderError::BadMagic { found: 0 });
    }

    #[test]
    fn truncated_rejected() {
        let wire = sample().to_bytes();
        let err = CodedPacket::from_bytes(&wire[..6], 4).unwrap_err();
        assert!(matches!(err, HeaderError::Truncated { .. }));
        let err = PacketView::parse(&[], 4).unwrap_err();
        assert_eq!(
            err,
            HeaderError::Truncated {
                needed: 12,
                available: 0
            }
        );
    }

    #[test]
    fn shard_key_is_generation_or_stream() {
        let wire = sample().to_bytes();
        assert_eq!(
            PacketView::shard_key(&wire),
            Some((SessionId::new(42), 0xDEAD))
        );
        // The fixed prefix is enough.
        assert_eq!(
            PacketView::shard_key(&wire[..8]),
            Some((SessionId::new(42), 0xDEAD))
        );
        assert_eq!(PacketView::shard_key(&wire[..7]), None);
        assert_eq!(PacketView::shard_key(b"zz"), None);
    }

    #[test]
    fn legacy_packets_classify_as_generation() {
        let wire = sample().to_bytes();
        // Kind bytes other than the retired two parse as the
        // generational layout.
        for kind in [0, 1, 4, 9, 0xff] {
            let mut other = wire.to_vec();
            other[1] = kind;
            assert_eq!(
                PacketView::parse(&other, 4).unwrap(),
                PacketView::parse(&wire, 4).unwrap()
            );
        }
    }

    #[test]
    fn header_len_matches_paper() {
        // "8 bytes plus the length of coefficients" — 12 bytes at g = 4.
        assert_eq!(sample().wire_len() - sample().payload().len(), 12);
    }
}
