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
//! # Sliding-window wire kinds
//!
//! Byte 1 doubles as a packet *kind*: the legacy generational layout above
//! carries [`NC_VERSION`] (1) there, and two additional kinds share the
//! same magic byte for finite-window streaming (see
//! [`window`](crate::window) for the codec):
//!
//! ```text
//! windowed data packet (kind 2, NC_KIND_WINDOW):
//! byte 0       magic 0xAC
//! byte 1       kind 2
//! bytes 2-3    session id, big endian
//! bytes 4-11   window base: absolute index of the first symbol the
//!              coefficient vector refers to, big endian
//! byte 12      window width w (1-255): coefficient count; coefficient i
//!              applies to symbol base + i
//! bytes 13..   w GF(2^8) coefficients, then the coded payload
//!
//! window ack/nack frame (kind 3, NC_KIND_WINDOW_ACK), 14 bytes:
//! byte 0       magic 0xAC
//! byte 1       kind 3
//! bytes 2-3    session id, big endian
//! bytes 4-11   cumulative: next symbol index the receiver needs
//!              (everything below it was delivered in order), big endian
//! byte 12      repair packets wanted (0 = pure ack, >0 = NACK burst ask)
//! byte 13      reserved (0)
//! ```
//!
//! Both data kinds are one [`CodedPacket`] / [`PacketView`] carrying a
//! [`WireKind`]; [`PacketView::parse`] is the single place that tells
//! kind 1 from kind 2, [`PacketView::write_into`] the single serializer
//! (an owned packet serializes through its view) and
//! [`PacketView::shard_key`] the single dispatch peek. [`wire_kind`]
//! lets dispatchers pick the ack frames (kind 3) out first. Unknown kind
//! bytes parse as legacy, so pre-window peers interoperate unchanged.

use bytes::Bytes;

use crate::error::HeaderError;
use crate::pool::PayloadPool;

/// Magic byte identifying an NC packet.
pub const NC_MAGIC: u8 = 0xAC;
/// Protocol version encoded in byte 1.
pub const NC_VERSION: u8 = 1;
/// Kind byte of a sliding-window data packet.
pub const NC_KIND_WINDOW: u8 = 2;
/// Kind byte of a sliding-window ack/nack frame.
pub const NC_KIND_WINDOW_ACK: u8 = 3;

/// Classification of an NC datagram by its kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// Legacy generational coded packet (index = generation id).
    Generation,
    /// Sliding-window data packet (index = window base).
    Window,
    /// Sliding-window ack/nack frame ([`WindowAck`] layout).
    WindowAck,
}

/// Classifies a datagram by magic + kind byte without parsing it.
///
/// `None` means the buffer is not an NC packet at all. Unknown kind
/// bytes classify as [`WireKind::Generation`], matching the legacy
/// parser's behavior of ignoring the version byte.
#[must_use]
pub fn wire_kind(data: &[u8]) -> Option<WireKind> {
    if data.len() < 2 || data[0] != NC_MAGIC {
        return None;
    }
    Some(match data[1] {
        NC_KIND_WINDOW => WireKind::Window,
        NC_KIND_WINDOW_ACK => WireKind::WindowAck,
        _ => WireKind::Generation,
    })
}

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

/// One coded packet of either data framing: a generational packet
/// (wire kind 1: `index` is the generation id and the coefficient count
/// is the out-of-band generation size) or a sliding-window packet (wire
/// kind 2: `index` is the absolute base symbol and the coefficient count
/// travels in the width byte). This module is the only place that knows
/// the two layouts; everything above it handles one packet type.
///
/// Coefficients and payload are [`Bytes`], so cloning a packet (forwarding
/// it to several next hops) bumps reference counts instead of copying, and
/// pooled buffers can be reclaimed via
/// [`PayloadPool::recycle`](crate::PayloadPool::recycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedPacket {
    pub(crate) kind: WireKind,
    pub(crate) session: SessionId,
    pub(crate) index: u64,
    pub(crate) coefficients: Bytes,
    pub(crate) payload: Bytes,
}

impl CodedPacket {
    /// Length of the generational fixed prefix before the coefficients.
    pub const FIXED_LEN: usize = 8;
    /// Length of the windowed fixed prefix (through the width byte).
    pub const WINDOW_FIXED_LEN: usize = 13;
    /// Maximum coefficient count the windowed width byte can express.
    pub const MAX_WIDTH: usize = 255;

    /// Assembles a generational packet (wire kind 1).
    pub fn new(session: SessionId, generation: u64, coefficients: Bytes, payload: Bytes) -> Self {
        CodedPacket {
            kind: WireKind::Generation,
            session,
            index: generation,
            coefficients,
            payload,
        }
    }

    /// Assembles a sliding-window packet (wire kind 2): coefficient `i`
    /// applies to stream symbol `base + i`.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient vector is empty or longer than
    /// [`Self::MAX_WIDTH`] (the width byte could not describe it).
    pub fn window(session: SessionId, base: u64, coefficients: Bytes, payload: Bytes) -> Self {
        let w = coefficients.len();
        assert!(
            (1..=Self::MAX_WIDTH).contains(&w),
            "window width {w} outside 1..=255"
        );
        CodedPacket {
            kind: WireKind::Window,
            session,
            index: base,
            coefficients,
            payload,
        }
    }

    /// The packet's framing ([`WireKind::Generation`] or
    /// [`WireKind::Window`]).
    pub fn kind(&self) -> WireKind {
        self.kind
    }

    /// The session this packet belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The generation id (generational) or window base (windowed).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The generation number — [`index`](Self::index) under the name
    /// generational call sites read.
    pub fn generation(&self) -> u64 {
        self.index
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
            kind: self.kind,
            session: self.session,
            index: self.index,
            coefficients: &self.coefficients,
            payload: &self.payload,
        }
    }

    /// Total wire length of this packet (header + payload).
    pub fn wire_len(&self) -> usize {
        let fixed = match self.kind {
            WireKind::Window => Self::WINDOW_FIXED_LEN,
            _ => Self::FIXED_LEN,
        };
        fixed + self.coefficients.len() + self.payload.len()
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
    kind: WireKind,
    session: SessionId,
    index: u64,
    coefficients: &'a [u8],
    payload: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Parses a data packet of either framing without copying anything —
    /// the one kind-1/kind-2 dispatch point. A windowed packet (kind 2)
    /// reads its coefficient count from the width byte; every other kind
    /// byte parses as the legacy generational layout with
    /// `generation_size` coefficients (the count is not on the wire; both
    /// ends learn it from the `NC_SETTINGS` control signal).
    ///
    /// # Errors
    ///
    /// [`HeaderError::BadMagic`] if the buffer is not an NC packet;
    /// [`HeaderError::BadKind`] if it is a window ack (kind 3), which is
    /// not a data packet; [`HeaderError::Truncated`] if it is too short
    /// for its layout (a zero width byte counts as truncated).
    pub fn parse(data: &'a [u8], generation_size: usize) -> Result<Self, HeaderError> {
        let truncated = |needed| HeaderError::Truncated {
            needed,
            available: data.len(),
        };
        let Some(&magic) = data.first() else {
            return Err(truncated(CodedPacket::FIXED_LEN + generation_size));
        };
        if magic != NC_MAGIC {
            return Err(HeaderError::BadMagic { found: magic });
        }
        let window = match data.get(1) {
            Some(&NC_KIND_WINDOW) => true,
            Some(&NC_KIND_WINDOW_ACK) => {
                return Err(HeaderError::BadKind {
                    expected: NC_VERSION,
                    found: NC_KIND_WINDOW_ACK,
                })
            }
            _ => false,
        };
        let fixed = if window {
            CodedPacket::WINDOW_FIXED_LEN
        } else {
            CodedPacket::FIXED_LEN
        };
        let width = if window {
            let Some(&width) = data.get(fixed - 1) else {
                return Err(truncated(fixed));
            };
            usize::from(width)
        } else {
            generation_size
        };
        let needed = fixed + width;
        if data.len() < needed || (window && width == 0) {
            return Err(truncated(needed));
        }
        let (kind, index) = if window {
            let base = u64::from_be_bytes(data[4..12].try_into().expect("8 bytes"));
            (WireKind::Window, base)
        } else {
            let generation = u32::from_be_bytes(data[4..8].try_into().expect("4 bytes"));
            (WireKind::Generation, u64::from(generation))
        };
        Ok(PacketView {
            kind,
            session: SessionId::new(u16::from_be_bytes([data[2], data[3]])),
            index,
            coefficients: &data[fixed..needed],
            payload: &data[needed..],
        })
    }

    /// Reads the `(session, index)` pair a sharded relay places a data
    /// packet by, without touching the heap: `(session, generation)` for
    /// a generational packet (the fixed prefix alone — the generation
    /// size is not needed), `(session, 0)` for a well-formed windowed one
    /// (a stream's window state is one object, so all of it must reach
    /// one shard). `None` means the datagram is not a (complete) NC data
    /// packet.
    #[must_use]
    pub fn shard_key(data: &[u8]) -> Option<(SessionId, u64)> {
        let view = PacketView::parse(data, 0).ok()?;
        Some(match view.kind {
            WireKind::Window => (view.session, 0),
            _ => (view.session, view.index),
        })
    }

    /// The packet's framing ([`WireKind::Generation`] or
    /// [`WireKind::Window`]).
    pub fn kind(&self) -> WireKind {
        self.kind
    }

    /// The session this packet belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The generation id (generational) or window base (windowed).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The generation number — [`index`](Self::index) under the name
    /// generational call sites read.
    pub fn generation(&self) -> u64 {
        self.index
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
        write_prefix(
            out,
            self.kind,
            self.session,
            self.index,
            self.coefficients.len(),
        );
        out.extend_from_slice(self.coefficients);
        out.extend_from_slice(self.payload);
    }

    /// Copies the view into an owned packet backed by recycled buffers
    /// from `pool` (recycle it back once sent).
    pub fn to_owned_pooled(&self, pool: &mut PayloadPool) -> CodedPacket {
        CodedPacket {
            kind: self.kind,
            session: self.session,
            index: self.index,
            coefficients: pool.checkout_copy(self.coefficients).freeze(),
            payload: pool.checkout_copy(self.payload).freeze(),
        }
    }
}

/// Appends a data packet's fixed prefix, everything before its `width`
/// coefficients: the one place that writes either layout's header.
pub(crate) fn write_prefix(
    out: &mut Vec<u8>,
    kind: WireKind,
    session: SessionId,
    index: u64,
    width: usize,
) {
    out.push(NC_MAGIC);
    match kind {
        WireKind::Window => {
            out.push(NC_KIND_WINDOW);
            out.extend_from_slice(&session.value().to_be_bytes());
            out.extend_from_slice(&index.to_be_bytes());
            out.push(width as u8);
        }
        _ => {
            out.push(NC_VERSION);
            out.extend_from_slice(&session.value().to_be_bytes());
            out.extend_from_slice(&(index as u32).to_be_bytes());
        }
    }
}

/// A sliding-window ack/nack frame: cumulative in-order delivery point
/// plus an optional repair ask (the windowed analogue of the
/// generational feedback NACK, answered from the live window instead of
/// a whole generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowAck {
    /// Session being acknowledged.
    pub session: SessionId,
    /// Next symbol index the receiver needs: all symbols below it were
    /// delivered in order. The sender slides its window base up to here.
    pub cumulative: u64,
    /// Repair packets the receiver wants (0 = pure ack; >0 turns the
    /// frame into a NACK asking for a burst of fresh combinations).
    pub repair_wanted: u8,
}

impl WindowAck {
    /// Fixed wire length of an ack frame.
    pub const WIRE_LEN: usize = 14;

    /// Serializes the frame.
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0] = NC_MAGIC;
        out[1] = NC_KIND_WINDOW_ACK;
        out[2..4].copy_from_slice(&self.session.value().to_be_bytes());
        out[4..12].copy_from_slice(&self.cumulative.to_be_bytes());
        out[12] = self.repair_wanted;
        out
    }

    /// Parses an ack frame.
    ///
    /// # Errors
    ///
    /// [`HeaderError::BadMagic`] / [`HeaderError::BadKind`] on foreign
    /// bytes; [`HeaderError::Truncated`] if shorter than
    /// [`Self::WIRE_LEN`].
    pub fn parse(data: &[u8]) -> Result<Self, HeaderError> {
        if data.is_empty() {
            return Err(HeaderError::Truncated {
                needed: Self::WIRE_LEN,
                available: 0,
            });
        }
        if data[0] != NC_MAGIC {
            return Err(HeaderError::BadMagic { found: data[0] });
        }
        if data.len() < Self::WIRE_LEN {
            return Err(HeaderError::Truncated {
                needed: Self::WIRE_LEN,
                available: data.len(),
            });
        }
        if data[1] != NC_KIND_WINDOW_ACK {
            return Err(HeaderError::BadKind {
                expected: NC_KIND_WINDOW_ACK,
                found: data[1],
            });
        }
        Ok(WindowAck {
            session: SessionId::new(u16::from_be_bytes([data[2], data[3]])),
            cumulative: u64::from_be_bytes(data[4..12].try_into().expect("8 bytes")),
            repair_wanted: data[12],
        })
    }
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

    fn window_sample() -> CodedPacket {
        CodedPacket::window(
            SessionId::new(9),
            0x1_0000_0007,
            Bytes::from(vec![3, 0, 5]),
            Bytes::from_static(b"window payload"),
        )
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Wire images captured from commit 6ed38ad (before the two packet
    /// types were folded into one): the fold must not move a byte.
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

        let k2 = CodedPacket::window(
            SessionId::new(0x0509),
            0x0102_0304_0506_0708,
            Bytes::from(vec![3, 0, 5]),
            Bytes::from_static(b"window payload"),
        );
        let wire = unhex("ac02050901020304050607080303000577696e646f77207061796c6f6164");
        let mut out = Vec::new();
        k2.write_into(&mut out);
        assert_eq!(out, wire);
        assert_eq!(&k2.to_bytes()[..], &wire[..]);
        // The generation size is irrelevant to a windowed parse.
        for g in [0, 4, 200] {
            assert_eq!(PacketView::parse(&wire, g).unwrap(), k2.view());
        }

        let k3 = WindowAck {
            session: SessionId::new(0x00ff),
            cumulative: 0x0000_0001_0000_004d,
            repair_wanted: 3,
        };
        let wire = unhex("ac0300ff000000010000004d0300");
        assert_eq!(&k3.encode()[..], &wire[..]);
        assert_eq!(WindowAck::parse(&wire).unwrap(), k3);
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
        assert_eq!(view.kind(), WireKind::Generation);
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
    fn window_packet_roundtrip_and_classification() {
        let pkt = window_sample();
        let wire = pkt.to_bytes();
        assert_eq!(wire.len(), 13 + 3 + 14);
        assert_eq!(wire.len(), pkt.wire_len());
        assert_eq!(wire_kind(&wire), Some(WireKind::Window));
        assert_eq!(CodedPacket::from_bytes(&wire, 4).unwrap(), pkt);
        let view = PacketView::parse(&wire, 4).unwrap();
        assert_eq!(view.kind(), WireKind::Window);
        assert_eq!(view.session(), pkt.session());
        assert_eq!(view.index(), pkt.index());
        assert_eq!(view.coefficients(), pkt.coefficients());
        assert_eq!(view.payload(), pkt.payload());
        let mut pool = PayloadPool::new();
        assert_eq!(view.to_owned_pooled(&mut pool), pkt);
    }

    #[test]
    #[should_panic(expected = "outside 1..=255")]
    fn window_constructor_rejects_an_empty_coefficient_vector() {
        let _ = CodedPacket::window(SessionId::new(1), 0, Bytes::new(), Bytes::new());
    }

    #[test]
    fn shard_key_is_generation_or_stream() {
        let wire = sample().to_bytes();
        assert_eq!(
            PacketView::shard_key(&wire),
            Some((SessionId::new(42), 0xDEAD))
        );
        // The fixed prefix is enough for a generational packet.
        assert_eq!(
            PacketView::shard_key(&wire[..8]),
            Some((SessionId::new(42), 0xDEAD))
        );
        assert_eq!(PacketView::shard_key(&wire[..7]), None);
        let wire = window_sample().to_bytes();
        assert_eq!(PacketView::shard_key(&wire), Some((SessionId::new(9), 0)));
        assert_eq!(PacketView::shard_key(&wire[..15]), None);
        assert_eq!(PacketView::shard_key(b"zz"), None);
    }

    #[test]
    fn window_ack_roundtrip_and_classification() {
        let ack = WindowAck {
            session: SessionId::new(4),
            cumulative: 77,
            repair_wanted: 3,
        };
        let wire = ack.encode();
        assert_eq!(wire_kind(&wire), Some(WireKind::WindowAck));
        assert_eq!(WindowAck::parse(&wire).unwrap(), ack);
        assert!(WindowAck::parse(&wire[..10]).is_err());
        // An ack is not a data packet, whatever the generation size.
        for g in [0, 4, 6] {
            assert_eq!(
                PacketView::parse(&wire, g),
                Err(HeaderError::BadKind {
                    expected: NC_VERSION,
                    found: NC_KIND_WINDOW_ACK
                })
            );
        }
        assert_eq!(PacketView::shard_key(&wire), None);
    }

    #[test]
    fn legacy_packets_classify_as_generation() {
        let wire = sample().to_bytes();
        assert_eq!(wire_kind(&wire), Some(WireKind::Generation));
        assert_eq!(wire_kind(b"zz"), None);
        assert_eq!(wire_kind(&[NC_MAGIC]), None);
        // Unknown future kinds fall back to the legacy classification
        // and the legacy layout.
        assert_eq!(wire_kind(&[NC_MAGIC, 9, 0, 0]), Some(WireKind::Generation));
        let mut future = wire.to_vec();
        future[1] = 9;
        assert_eq!(
            PacketView::parse(&future, 4).unwrap(),
            PacketView::parse(&wire, 4).unwrap()
        );
    }

    #[test]
    fn window_parse_rejects_foreign_and_truncated_bytes() {
        let wire = window_sample().to_bytes();
        assert_eq!(
            PacketView::parse(&wire[..12], 4),
            Err(HeaderError::Truncated {
                needed: 13,
                available: 12
            })
        );
        assert_eq!(
            PacketView::parse(&wire[..15], 4),
            Err(HeaderError::Truncated {
                needed: 16,
                available: 15
            })
        );
        let mut zero_width = wire.to_vec();
        zero_width[12] = 0;
        assert!(matches!(
            PacketView::parse(&zero_width, 4),
            Err(HeaderError::Truncated { needed: 13, .. })
        ));
        // Windowed packet fed to the ack parser: kind mismatch.
        assert!(matches!(
            WindowAck::parse(&wire),
            Err(HeaderError::BadKind { .. })
        ));
    }

    #[test]
    fn header_len_matches_paper() {
        // "8 bytes plus the length of coefficients" — 12 bytes at g = 4.
        assert_eq!(sample().wire_len() - sample().payload().len(), 12);
    }
}
