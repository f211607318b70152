//! Property-based hardening of every parse path the relay data and
//! control sockets expose to the network.
//!
//! The chaos harness now corrupts and truncates live datagrams
//! (`FaultConfig::with_corrupt` / `with_truncate`), so every decoder a
//! hostile byte string can reach must be total: parse or typed error,
//! never a panic — and the dispatch rules (feedback magic first, then
//! the NC header peek) must never misroute a frame of one kind into the
//! parser of another. That holds for all three NC wire kinds: the one
//! data parser ([`PacketView::parse`], kinds 1 and 2) and the ack parser
//! ([`WindowAck::parse`], kind 3) each accept only their own kind byte.

use ncvnf_control::signal::{Signal, SignalFrame};
use ncvnf_dataplane::{Feedback, FEEDBACK_MAGIC};

use ncvnf_rlnc::{
    wire_kind, CodedPacket, GenerationConfig, GenerationEncoder, HeaderError, PacketView,
    SessionId, WindowAck, WireKind, NC_KIND_WINDOW, NC_KIND_WINDOW_ACK, NC_MAGIC,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GEN_SIZE: usize = 4;

/// A valid coded-packet wire image to mutate.
fn wire_packet(seed: u64, session: u16, generation: u64) -> Vec<u8> {
    let cfg = GenerationConfig::new(64, GEN_SIZE).unwrap();
    let enc = GenerationEncoder::new(cfg, &[0x5C; 256]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    enc.coded_packet(ncvnf_rlnc::SessionId::new(session), generation, &mut rng)
        .to_bytes()
        .to_vec()
}

/// A valid sliding-window data frame (wire kind 2) to mutate, laid out
/// by hand from the wire grammar so the parser is checked against the
/// format, not against the serializer.
fn wire_window(session: u16, base: u64, width: usize, payload_len: usize) -> Vec<u8> {
    let mut wire = vec![NC_MAGIC, NC_KIND_WINDOW];
    wire.extend_from_slice(&session.to_be_bytes());
    wire.extend_from_slice(&base.to_be_bytes());
    wire.push(width as u8);
    wire.extend((1..=width).map(|i| i as u8));
    wire.resize(wire.len() + payload_len, 0x5C);
    wire
}

/// Whatever the NC parsers make of `data`, they agree with its kind
/// byte: the data parser never accepts an ack, the ack parser never
/// accepts data, a windowed parse means kind 2, and the shard key exists
/// exactly when the data parser could read a header.
fn assert_no_cross_dispatch(data: &[u8]) -> Result<(), TestCaseError> {
    let kind = wire_kind(data);
    match PacketView::parse(data, GEN_SIZE) {
        Ok(view) => {
            prop_assert_eq!(Some(view.kind()), kind);
            prop_assert!(view.kind() != WireKind::WindowAck);
            let windowed = data[1] == NC_KIND_WINDOW;
            prop_assert_eq!(view.kind() == WireKind::Window, windowed);
            if windowed {
                prop_assert_eq!(view.coefficients().len(), usize::from(data[12]));
                prop_assert!(!view.coefficients().is_empty());
            }
            prop_assert!(PacketView::shard_key(data).is_some());
        }
        Err(HeaderError::BadKind { found, .. }) => {
            prop_assert_eq!(found, NC_KIND_WINDOW_ACK);
            prop_assert_eq!(kind, Some(WireKind::WindowAck));
            prop_assert!(PacketView::shard_key(data).is_none());
        }
        Err(HeaderError::BadMagic { found }) => {
            prop_assert!(found != NC_MAGIC);
            prop_assert!(PacketView::shard_key(data).is_none());
        }
        Err(HeaderError::Truncated { needed, available }) => {
            prop_assert_eq!(available, data.len());
            // A zero width byte also reports as truncated.
            prop_assert!(needed > available || kind == Some(WireKind::Window));
        }
    }
    if WindowAck::parse(data).is_ok() {
        prop_assert_eq!(kind, Some(WireKind::WindowAck));
    }
    Ok(())
}

proptest! {
    /// Arbitrary byte soup never panics any ingress parser.
    #[test]
    fn byte_soup_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = CodedPacket::from_bytes(&data, GEN_SIZE);
        let _ = Feedback::from_bytes(&data);
        let _ = SignalFrame::from_bytes(&data);
        assert_no_cross_dispatch(&data)?;
        // Soup that does carry the NC magic reaches the kind dispatch.
        let mut nc = data;
        if let Some(first) = nc.first_mut() {
            *first = NC_MAGIC;
        }
        assert_no_cross_dispatch(&nc)?;
    }

    /// Every strict prefix of a valid windowed frame (kind 2) is a typed
    /// truncation until its header is whole, then the same header over a
    /// shorter payload — and is never an ack, feedback or a signal.
    #[test]
    fn truncated_window_frames_never_misdispatch(
        session in 1u16..=u16::MAX,
        base in any::<u64>(),
        width in 1usize..=255,
        payload_len in 0usize..128,
        cut_permille in 0u32..1000,
    ) {
        let wire = wire_window(session, base, width, payload_len);
        let header = CodedPacket::WINDOW_FIXED_LEN + width;
        let cut = (wire.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let data = &wire[..cut];
        match PacketView::parse(data, GEN_SIZE) {
            Ok(view) => {
                prop_assert!(cut >= header);
                prop_assert_eq!(view.kind(), WireKind::Window);
                prop_assert_eq!(view.session().value(), session);
                prop_assert_eq!(view.index(), base);
                prop_assert_eq!(view.coefficients(), &wire[CodedPacket::WINDOW_FIXED_LEN..header]);
                prop_assert_eq!(view.payload(), &wire[header..cut]);
                // A stream shards by session alone.
                prop_assert_eq!(PacketView::shard_key(data), Some((SessionId::new(session), 0)));
            }
            Err(e) => {
                prop_assert!(cut < header);
                prop_assert!(matches!(e, HeaderError::Truncated { .. }), "got {:?}", e);
                prop_assert!(PacketView::shard_key(data).is_none());
            }
        }
        prop_assert!(WindowAck::parse(data).is_err());
        if !data.is_empty() {
            prop_assert!(Feedback::from_bytes(data).is_err());
        }
        prop_assert!(SignalFrame::from_bytes(data).is_err());
    }

    /// Every strict prefix of a valid window ack (kind 3) is a typed
    /// error from both NC parsers and never earns a shard key.
    #[test]
    fn truncated_window_acks_never_misdispatch(
        session in any::<u16>(),
        cumulative in any::<u64>(),
        repair_wanted in any::<u8>(),
        cut in 0usize..WindowAck::WIRE_LEN,
    ) {
        let ack = WindowAck { session: SessionId::new(session), cumulative, repair_wanted };
        let wire = ack.encode();
        prop_assert_eq!(WindowAck::parse(&wire), Ok(ack));
        let data = &wire[..cut];
        let truncated = matches!(WindowAck::parse(data), Err(HeaderError::Truncated { .. }));
        prop_assert!(truncated);
        for g in [0, GEN_SIZE, 64] {
            prop_assert!(PacketView::parse(data, g).is_err());
            prop_assert!(PacketView::parse(&wire, g).is_err());
        }
        prop_assert!(PacketView::shard_key(data).is_none());
        prop_assert!(PacketView::shard_key(&wire).is_none());
    }

    /// Single-byte corruption anywhere in a windowed frame or a window
    /// ack — the kind byte and the width byte included — parses or
    /// returns a typed error, and whatever parses agrees with the kind
    /// byte now on the wire.
    #[test]
    fn corrupted_window_frames_never_cross_dispatch(
        width in 1usize..=255,
        payload_len in 0usize..64,
        pos_permille in 0u32..1000,
        xor in 1u8..=255,
    ) {
        let mut wire = wire_window(9, 3, width, payload_len);
        let pos = (wire.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(wire.len() - 1);
        wire[pos] ^= xor;
        assert_no_cross_dispatch(&wire)?;
        let _ = CodedPacket::from_bytes(&wire, GEN_SIZE);

        let ack = WindowAck { session: SessionId::new(9), cumulative: 3, repair_wanted: 1 };
        let mut wire = ack.encode();
        wire[pos % WindowAck::WIRE_LEN] ^= xor;
        assert_no_cross_dispatch(&wire)?;

        // The kind byte specifically: every value on both frames.
        let window = wire_window(9, 3, width, payload_len);
        for kind in 0..=255u8 {
            let (mut as_window, mut as_ack) = (window.clone(), ack.encode());
            as_window[1] = kind;
            as_ack[1] = kind;
            assert_no_cross_dispatch(&as_window)?;
            assert_no_cross_dispatch(&as_ack)?;
        }
    }

    /// The width byte decides how much of a windowed frame is header: 0
    /// and anything past the bytes that follow it are typed truncations,
    /// every other value splits the same bytes differently.
    #[test]
    fn window_width_byte_is_bounds_checked(
        width in 1usize..=255,
        payload_len in 0usize..64,
        claimed in any::<u8>(),
    ) {
        let mut wire = wire_window(9, 3, width, payload_len);
        wire[12] = claimed;
        let remaining = wire.len() - CodedPacket::WINDOW_FIXED_LEN;
        match PacketView::parse(&wire, GEN_SIZE) {
            Ok(view) => {
                prop_assert!(claimed != 0 && usize::from(claimed) <= remaining);
                prop_assert_eq!(view.coefficients().len(), usize::from(claimed));
                prop_assert_eq!(view.payload().len(), remaining - usize::from(claimed));
            }
            Err(e) => {
                prop_assert!(claimed == 0 || usize::from(claimed) > remaining);
                prop_assert_eq!(e, HeaderError::Truncated {
                    needed: CodedPacket::WINDOW_FIXED_LEN + usize::from(claimed),
                    available: wire.len(),
                });
            }
        }
    }

    /// Every strict prefix of a valid coded packet parses or errors —
    /// and `shard_key` only succeeds once the fixed prefix is complete,
    /// in which case it reports the true ids (truncation can shorten a
    /// packet, never redirect it to another session's shard).
    #[test]
    fn truncated_packets_never_misdispatch(
        seed in any::<u64>(),
        session in 1u16..=u16::MAX,
        generation in 0u64..=u32::MAX as u64,
        cut_permille in 0u32..1000,
    ) {
        let wire = wire_packet(seed, session, generation);
        let cut = (wire.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let data = &wire[..cut];
        match PacketView::shard_key(data) {
            Some((s, g)) => {
                prop_assert!(cut >= CodedPacket::FIXED_LEN);
                prop_assert_eq!(s.value(), session);
                prop_assert_eq!(g, generation);
            }
            None => prop_assert!(cut < CodedPacket::FIXED_LEN),
        }
        let _ = PacketView::parse(data, GEN_SIZE);
        // A truncated data packet still never decodes as feedback or as
        // a control signal: its magic byte stays foreign to both.
        if !data.is_empty() {
            prop_assert!(Feedback::from_bytes(data).is_err());
        }
        prop_assert!(SignalFrame::from_bytes(data).is_err());
    }

    /// Single-byte corruption anywhere in a valid coded packet never
    /// panics a parser, and corrupting anything *other than the magic
    /// byte* never turns a data packet into feedback.
    #[test]
    fn corrupted_packets_never_cross_dispatch(
        seed in any::<u64>(),
        pos_permille in 0u32..1000,
        xor in 1u8..=255,
    ) {
        let mut wire = wire_packet(seed, 9, 3);
        let pos = (wire.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(wire.len() - 1);
        wire[pos] ^= xor;
        assert_no_cross_dispatch(&wire)?;
        let _ = CodedPacket::from_bytes(&wire, GEN_SIZE);
        if wire[0] != FEEDBACK_MAGIC {
            prop_assert!(
                Feedback::from_bytes(&wire).is_err(),
                "non-feedback magic must never reach the feedback path"
            );
        }
        if wire[0] != NC_MAGIC {
            prop_assert!(
                PacketView::shard_key(&wire).is_none(),
                "non-NC magic must never pass the dispatch peek"
            );
        }
    }

    /// Corrupting or truncating a control signal frame never panics the
    /// signal codec, and a corrupted *data* magic never decodes as a
    /// signal.
    #[test]
    fn mangled_signal_frames_are_total(
        session in 0u16..=u16::MAX,
        rate in any::<u32>(),
        burst in any::<u32>(),
        priority in any::<u8>(),
        pos_permille in 0u32..1000,
        xor in 1u8..=255,
        cut_permille in 0u32..1000,
    ) {
        let sig = Signal::NcQuota {
            session: ncvnf_rlnc::SessionId::new(session),
            rate_pps: rate,
            burst,
            priority,
        };
        let wire = sig.to_bytes();

        // Roundtrip sanity before mutation.
        let (frame, consumed) = SignalFrame::from_bytes(&wire).expect("valid frame decodes");
        prop_assert_eq!(consumed, wire.len());
        match frame {
            SignalFrame::Legacy(decoded) => prop_assert_eq!(decoded, sig),
            SignalFrame::Fenced(_) => prop_assert!(false, "legacy frame misread as fenced"),
        }

        // Truncation: parse-or-error.
        let cut = (wire.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let _ = SignalFrame::from_bytes(&wire[..cut]);

        // Corruption: parse-or-error, and whatever decodes is still a
        // well-typed signal (the match above proves decoding is total).
        let mut mangled = wire.to_vec();
        let pos = ((wire.len() as u64 * u64::from(pos_permille) / 1000) as usize)
            .min(wire.len() - 1);
        mangled[pos] ^= xor;
        let _ = SignalFrame::from_bytes(&mangled);
    }
}
