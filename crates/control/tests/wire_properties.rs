//! Property-based tests for the control-plane wire formats.

use ncvnf_control::signal::{FencedSignal, Signal, SignalError, SignalFrame, VnfRoleWire};
use ncvnf_control::ForwardingTable;
use ncvnf_rlnc::SessionId;
use proptest::prelude::*;

fn arb_role() -> impl Strategy<Value = VnfRoleWire> {
    prop_oneof![
        Just(VnfRoleWire::Decoder),
        Just(VnfRoleWire::Forwarder),
        Just(VnfRoleWire::Recoder),
    ]
}

/// Role byte 1 (the retired "encoder" role, once read as recoding) no
/// longer decodes: a controller that still sends it gets a malformed
/// frame, not a guess.
#[test]
fn encoder_role_byte_is_rejected() {
    let sig = Signal::NcSettings {
        session: SessionId::new(11),
        role: VnfRoleWire::Recoder,
        data_port: 4000,
        block_size: 1460,
        generation_size: 4,
        buffer_generations: 1024,
    };
    let mut wire = sig.to_bytes().to_vec();
    wire[5 + 2] = 1;
    assert_eq!(
        Signal::from_bytes(&wire).unwrap_err(),
        SignalError::Malformed("bad role byte")
    );
}

/// The explicit `Recoder` role survives the wire on its own byte, 4,
/// distinct from the retired byte 1.
#[test]
fn recoder_settings_roundtrip_distinct_from_encoder() {
    let sig = Signal::NcSettings {
        session: SessionId::new(12),
        role: VnfRoleWire::Recoder,
        data_port: 4000,
        block_size: 1460,
        generation_size: 4,
        buffer_generations: 1024,
    };
    let wire = sig.to_bytes();
    assert_eq!(wire[5 + 2], 4, "Recoder uses the fresh wire byte 4");
    let (back, _) = Signal::from_bytes(&wire).unwrap();
    assert!(matches!(
        back,
        Signal::NcSettings {
            role: VnfRoleWire::Recoder,
            ..
        }
    ));
}

fn arb_signal() -> impl Strategy<Value = Signal> {
    prop_oneof![
        Just(Signal::NcStats),
        any::<u16>().prop_map(|s| Signal::NcStart {
            session: SessionId::new(s)
        }),
        ("[a-z0-9-]{1,32}", any::<u32>()).prop_map(|(dc, count)| Signal::NcVnfStart {
            data_center: dc,
            count,
        }),
        any::<u32>().prop_map(|tau_secs| Signal::NcVnfEnd { tau_secs }),
        prop::collection::vec((any::<u16>(), "[a-z0-9.:]{1,24}"), 0..20).prop_map(|entries| {
            let mut t = ForwardingTable::new();
            for (s, hop) in entries {
                t.set(SessionId::new(s), vec![hop]);
            }
            Signal::NcForwardTab { table: t.to_text() }
        }),
        (
            any::<u16>(),
            arb_role(),
            any::<u16>(),
            1u32..9000,
            1u32..64,
            1u32..4096
        )
            .prop_map(|(s, role, port, bs, gs, buf)| Signal::NcSettings {
                session: SessionId::new(s),
                role,
                data_port: port,
                block_size: bs,
                generation_size: gs,
                buffer_generations: buf,
            }),
    ]
}

fn arb_fenced() -> impl Strategy<Value = FencedSignal> {
    (any::<u64>(), any::<u64>(), arb_signal()).prop_map(|(epoch, seq, signal)| FencedSignal {
        epoch,
        seq,
        signal,
    })
}

/// Either wire shape: a bare frame or a fenced one.
fn arb_frame_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_signal().prop_map(|s| s.to_bytes().to_vec()),
        arb_fenced().prop_map(|f| f.to_bytes().to_vec()),
    ]
}

proptest! {
    /// Every signal round-trips through the wire codec.
    #[test]
    fn signal_wire_roundtrip(sig in arb_signal()) {
        let wire = sig.to_bytes();
        let (back, used) = Signal::from_bytes(&wire).unwrap();
        prop_assert_eq!(&back, &sig);
        prop_assert_eq!(used, wire.len());
    }

    /// Concatenated frames decode one by one without desync.
    #[test]
    fn signal_streams_decode(sigs in prop::collection::vec(arb_signal(), 1..8)) {
        let mut stream = Vec::new();
        for s in &sigs {
            stream.extend_from_slice(&s.to_bytes());
        }
        let mut off = 0;
        let mut decoded = Vec::new();
        while off < stream.len() {
            let (s, used) = Signal::from_bytes(&stream[off..]).unwrap();
            decoded.push(s);
            off += used;
        }
        prop_assert_eq!(decoded, sigs);
    }

    /// Truncating any frame is always detected, never mis-parsed.
    #[test]
    fn truncation_always_detected(sig in arb_signal(), cut_frac in 0.0f64..1.0) {
        let wire = sig.to_bytes();
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        if cut < wire.len() {
            prop_assert!(Signal::from_bytes(&wire[..cut]).is_err());
        }
    }

    /// Forwarding tables round-trip through the text format.
    #[test]
    fn table_text_roundtrip(
        entries in prop::collection::vec((any::<u16>(), prop::collection::vec("[a-z0-9.:]{1,20}", 1..4)), 0..30)
    ) {
        let mut t = ForwardingTable::new();
        for (s, hops) in entries {
            t.set(SessionId::new(s), hops);
        }
        let parsed = ForwardingTable::parse(&t.to_text()).unwrap();
        prop_assert_eq!(parsed, t);
    }

    /// merge() changes exactly the entries that differ, and after a merge
    /// the merged entries are present verbatim.
    #[test]
    fn merge_counts_and_applies(
        base in prop::collection::vec((0u16..32, "[a-z]{1,8}"), 0..16),
        delta in prop::collection::vec((0u16..32, "[a-z]{1,8}"), 0..16),
    ) {
        let mut t = ForwardingTable::new();
        for (s, h) in &base {
            t.set(SessionId::new(*s), vec![h.clone()]);
        }
        let mut d = ForwardingTable::new();
        for (s, h) in &delta {
            d.set(SessionId::new(*s), vec![h.clone()]);
        }
        let expected_changes = d
            .iter()
            .filter(|(s, hops)| t.next_hops(*s) != Some(*hops))
            .count();
        let changed = t.merge(&d);
        prop_assert_eq!(changed, expected_changes);
        for (s, hops) in d.iter() {
            prop_assert_eq!(t.next_hops(s), Some(hops));
        }
    }

    /// Epoch-fenced frames round-trip, preserving fencing metadata and
    /// the inner signal.
    #[test]
    fn fenced_wire_roundtrip(fenced in arb_fenced()) {
        let wire = fenced.to_bytes();
        let (back, used) = FencedSignal::from_bytes(&wire).unwrap();
        prop_assert_eq!(&back, &fenced);
        prop_assert_eq!(used, wire.len());
    }

    /// `SignalFrame::from_bytes` dispatches both generations correctly:
    /// a bare frame is `Stats` if it is `NC_STATS` and refused as
    /// `Unfenced` otherwise; a fenced one decodes as `Fenced`.
    #[test]
    fn frame_dispatch_never_confuses_generations(sig in arb_signal(), epoch in any::<u64>(), seq in any::<u64>()) {
        let bare_wire = sig.to_bytes();
        let expected = if sig == Signal::NcStats {
            Ok((SignalFrame::Stats, bare_wire.len()))
        } else {
            Err(SignalError::Unfenced(bare_wire[0]))
        };
        prop_assert_eq!(SignalFrame::from_bytes(&bare_wire), expected);
        let fenced = FencedSignal { epoch, seq, signal: sig.clone() };
        let fenced_wire = fenced.to_bytes();
        match SignalFrame::from_bytes(&fenced_wire).unwrap() {
            (SignalFrame::Fenced(back), used) => {
                prop_assert_eq!(back, fenced);
                prop_assert_eq!(used, fenced_wire.len());
            }
            (SignalFrame::Stats, _) => prop_assert!(false, "fenced decoded as bare"),
        }
    }

    /// Truncating either frame generation at any point is detected —
    /// an `Err`, never a panic, never a mis-parse.
    #[test]
    fn frame_truncation_always_detected(wire in arb_frame_bytes(), cut_frac in 0.0f64..1.0) {
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        if cut < wire.len() {
            prop_assert!(SignalFrame::from_bytes(&wire[..cut]).is_err());
        }
    }

    /// Arbitrary byte flips anywhere in a frame must never panic the
    /// decoder, and whatever (if anything) decodes must not claim more
    /// bytes than the buffer holds.
    #[test]
    fn frame_corruption_never_panics(
        wire in arb_frame_bytes(),
        flips in prop::collection::vec((any::<u16>(), 1u8..=255), 1..8),
    ) {
        let mut corrupt = wire;
        for (pos, xor) in flips {
            let at = pos as usize % corrupt.len();
            corrupt[at] ^= xor;
        }
        if let Ok((_, used)) = SignalFrame::from_bytes(&corrupt) {
            prop_assert!(used <= corrupt.len());
        }
    }

    /// Pure junk — random bytes that were never a frame — is rejected
    /// or bounded, never a panic.
    #[test]
    fn random_junk_never_panics(junk in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok((_, used)) = SignalFrame::from_bytes(&junk) {
            prop_assert!(used <= junk.len());
        }
    }
}
