//! Property-based hardening tests for the feedback wire codec.
//!
//! The codec must be total: every byte string either decodes to a
//! `Feedback` that re-encodes to the same first 14 bytes, or returns a
//! typed error — never a panic, never a mis-parse.

use ncvnf_dataplane::{Feedback, FeedbackError, FeedbackKind, FEEDBACK_LEN, FEEDBACK_MAGIC};
use ncvnf_rlnc::SessionId;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = FeedbackKind> {
    prop_oneof![
        Just(FeedbackKind::GenerationAck),
        Just(FeedbackKind::RetransmitRequest),
        Just(FeedbackKind::Wake),
        Just(FeedbackKind::Congestion),
    ]
}

fn arb_feedback() -> impl Strategy<Value = Feedback> {
    (
        arb_kind(),
        any::<u16>(),
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
    )
        .prop_map(
            |(kind, session, generation, count, missing_bitmap)| Feedback {
                kind,
                session: SessionId::new(session),
                generation: generation as u64,
                count,
                missing_bitmap,
            },
        )
}

proptest! {
    /// Every representable feedback message survives the wire exactly.
    #[test]
    fn roundtrip(fb in arb_feedback()) {
        let wire = fb.to_bytes();
        prop_assert_eq!(wire.len(), FEEDBACK_LEN);
        prop_assert_eq!(Feedback::from_bytes(&wire), Ok(fb));
    }

    /// Arbitrary byte soup never panics: it decodes or errors.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Feedback::from_bytes(&data);
    }

    /// Every strict prefix of a valid frame is rejected as truncated
    /// (except length 0 with a non-magic report path, covered below).
    #[test]
    fn truncation_is_detected(fb in arb_feedback(), cut in 1usize..FEEDBACK_LEN) {
        let wire = fb.to_bytes();
        prop_assert_eq!(
            Feedback::from_bytes(&wire[..cut]),
            Err(FeedbackError::Truncated { actual: cut })
        );
    }

    /// A corrupted magic byte is rejected, whatever the rest says.
    #[test]
    fn bad_magic_is_rejected(fb in arb_feedback(), magic in any::<u8>()) {
        let mut wire = fb.to_bytes().to_vec();
        if magic != FEEDBACK_MAGIC {
            wire[0] = magic;
            prop_assert_eq!(
                Feedback::from_bytes(&wire),
                Err(FeedbackError::BadMagic(magic))
            );
        }
    }

    /// A kind byte outside 1, 2, 4 and 5 (the retired beacon kind 3
    /// included) is rejected as unknown, not mis-parsed into some other
    /// kind.
    #[test]
    fn unknown_kind_is_rejected(fb in arb_feedback(), kind in prop_oneof![Just(3u8), 6u8..=255u8]) {
        let mut wire = fb.to_bytes().to_vec();
        wire[1] = kind;
        prop_assert_eq!(
            Feedback::from_bytes(&wire),
            Err(FeedbackError::UnknownKind(kind))
        );
    }

    /// The zero kind byte (a plausible all-zero frame) is also unknown.
    #[test]
    fn zero_kind_is_rejected(fb in arb_feedback()) {
        let mut wire = fb.to_bytes().to_vec();
        wire[1] = 0;
        prop_assert_eq!(
            Feedback::from_bytes(&wire),
            Err(FeedbackError::UnknownKind(0))
        );
    }

    /// NC data packets (magic 0xAC) are never confused for feedback.
    #[test]
    fn data_packets_are_foreign(data in proptest::collection::vec(any::<u8>(), 13..40)) {
        let mut wire = data;
        wire[0] = 0xAC;
        prop_assert_eq!(Feedback::from_bytes(&wire), Err(FeedbackError::BadMagic(0xAC)));
    }
}
