//! Property-based tests for the RLNC codec.

use ncvnf_gf256::{bulk, Field, Gf256};
use ncvnf_rlnc::{
    CodedPacket, GenerationConfig, GenerationDecoder, GenerationEncoder, ObjectDecoder,
    ObjectEncoder, PayloadPool, RankTracker, ReceiveOutcome, Recoder, SessionId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generation decodes from enough random coded packets, for random
    /// layouts, payloads and RNG seeds.
    #[test]
    fn generation_roundtrip(
        block_size in 1usize..64,
        g in 1usize..9,
        seed in any::<u64>(),
        byte in any::<u8>(),
        fill in 1usize..256,
    ) {
        let cfg = GenerationConfig::new(block_size, g).unwrap();
        let len = usize::min(fill, cfg.generation_payload());
        let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sent = 0;
        while !dec.is_complete() {
            let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            sent += 1;
            prop_assert!(sent < 40 * g, "failed to converge");
        }
        let decoded = dec.decoded_payload().unwrap();
        prop_assert_eq!(&decoded[..len], &data[..]);
        prop_assert!(decoded[len..].iter().all(|&b| b == 0));
    }

    /// Recoding in the middle never breaks decodability and never grows
    /// the coefficient space.
    #[test]
    fn recode_chain_roundtrip(
        g in 1usize..6,
        chain_len in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = GenerationConfig::new(8, g).unwrap();
        let data: Vec<u8> = (0..cfg.generation_payload()).map(|i| (i * 7) as u8).collect();
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut chain: Vec<Recoder> =
            (0..chain_len).map(|_| Recoder::new(cfg, SessionId::new(3), 5)).collect();
        let mut dec = GenerationDecoder::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sent = 0;
        while !dec.is_complete() {
            let mut pkt = enc.coded_packet(SessionId::new(3), 5, &mut rng);
            for r in chain.iter_mut() {
                pkt = r.process(&pkt, &mut rng).unwrap();
            }
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            sent += 1;
            prop_assert!(sent < 60 * g, "failed to converge through chain");
        }
        prop_assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    /// A recoder buffers packets as received and judges innovation from
    /// the coefficient vectors alone: whatever mix of dense, systematic,
    /// duplicate and scaled-duplicate packets it is fed, its rank is a
    /// `RankTracker`'s, and what it emits still decodes
    /// to the source through a second recoding hop.
    #[test]
    fn recoder_rank_and_output_survive_any_input_mix(
        g in 1usize..9,
        block in 1usize..70,
        seed in any::<u64>(),
        kinds in prop::collection::vec(0u8..4, 1..40),
        scale in 2u8..255,
    ) {
        let cfg = GenerationConfig::new(block, g).unwrap();
        let session = SessionId::new(9);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = vec![0u8; cfg.generation_payload()];
        rng.fill(&mut data[..]);
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut first = Recoder::new(cfg, session, 0);
        let mut tracker = RankTracker::new(g);
        let mut last = enc.coded_packet(session, 0, &mut rng);
        // The scripted mix, then dense packets until the relay can span
        // the generation.
        let mut script = kinds.into_iter();
        while first.rank() < g {
            let pkt = match script.next() {
                Some(1) => enc.systematic_packet(session, 0, rng.gen_range(0..g)),
                Some(2) => last.clone(),
                Some(3) => {
                    let mut coeffs = last.coefficients().to_vec();
                    let mut payload = last.payload().to_vec();
                    bulk::scale_slice(&mut coeffs, scale);
                    bulk::scale_slice(&mut payload, scale);
                    CodedPacket::new(session, 0, coeffs.into(), bytes::Bytes::from(payload))
                }
                _ => enc.coded_packet(session, 0, &mut rng),
            };
            let innovative = first.absorb(pkt.coefficients(), pkt.payload()).unwrap();
            prop_assert_eq!(innovative, tracker.absorb(pkt.coefficients()));
            prop_assert_eq!(first.rank(), tracker.rank());
            last = pkt;
        }
        let mut pool = PayloadPool::new();
        let mut second = Recoder::new(cfg, session, 0);
        let mut dec = GenerationDecoder::new(cfg);
        let mut hops = 0;
        while !dec.is_complete() {
            let mid = first.recode_into(&mut rng, &mut pool).unwrap();
            second.absorb(mid.coefficients(), mid.payload()).unwrap();
            let out = second.recode_into(&mut rng, &mut pool).unwrap();
            dec.receive(out.coefficients(), out.payload()).unwrap();
            hops += 1;
            prop_assert!(hops < 400 * g, "failed to converge");
        }
        prop_assert_eq!(&dec.decoded_payload().unwrap()[..], &data[..]);
    }

    /// The decoder agrees with a textbook elimination packet by packet:
    /// whatever mix of dense, systematic, duplicate, scaled-duplicate and
    /// all-zero-coefficient packets it is fed, its outcome and missing
    /// columns after every packet are [`Reference`]'s, and at full rank it
    /// yields the source bytes.
    #[test]
    fn decoder_matches_reference_elimination(
        g in prop_oneof![Just(1usize), Just(2), Just(4), Just(7), Just(32)],
        block in 1usize..40,
        seed in any::<u64>(),
        kinds in prop::collection::vec(0u8..5, 0..80),
        scale in 2u8..=255,
    ) {
        let cfg = GenerationConfig::new(block, g).unwrap();
        let session = SessionId::new(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = vec![0u8; cfg.generation_payload()];
        rng.fill(&mut data[..]);
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg);
        let mut reference = Reference::new(g);
        let mut last = enc.coded_packet(session, 0, &mut rng);
        // The scripted mix, then dense packets to full rank, then a few
        // more past it.
        let mut script = kinds.into_iter();
        let mut extra = 3;
        while extra > 0 {
            let (coeffs, payload) = match script.next() {
                Some(1) => {
                    let pkt = enc.systematic_packet(session, 0, rng.gen_range(0..g));
                    (pkt.coefficients().to_vec(), pkt.payload().to_vec())
                }
                Some(2) => (last.coefficients().to_vec(), last.payload().to_vec()),
                Some(3) => {
                    let mut coeffs = last.coefficients().to_vec();
                    let mut payload = last.payload().to_vec();
                    bulk::scale_slice(&mut coeffs, scale);
                    bulk::scale_slice(&mut payload, scale);
                    (coeffs, payload)
                }
                Some(4) => (vec![0u8; g], last.payload().to_vec()),
                _ => {
                    last = enc.coded_packet(session, 0, &mut rng);
                    (last.coefficients().to_vec(), last.payload().to_vec())
                }
            };
            let outcome = dec.receive(&coeffs, &payload).unwrap();
            prop_assert_eq!(outcome, reference.receive(&coeffs, &payload));
            prop_assert_eq!(dec.missing_columns(), reference.missing_columns());
            if dec.is_complete() {
                prop_assert_eq!(&dec.decoded_payload().unwrap()[..], &data[..]);
                extra -= 1;
            }
        }
    }

    /// Decoder rank equals g exactly when decoding succeeds; feeding only
    /// k < g distinct systematic packets never completes.
    #[test]
    fn rank_semantics(g in 2usize..8, k_raw in 1usize..8) {
        let cfg = GenerationConfig::new(4, g).unwrap();
        let k = k_raw % g; // strictly fewer than g
        let data = vec![0xABu8; cfg.generation_payload()];
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg);
        for i in 0..k {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            let out = dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            let innovative = matches!(out, ReceiveOutcome::Innovative { .. });
            prop_assert!(innovative);
        }
        prop_assert_eq!(dec.rank(), k);
        prop_assert!(!dec.is_complete());
        prop_assert!(dec.decoded_payload().is_err());
    }

    /// Wire round-trip of arbitrary coded packets.
    #[test]
    fn packet_wire_roundtrip(
        session in any::<u16>(),
        generation in 0u64..u32::MAX as u64,
        coeffs in prop::collection::vec(any::<u8>(), 1..16),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let g = coeffs.len();
        let pkt = CodedPacket::new(SessionId::new(session), generation, coeffs.into(), bytes::Bytes::from(payload));
        let wire = pkt.to_bytes();
        let back = CodedPacket::from_bytes(&wire, g).unwrap();
        prop_assert_eq!(back, pkt);
    }

    /// Object-level framing recovers exact bytes for arbitrary objects.
    #[test]
    fn object_roundtrip(
        object in prop::collection::vec(any::<u8>(), 1..2000),
        seed in any::<u64>(),
    ) {
        let cfg = GenerationConfig::new(32, 4).unwrap();
        let enc = ObjectEncoder::new(cfg, SessionId::new(2), &object).unwrap();
        let mut dec = ObjectDecoder::new(cfg, enc.generations());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rounds = 0;
        while !dec.is_complete() {
            for g in 0..enc.generations() {
                let pkt = enc.coded_packet(g, &mut rng);
                dec.receive(&pkt).unwrap();
            }
            rounds += 1;
            prop_assert!(rounds < 50, "object decode failed to converge");
        }
        prop_assert_eq!(dec.into_object().unwrap(), object);
    }
}

/// A textbook decoder: augmented rows `[coefficients | payload]` kept in
/// reduced row echelon form, one scalar [`Gf256`] operation at a time.
struct Reference {
    g: usize,
    rows: Vec<Vec<Gf256>>,
    pivots: Vec<usize>,
}

impl Reference {
    fn new(g: usize) -> Self {
        Reference {
            g,
            rows: Vec::new(),
            pivots: Vec::new(),
        }
    }

    fn receive(&mut self, coefficients: &[u8], payload: &[u8]) -> ReceiveOutcome {
        if self.rows.len() == self.g {
            return ReceiveOutcome::AlreadyComplete;
        }
        let mut row: Vec<Gf256> = coefficients
            .iter()
            .chain(payload)
            .map(|&b| Gf256::new(b))
            .collect();
        for (held, &pivot) in self.rows.iter().zip(&self.pivots) {
            let factor = row[pivot];
            for (x, &h) in row.iter_mut().zip(held) {
                *x -= factor * h;
            }
        }
        let Some(pivot) = row[..self.g].iter().position(|&x| x != Gf256::ZERO) else {
            return ReceiveOutcome::Redundant;
        };
        let inv = row[pivot].inv();
        for x in &mut row {
            *x *= inv;
        }
        for held in &mut self.rows {
            let factor = held[pivot];
            for (h, &x) in held.iter_mut().zip(&row) {
                *h -= factor * x;
            }
        }
        self.rows.push(row);
        self.pivots.push(pivot);
        ReceiveOutcome::Innovative {
            rank: self.rows.len(),
        }
    }

    fn missing_columns(&self) -> Vec<usize> {
        (0..self.g).filter(|c| !self.pivots.contains(c)).collect()
    }
}
