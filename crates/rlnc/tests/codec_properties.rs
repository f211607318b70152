//! Property-based tests for the RLNC codec.

use ncvnf_gf256::bulk;
use ncvnf_rlnc::{
    CodedPacket, CodingMode, GenerationConfig, GenerationDecoder, GenerationEncoder, ObjectDecoder,
    ObjectEncoder, PayloadPool, RankTracker, ReceiveOutcome, Recoder, SessionId, WindowConfig,
    WindowDecoder, WindowEncoder, WindowOutcome,
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
    /// `RankTracker`'s, and what it emits (dense or sparse) still decodes
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
        for mode in [CodingMode::Dense, CodingMode::Sparse { nonzeros: 2 }] {
            let mut second = Recoder::new(cfg, session, 0);
            let mut dec = GenerationDecoder::new(cfg);
            let mut hops = 0;
            while !dec.is_complete() {
                let mid = first.recode_mode_into(mode, &mut rng, &mut pool).unwrap();
                second.absorb(mid.coefficients(), mid.payload()).unwrap();
                let out = second.recode_mode_into(mode, &mut rng, &mut pool).unwrap();
                dec.receive(out.coefficients(), out.payload()).unwrap();
                hops += 1;
                prop_assert!(hops < 400 * g, "mode {:?} failed to converge", mode);
            }
            prop_assert_eq!(&dec.decoded_payload().unwrap()[..], &data[..]);
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

    /// Sparse repair streams decode to exactly the same payload as dense
    /// ones, at any density, under the same seeded loss pattern.
    #[test]
    fn sparse_and_dense_decode_equivalence(
        g in 2usize..10,
        density_raw in 1usize..10,
        seed in any::<u64>(),
        drop_mask in any::<u32>(),
    ) {
        let cfg = GenerationConfig::new(16, g).unwrap();
        let data: Vec<u8> =
            (0..cfg.generation_payload()).map(|i| (i * 13 + 5) as u8).collect();
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let nonzeros = 1 + density_raw % g;
        let mut pool = PayloadPool::new();
        for mode in [CodingMode::Dense, CodingMode::Sparse { nonzeros }] {
            let mut dec = GenerationDecoder::new(cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut seq = 0u64;
            while !dec.is_complete() {
                let pkt = enc.mode_packet_pooled(
                    mode, SessionId::new(7), 0, seq, &mut rng, &mut pool,
                );
                let dropped = seq < 32 && (drop_mask >> seq) & 1 == 1;
                if !dropped {
                    dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
                }
                pool.recycle(pkt);
                seq += 1;
                prop_assert!(seq < 400 * g as u64, "mode {:?} failed to converge", mode);
            }
            prop_assert_eq!(&dec.decoded_payload().unwrap()[..], &data[..]);
        }
    }

    /// A sliding-window stream and a generational transfer deliver the
    /// same bytes under the same seeded loss pattern.
    #[test]
    fn window_and_generational_delivery_equivalence(
        seed in any::<u64>(),
        drop_mask in any::<u64>(),
    ) {
        let symbol = 32usize;
        let n_symbols = 12usize;
        let data: Vec<u8> =
            (0..symbol * n_symbols).map(|i| (i * 31 + 7) as u8).collect();
        let lost = |i: u64| i < 64 && (drop_mask >> i) & 1 == 1;

        // Generational path: same data, same loss indices.
        let cfg = GenerationConfig::new(symbol, 4).unwrap();
        let enc = ObjectEncoder::new(cfg, SessionId::new(5), &data).unwrap();
        let mut dec = ObjectDecoder::new(cfg, enc.generations());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = 0u64;
        let mut rounds = 0;
        while !dec.is_complete() {
            for gen in 0..enc.generations() {
                let pkt = enc.coded_packet(gen, &mut rng);
                if !lost(idx) {
                    dec.receive(&pkt).unwrap();
                }
                idx += 1;
            }
            rounds += 1;
            prop_assert!(rounds < 100, "generational path failed to converge");
        }
        let generational_bytes = dec.into_object().unwrap();

        // Window path: systematic stream with coded repair, acks
        // sliding the encoder as the delivery cursor advances.
        let window = WindowConfig::new(symbol, 6).unwrap();
        let mut wenc = WindowEncoder::new(window, SessionId::new(5));
        let mut wdec = WindowDecoder::new(window);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = PayloadPool::new();
        let mut delivered: Vec<u8> = Vec::new();
        let mut chunks = data.chunks(symbol);
        let mut sent_all = false;
        let mut idx = 0u64;
        let mut attempts = 0;
        while delivered.len() < data.len() {
            while !sent_all && wenc.live() < window.capacity() {
                let Some(chunk) = chunks.next() else {
                    sent_all = true;
                    break;
                };
                let s = wenc.push(chunk).unwrap();
                let pkt = wenc.systematic_packet_pooled(s, &mut pool).unwrap();
                if !lost(idx) {
                    if let WindowOutcome::Delivered { payloads, .. } =
                        wdec.receive(pkt.index(), pkt.coefficients(), pkt.payload()).unwrap()
                    {
                        for p in payloads {
                            delivered.extend_from_slice(&p);
                        }
                    }
                }
                pool.recycle(pkt);
                idx += 1;
            }
            if delivered.len() < data.len() {
                let pkt = wenc.coded_packet_pooled(&mut rng, &mut pool).unwrap();
                if !lost(idx) {
                    if let WindowOutcome::Delivered { payloads, .. } =
                        wdec.receive(pkt.index(), pkt.coefficients(), pkt.payload()).unwrap()
                    {
                        for p in payloads {
                            delivered.extend_from_slice(&p);
                        }
                    }
                }
                pool.recycle(pkt);
                idx += 1;
            }
            wenc.handle_ack(wdec.cumulative_ack());
            attempts += 1;
            prop_assert!(attempts < 2000, "window path failed to converge");
        }
        prop_assert_eq!(&delivered, &generational_bytes);
        prop_assert_eq!(delivered, data);
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
