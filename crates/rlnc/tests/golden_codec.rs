//! Golden bytes for the dense codec: field arithmetic is exact, so for a
//! fixed seed the encoder's packets and the decoder's output may never
//! change, whatever kernel computes them. The hashes were recorded at the
//! commit before the fused row kernel (PR 15) replaced the per-row
//! `mul_add_slice` loops.

use ncvnf_rlnc::{GenerationConfig, GenerationDecoder, GenerationEncoder, SessionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a, 64 bit.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// (block size, g, hash of every emitted coefficient vector and payload,
/// hash of the decoded generation).
const GOLDEN: &[(usize, usize, u64, u64)] = &[
    (1460, 32, 0x050F_DDAE_8AE6_5F0B, 0x6585_3101_9A60_F92B),
    (1461, 4, 0x83C1_F47E_EC58_806D, 0x8BC8_D875_D678_4F27),
    (52, 7, 0xBFA6_12FB_59EE_30F6, 0x70B9_A399_F132_EE8E),
];

#[test]
fn encoder_packets_and_decoded_payload_are_byte_identical_to_the_recorded_run() {
    for &(block, g, want_packets, want_decoded) in GOLDEN {
        let config = GenerationConfig::new(block, g).unwrap();
        let mut rng = StdRng::seed_from_u64(0x0150_601D ^ (block * g) as u64);
        let mut data = vec![0u8; config.generation_payload()];
        rng.fill(&mut data[..]);
        let encoder = GenerationEncoder::new(config, &data).unwrap();
        let mut decoder = GenerationDecoder::new(config);
        let mut packets = FNV_OFFSET;
        for _ in 0..g + 8 {
            let pkt = encoder.coded_packet(SessionId::new(1), 0, &mut rng);
            packets = fnv1a(packets, pkt.coefficients());
            packets = fnv1a(packets, pkt.payload());
            decoder.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        let decoded = decoder.decoded_payload().unwrap();
        assert_eq!(decoded, data, "block={block} g={g}");
        let got = (packets, fnv1a(FNV_OFFSET, &decoded));
        assert_eq!(
            got,
            (want_packets, want_decoded),
            "block={block} g={g}: got ({:#018X}, {:#018X})",
            got.0,
            got.1
        );
    }
}
