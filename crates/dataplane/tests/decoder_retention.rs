//! Decoder-role VNF memory stays bounded across many generations.
//!
//! Regression test for unbounded `decoders: HashMap<u64, GenerationDecoder>`
//! growth: a long-lived decoder VNF used to keep one decoder state per
//! generation forever. The FIFO retention policy must keep the live set at
//! or below the configured buffer capacity no matter how many generations
//! flow through.

use ncvnf_dataplane::{CodingVnf, VnfDecision, VnfRole};
use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, SessionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn decoder_states_are_bounded_by_retention_capacity() {
    const RETENTION: usize = 1024;
    const GENERATIONS: u64 = 4096; // 4x the retention capacity
    let config = GenerationConfig::new(16, 2).expect("valid layout");
    let session = SessionId::new(1);
    let mut vnf = CodingVnf::new(config, RETENTION);
    vnf.set_role(session, VnfRole::Decoder);
    let data: Vec<u8> = (0..config.generation_payload()).map(|i| i as u8).collect();
    let enc = GenerationEncoder::new(config, &data).expect("valid generation");
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);

    let mut decoded = 0u64;
    for generation in 0..GENERATIONS {
        // Feed until the generation decodes so every generation opens (and
        // completes) a decoder state.
        for _ in 0..32 {
            let pkt = enc.coded_packet(session, generation, &mut rng);
            let out = vnf.process_packet_into(&pkt, 1, &mut rng, &mut Vec::new());
            if let VnfDecision::Decoded { payload, .. } = out {
                assert_eq!(payload, data);
                decoded += 1;
                break;
            }
        }
        assert!(
            vnf.decoder_count(session) <= RETENTION,
            "decoder states exceeded retention at generation {generation}: {}",
            vnf.decoder_count(session)
        );
    }
    assert_eq!(decoded, GENERATIONS, "every generation decoded");
    assert_eq!(vnf.decoder_count(session), RETENTION);
    assert_eq!(
        vnf.stats().evicted_decoders,
        GENERATIONS - RETENTION as u64,
        "exactly the overflow beyond capacity was evicted"
    );
    assert_eq!(vnf.stats().generations_decoded, GENERATIONS);
}

/// Late duplicates of a finished generation are absorbed (not re-decoded)
/// while its state is retained, and harmlessly reopen a state after
/// eviction without double-delivering the payload count for live states.
#[test]
fn retained_completed_decoders_absorb_late_duplicates() {
    let config = GenerationConfig::new(16, 2).expect("valid layout");
    let session = SessionId::new(2);
    let mut vnf = CodingVnf::new(config, 4);
    vnf.set_role(session, VnfRole::Decoder);
    let data: Vec<u8> = (0..config.generation_payload())
        .map(|i| !(i as u8))
        .collect();
    let enc = GenerationEncoder::new(config, &data).expect("valid generation");
    let mut rng = StdRng::seed_from_u64(0xDEC0DF);

    let mut done = false;
    for _ in 0..32 {
        let pkt = enc.coded_packet(session, 9, &mut rng);
        if matches!(
            vnf.process_packet_into(&pkt, 1, &mut rng, &mut Vec::new()),
            VnfDecision::Decoded { .. }
        ) {
            done = true;
            break;
        }
    }
    assert!(done, "generation 9 decoded");
    // Duplicates while the completed state is retained: swallowed.
    for _ in 0..8 {
        let pkt = enc.coded_packet(session, 9, &mut rng);
        assert_eq!(
            vnf.process_packet_into(&pkt, 1, &mut rng, &mut Vec::new()),
            VnfDecision::Nothing
        );
    }
    assert_eq!(vnf.stats().generations_decoded, 1);
    assert_eq!(vnf.decoder_count(session), 1);
}
