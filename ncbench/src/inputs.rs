//! Inputs derived from the run's seed. The program under test sees only
//! what is generated here: payload bytes, coded packets, coefficient RNG
//! seeds, `RelayConfig.seed` and `FaultConfig` seeds all come from
//! [`derive`].

use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, PayloadPool, SessionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The session every data-path workload runs.
pub(crate) const SESSION: u16 = 7;

/// A sub-seed of `seed` for purpose `label` (splitmix64 finaliser), so
/// two uses of one run seed never share a random stream.
pub(crate) fn derive(seed: u64, label: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(label.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` seed-derived bytes.
pub(crate) fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    StdRng::seed_from_u64(seed).fill(&mut data[..]);
    data
}

/// Source payload of generation `generation`: a function of the seed
/// and the generation number alone, so a checker can rebuild it.
pub(crate) fn generation_data(seed: u64, generation: u64, config: GenerationConfig) -> Vec<u8> {
    bytes(derive(seed, generation), config.generation_payload())
}

/// Pre-serialised coded datagrams, back to back in one allocation:
/// `generations` advancing generations with `per_gen` coded packets
/// each, so a relay fed the ring in order creates, fills and evicts
/// generation state instead of hitting the same few generations forever.
pub(crate) struct Ring {
    arena: Vec<u8>,
    wire_len: usize,
    /// Layout of every packet in the ring.
    pub config: GenerationConfig,
}

impl Ring {
    pub(crate) fn build(
        seed: u64,
        config: GenerationConfig,
        generations: u64,
        per_gen: usize,
    ) -> Ring {
        let session = SessionId::new(SESSION);
        let mut rng = StdRng::seed_from_u64(derive(seed, u64::MAX));
        let mut pool = PayloadPool::new();
        // Sized up front: growing by doubling would leave the ring's
        // peak footprint at one and a half times its size.
        let mut arena = Vec::with_capacity(generations as usize * per_gen * config.packet_len());
        let mut wire_len = 0;
        for generation in 0..generations {
            let data = generation_data(seed, generation, config);
            let encoder = GenerationEncoder::new(config, &data).expect("layout matches");
            for _ in 0..per_gen {
                let pkt = encoder.coded_packet_pooled(session, generation, &mut rng, &mut pool);
                wire_len = pkt.wire_len();
                pkt.write_into(&mut arena);
                pool.recycle(pkt);
            }
        }
        Ring {
            arena,
            wire_len,
            config,
        }
    }

    /// Datagrams in the ring.
    pub(crate) fn len(&self) -> usize {
        self.arena.len() / self.wire_len
    }

    /// Datagram `i`, wrapping around.
    pub(crate) fn get(&self, i: usize) -> &[u8] {
        let at = (i % self.len()) * self.wire_len;
        &self.arena[at..at + self.wire_len]
    }
}
