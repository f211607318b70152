//! Source-side generation encoder.

use rand::Rng;

use ncvnf_gf256::bulk;

use crate::config::GenerationConfig;
use crate::error::CodecError;
use crate::header::{write_prefix, CodedPacket, SessionId};
use crate::pool::PayloadPool;

/// Encodes one generation of source data into coded packets.
///
/// The encoder owns the `g` original blocks of a generation. Each call to
/// [`coded_packet`](Self::coded_packet) draws a fresh uniformly random
/// coefficient vector over GF(2^8) and emits the corresponding linear
/// combination. [`systematic_packet`](Self::systematic_packet) emits an
/// original block with a unit coefficient vector.
///
/// With a warm [`PayloadPool`], emission allocates nothing: each packet's
/// buffers come back to the pool once it has been sent.
///
/// ```
/// use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, PayloadPool, SessionId};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let config = GenerationConfig::new(64, 8).unwrap();
/// let encoder = GenerationEncoder::new(config, &[7u8; 512]).unwrap();
/// let (mut rng, mut pool) = (StdRng::seed_from_u64(1), PayloadPool::new());
/// for _ in 0..10 {
///     let pkt = encoder.coded_packet_pooled(SessionId::new(1), 0, &mut rng, &mut pool);
///     assert_eq!(pkt.coefficients().len(), 8);
///     assert!(pkt.coefficients().iter().any(|&c| c != 0));
///     pool.recycle(pkt);
/// }
/// assert_eq!(pool.idle(), 2, "one packet's two buffers, reused ten times");
/// ```
#[derive(Debug, Clone)]
pub struct GenerationEncoder {
    config: GenerationConfig,
    /// The original blocks, each exactly `block_size` long (last one padded
    /// with zeros when the source data was short).
    blocks: Vec<Vec<u8>>,
}

impl GenerationEncoder {
    /// Creates an encoder over exactly one generation of data.
    ///
    /// `data` may be shorter than
    /// [`generation_payload`](GenerationConfig::generation_payload); the
    /// tail is zero-padded (framing/truncation is the responsibility of
    /// [`ObjectEncoder`](crate::ObjectEncoder)).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::PayloadSize`] if `data` is empty or longer
    /// than one generation.
    pub fn new(config: GenerationConfig, data: &[u8]) -> Result<Self, CodecError> {
        if data.is_empty() || data.len() > config.generation_payload() {
            return Err(CodecError::PayloadSize {
                expected: config.generation_payload(),
                actual: data.len(),
            });
        }
        let bs = config.block_size();
        let mut blocks = Vec::with_capacity(config.blocks_per_generation());
        for i in 0..config.blocks_per_generation() {
            let mut block = vec![0u8; bs];
            let start = i * bs;
            if start < data.len() {
                let end = usize::min(start + bs, data.len());
                block[..end - start].copy_from_slice(&data[start..end]);
            }
            blocks.push(block);
        }
        Ok(GenerationEncoder { config, blocks })
    }

    /// The layout this encoder was built with.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// Emits one randomly coded packet for `(session, generation)`.
    ///
    /// The coefficient vector is redrawn if it comes out all-zero (an
    /// all-zero combination carries no information), so the packet is
    /// always a nontrivial combination.
    ///
    /// Allocates fresh buffers per call; the hot paths use
    /// [`coded_packet_pooled`](Self::coded_packet_pooled) instead.
    pub fn coded_packet<R: Rng + ?Sized>(
        &self,
        session: SessionId,
        generation: u64,
        rng: &mut R,
    ) -> CodedPacket {
        let mut pool = PayloadPool::new();
        self.coded_packet_pooled(session, generation, rng, &mut pool)
    }

    /// Like [`coded_packet`](Self::coded_packet), but the coefficient and
    /// payload buffers come from `pool` — zero heap allocations once the
    /// pool is warm.
    pub fn coded_packet_pooled<R: Rng + ?Sized>(
        &self,
        session: SessionId,
        generation: u64,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> CodedPacket {
        let g = self.config.blocks_per_generation();
        let mut coefficients = pool.checkout_zeroed(g);
        loop {
            rng.fill(&mut coefficients[..]);
            if coefficients.iter().any(|&c| c != 0) {
                break;
            }
        }
        let mut payload = pool.checkout_zeroed(self.config.block_size());
        self.combine_into(&coefficients, &mut payload);
        CodedPacket::new(session, generation, coefficients.freeze(), payload.freeze())
    }

    /// [`coded_packet_pooled`](Self::coded_packet_pooled) written straight
    /// into `out`: the same bytes for the same `rng` state, serialized, and
    /// with a reused `out` of settled capacity nothing is allocated.
    pub fn coded_wire_into<R: Rng + ?Sized>(
        &self,
        session: SessionId,
        generation: u64,
        rng: &mut R,
        out: &mut Vec<u8>,
    ) {
        write_prefix(out, session, generation);
        let start = out.len();
        let g = self.config.blocks_per_generation();
        out.resize(start + g + self.config.block_size(), 0);
        let (coefficients, payload) = out[start..].split_at_mut(g);
        loop {
            rng.fill(&mut coefficients[..]);
            if coefficients.iter().any(|&c| c != 0) {
                break;
            }
        }
        self.combine_into(coefficients, payload);
    }

    /// Emits original block `index` with a unit coefficient vector.
    ///
    /// # Panics
    ///
    /// Panics if `index >= blocks_per_generation`.
    pub fn systematic_packet(
        &self,
        session: SessionId,
        generation: u64,
        index: usize,
    ) -> CodedPacket {
        assert!(
            index < self.config.blocks_per_generation(),
            "systematic index out of range"
        );
        let mut pool = PayloadPool::new();
        let mut coefficients = pool.checkout_zeroed(self.config.blocks_per_generation());
        coefficients[index] = 1;
        let payload = pool.checkout_copy(&self.blocks[index]);
        CodedPacket::new(session, generation, coefficients.freeze(), payload.freeze())
    }

    /// Adds `Σ coefficients[i] * block[i]` to `out` (which must be
    /// `block_size` long; callers pass a zeroed buffer).
    fn combine_into(&self, coefficients: &[u8], out: &mut [u8]) {
        bulk::mul_add_rows(out, coefficients.iter().copied().zip(&self.blocks));
    }

    /// Borrow of the padded original blocks (used by tests and the object
    /// layer).
    pub fn blocks(&self) -> &[Vec<u8>] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GenerationConfig {
        GenerationConfig::new(16, 4).unwrap()
    }

    /// `Σ cᵢ·blockᵢ` one row at a time, independent of the fused kernel.
    fn manual_combination(enc: &GenerationEncoder, pkt: &CodedPacket) -> Vec<u8> {
        let mut expect = vec![0u8; enc.config().block_size()];
        for (&c, block) in pkt.coefficients().iter().zip(enc.blocks()) {
            bulk::mul_add_slice(&mut expect, block, c);
        }
        expect
    }

    #[test]
    fn pads_short_generations() {
        let enc = GenerationEncoder::new(cfg(), &[9u8; 20]).unwrap();
        assert_eq!(enc.blocks().len(), 4);
        assert_eq!(enc.blocks()[0], vec![9u8; 16]);
        assert_eq!(&enc.blocks()[1][..4], &[9u8; 4]);
        assert_eq!(&enc.blocks()[1][4..], &[0u8; 12]);
        assert_eq!(enc.blocks()[3], vec![0u8; 16]);
    }

    #[test]
    fn rejects_oversized_and_empty_data() {
        assert!(GenerationEncoder::new(cfg(), &[0u8; 65]).is_err());
        assert!(GenerationEncoder::new(cfg(), &[]).is_err());
    }

    #[test]
    fn systematic_packets_are_the_original_blocks() {
        let data: Vec<u8> = (0..64).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(1), 0, i);
            assert_eq!(pkt.payload(), &data[i * 16..(i + 1) * 16]);
            let mut unit = vec![0u8; 4];
            unit[i] = 1;
            assert_eq!(pkt.coefficients(), unit.as_slice());
        }
    }

    #[test]
    fn coded_packet_matches_manual_combination() {
        let data: Vec<u8> = (0..64).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let pkt = enc.coded_packet(SessionId::new(1), 3, &mut rng);
        assert_eq!(pkt.generation(), 3);
        assert_eq!(pkt.payload(), manual_combination(&enc, &pkt));
    }

    #[test]
    fn never_emits_zero_coefficients() {
        let enc = GenerationEncoder::new(cfg(), &[1u8; 64]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            assert!(pkt.coefficients().iter().any(|&c| c != 0));
        }
    }

    #[test]
    fn pooled_batch_matches_manual_combination_and_recycles() {
        let data: Vec<u8> = (0..64).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut pool = PayloadPool::new();
        let mut out: Vec<CodedPacket> = (0..8)
            .map(|_| enc.coded_packet_pooled(SessionId::new(2), 1, &mut rng, &mut pool))
            .collect();
        for pkt in &out {
            assert_eq!(pkt.payload(), manual_combination(&enc, pkt));
        }
        for pkt in out.drain(..) {
            assert_eq!(pool.recycle(pkt), 2);
        }
        assert_eq!(pool.idle(), 16);
    }

    #[test]
    fn wire_encode_is_the_serialized_pooled_encode() {
        let data: Vec<u8> = (0..64).map(|i| (i * 7 + 3) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let (mut a, mut b) = (StdRng::seed_from_u64(17), StdRng::seed_from_u64(17));
        let (mut pool, mut wire) = (PayloadPool::new(), Vec::new());
        for generation in 0..40 {
            wire.clear();
            enc.coded_wire_into(SessionId::new(6), generation, &mut b, &mut wire);
            let pkt = enc.coded_packet_pooled(SessionId::new(6), generation, &mut a, &mut pool);
            assert_eq!(wire, pkt.to_bytes().to_vec());
            pool.recycle(pkt);
        }
        // The same draws left both rngs in the same state.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn systematic_out_of_range_panics() {
        let enc = GenerationEncoder::new(cfg(), &[1u8; 64]).unwrap();
        let _ = enc.systematic_packet(SessionId::new(1), 0, 4);
    }
}
