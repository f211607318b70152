//! Generation/block layout configuration.

use crate::error::CodecError;

/// Layout of one generation: how source bytes are divided into blocks.
///
/// The paper's production setting is 1460-byte blocks and 4 blocks per
/// generation, chosen so that block + NC header (12 bytes at g = 4) + UDP
/// header (8) + IP header (20) exactly fill a 1500-byte MTU, and so that
/// throughput peaks (Fig. 4) while decode latency stays low.
///
/// # Examples
///
/// ```
/// use ncvnf_rlnc::GenerationConfig;
/// let cfg = GenerationConfig::paper_default();
/// assert_eq!(cfg.block_size(), 1460);
/// assert_eq!(cfg.blocks_per_generation(), 4);
/// assert_eq!(cfg.generation_payload(), 5840);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenerationConfig {
    block_size: usize,
    blocks_per_generation: usize,
}

impl GenerationConfig {
    /// Maximum supported generation size. GF(2^8) coefficients are one byte
    /// each; beyond this the header overhead and decoding cost are
    /// impractical (the paper's Fig. 4 shows throughput plunging past 16).
    pub const MAX_GENERATION_SIZE: usize = 1024;

    /// Creates a layout with the given block size (bytes) and generation
    /// size (blocks).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] if either parameter is zero or
    /// the generation size exceeds [`Self::MAX_GENERATION_SIZE`].
    pub fn new(block_size: usize, blocks_per_generation: usize) -> Result<Self, CodecError> {
        if block_size == 0 {
            return Err(CodecError::InvalidConfig {
                reason: "block size must be positive".into(),
            });
        }
        if blocks_per_generation == 0 {
            return Err(CodecError::InvalidConfig {
                reason: "generation size must be positive".into(),
            });
        }
        if blocks_per_generation > Self::MAX_GENERATION_SIZE {
            return Err(CodecError::InvalidConfig {
                reason: format!(
                    "generation size {blocks_per_generation} exceeds maximum {}",
                    Self::MAX_GENERATION_SIZE
                ),
            });
        }
        Ok(GenerationConfig {
            block_size,
            blocks_per_generation,
        })
    }

    /// The paper's deployed configuration: 1460-byte blocks, 4 per
    /// generation.
    pub fn paper_default() -> Self {
        GenerationConfig {
            block_size: 1460,
            blocks_per_generation: 4,
        }
    }

    /// Bytes per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks per generation (the generation size `g`).
    pub fn blocks_per_generation(&self) -> usize {
        self.blocks_per_generation
    }

    /// Source bytes carried by one full generation.
    pub fn generation_payload(&self) -> usize {
        self.block_size * self.blocks_per_generation
    }

    /// Size of the NC header for this layout (fixed prefix plus one
    /// GF(2^8) coefficient per block).
    pub fn header_len(&self) -> usize {
        crate::header::CodedPacket::FIXED_LEN + self.blocks_per_generation
    }

    /// Total on-wire bytes for one coded packet (header + one block).
    pub fn packet_len(&self) -> usize {
        self.header_len() + self.block_size
    }

    /// Fraction of each packet that is useful payload, `block /
    /// (header + block)` — the coefficient-overhead component of goodput.
    pub fn payload_efficiency(&self) -> f64 {
        self.block_size as f64 / self.packet_len() as f64
    }
}

impl Default for GenerationConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How an encoder draws coefficient vectors for a generation's packets.
///
/// The mode trades per-packet coding cost against per-packet innovation:
/// dense combinations are maximally innovative (each repair packet is
/// useful with probability ≈ 1 − 1/255 per missing rank) but cost
/// `g` multiply-accumulates per packet; systematic and sparse packets
/// cost a fraction of that, at a small innovation penalty that only
/// matters under heavy loss.
///
/// # Examples
///
/// ```
/// use ncvnf_rlnc::CodingMode;
/// // A g=32 generation with the default sparse density: each repair
/// // packet combines 8 of the 32 blocks instead of all of them.
/// let mode = CodingMode::sparse_default(32);
/// assert_eq!(mode, CodingMode::Sparse { nonzeros: 8 });
/// assert_eq!(mode.repair_nonzeros(32), 8);
/// assert_eq!(CodingMode::Dense.repair_nonzeros(32), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodingMode {
    /// Every packet is a uniformly random combination of all `g` blocks.
    #[default]
    Dense,
    /// The first `g` packets are the source blocks verbatim (unit
    /// coefficient vectors); repair packets beyond that are dense.
    Systematic,
    /// Systematic first pass, then repair packets that combine only
    /// `nonzeros` randomly chosen blocks — O(d·block) instead of
    /// O(g·block) per repair packet.
    Sparse {
        /// Number of nonzero coefficients per repair packet (the density
        /// knob `d`); clamped to `1..=g` at draw time.
        nonzeros: usize,
    },
}

impl CodingMode {
    /// The default sparse density for generation size `g`: `g/4`, at
    /// least 2 — wide enough that a handful of repair packets covers any
    /// loss pattern, narrow enough that repair cost stays ~4x below
    /// dense.
    pub fn sparse_default(g: usize) -> Self {
        let cap = g.max(1);
        CodingMode::Sparse {
            nonzeros: if cap < 2 { cap } else { (g / 4).clamp(2, cap) },
        }
    }

    /// Short lowercase name used in benchmark output and docs
    /// (`dense` / `systematic` / `sparse`).
    pub fn name(&self) -> &'static str {
        match self {
            CodingMode::Dense => "dense",
            CodingMode::Systematic => "systematic",
            CodingMode::Sparse { .. } => "sparse",
        }
    }

    /// Whether the first `g` packets of a generation are emitted
    /// verbatim (unit coefficient vectors).
    pub fn is_systematic_first(&self) -> bool {
        !matches!(self, CodingMode::Dense)
    }

    /// Nonzero coefficients a repair packet carries at generation size
    /// `g`: `g` for dense/systematic repair, the clamped density for
    /// sparse.
    pub fn repair_nonzeros(&self, g: usize) -> usize {
        match self {
            CodingMode::Dense | CodingMode::Systematic => g,
            CodingMode::Sparse { nonzeros } => (*nonzeros).clamp(1, g.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_fits_mtu() {
        let cfg = GenerationConfig::paper_default();
        // NC header (12 bytes with 4 blocks) + UDP (8) + IP (20) + block
        // (1460) = 1500 = Ethernet MTU, as derived in Sec. III-B.
        assert_eq!(cfg.header_len(), 12);
        assert_eq!(cfg.packet_len() + 8 + 20, 1500);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(GenerationConfig::new(0, 4).is_err());
        assert!(GenerationConfig::new(1460, 0).is_err());
        assert!(GenerationConfig::new(1460, 4096).is_err());
        assert!(GenerationConfig::new(1, 1).is_ok());
    }

    #[test]
    fn efficiency_decreases_with_generation_size() {
        let small = GenerationConfig::new(1460, 4).unwrap();
        let large = GenerationConfig::new(1460, 128).unwrap();
        assert!(small.payload_efficiency() > large.payload_efficiency());
    }
}
