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
