//! Progressive Gaussian-elimination decoder for one generation.
//!
//! The coefficient half of the elimination is a [`RankTracker`]: each
//! packet is reduced against the rows held so far, in arrival order, and
//! the tracker records the factor it applied to each of them. The payload
//! half replays those factors in one fused row-kernel call per innovative
//! packet, so both halves stay in echelon form in lockstep. When the last
//! pivot arrives, back-substitution runs once — one fused call per row —
//! and each payload row becomes the source block at its row's pivot.

use ncvnf_gf256::bulk;

use crate::config::GenerationConfig;
use crate::error::CodecError;
use crate::rank::RankTracker;

/// Result of feeding one coded packet to a [`GenerationDecoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// The packet increased the decoder's rank.
    Innovative {
        /// Rank after absorbing the packet.
        rank: usize,
    },
    /// The packet was linearly dependent on already-received packets.
    Redundant,
    /// The packet arrived after the generation was already decoded.
    AlreadyComplete,
}

/// Decodes one generation from coded packets, incrementally.
///
/// Decoding finishes as soon as `g` linearly independent packets have been
/// absorbed — "the data can be successfully recovered as long as sufficient
/// number of packets are received" — regardless of order, duplication or
/// loss. A redundant packet costs only the coefficient pass: its payload
/// is never read.
#[derive(Debug, Clone)]
pub struct GenerationDecoder {
    config: GenerationConfig,
    /// The coefficient half: stored row `i` pairs with payload row `i`.
    span: RankTracker,
    /// The payload rows back to back, `block_size` bytes each, reserved
    /// once for the whole generation on the first innovative packet.
    payloads: Vec<u8>,
    /// Count of packets seen (innovative + redundant), for stats.
    packets_seen: u64,
}

impl GenerationDecoder {
    /// Creates an empty decoder for one generation.
    pub fn new(config: GenerationConfig) -> Self {
        GenerationDecoder {
            config,
            span: RankTracker::new(config.blocks_per_generation()),
            payloads: Vec::new(),
            packets_seen: 0,
        }
    }

    /// The layout this decoder expects.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// Current rank (number of linearly independent packets absorbed).
    pub fn rank(&self) -> usize {
        self.span.rank()
    }

    /// True when the generation can be fully decoded.
    pub fn is_complete(&self) -> bool {
        self.span.is_full()
    }

    /// Total packets fed to this decoder, including redundant ones.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Absorbs one coded packet.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CoefficientCount`] or
    /// [`CodecError::PayloadSize`] if the packet does not match the
    /// configured layout.
    pub fn receive(
        &mut self,
        coefficients: &[u8],
        payload: &[u8],
    ) -> Result<ReceiveOutcome, CodecError> {
        let g = self.config.blocks_per_generation();
        let block = self.config.block_size();
        if coefficients.len() != g {
            return Err(CodecError::CoefficientCount {
                expected: g,
                actual: coefficients.len(),
            });
        }
        if payload.len() != block {
            return Err(CodecError::PayloadSize {
                expected: block,
                actual: payload.len(),
            });
        }
        self.packets_seen += 1;
        if self.is_complete() {
            return Ok(ReceiveOutcome::AlreadyComplete);
        }
        let Some((factors, scale)) = self.span.absorb_recorded(coefficients) else {
            return Ok(ReceiveOutcome::Redundant);
        };
        // A no-op after the first innovative packet has reserved all `g`.
        self.payloads.reserve_exact(g * block - self.payloads.len());
        let start = self.payloads.len();
        self.payloads.extend_from_slice(payload);
        let (held, row) = self.payloads.split_at_mut(start);
        bulk::mul_add_rows(row, factors.iter().copied().zip(held.chunks_exact(block)));
        bulk::scale_slice(row, scale);
        if self.is_complete() {
            self.back_substitute();
        }
        Ok(ReceiveOutcome::Innovative { rank: self.rank() })
    }

    /// At full rank every column is some row's pivot, so stored row `i` is
    /// its own pivot plus mass at the pivots of the rows after it (it is
    /// zero at those before it). Reducing the rows last to first, each
    /// one's later rows already hold their source blocks: one fused call
    /// over them, with the factors read straight from row `i`, leaves row
    /// `i` holding the block at its own pivot. The coefficient rows are
    /// never rewritten.
    fn back_substitute(&mut self) {
        let block = self.config.block_size();
        let leads = self.span.leads();
        for i in (0..leads.len()).rev() {
            let coefficients = self.span.row(i);
            let (head, done) = self.payloads.split_at_mut((i + 1) * block);
            let factors = leads[i + 1..].iter().map(|&lead| coefficients[lead]);
            bulk::mul_add_rows(
                &mut head[i * block..],
                factors.zip(done.chunks_exact(block)),
            );
        }
    }

    /// Columns (block indices) that have no pivot yet. With a systematic
    /// sender these are exactly the original blocks still missing, which
    /// lets a receiver request precise retransmissions.
    pub fn missing_columns(&self) -> Vec<usize> {
        let leads = self.span.leads();
        (0..self.config.blocks_per_generation())
            .filter(|c| !leads.contains(c))
            .collect()
    }

    /// The decoded blocks in generation order.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::NotDecoded`] until the decoder reaches full
    /// rank.
    pub fn decoded_blocks(&self) -> Result<Vec<&[u8]>, CodecError> {
        if !self.is_complete() {
            return Err(CodecError::NotDecoded {
                rank: self.rank(),
                needed: self.config.blocks_per_generation(),
            });
        }
        // Back-substituted: the row with pivot column c holds block c.
        let mut blocks = vec![&[][..]; self.config.blocks_per_generation()];
        let rows = self.payloads.chunks_exact(self.config.block_size());
        for (&lead, row) in self.span.leads().iter().zip(rows) {
            blocks[lead] = row;
        }
        Ok(blocks)
    }

    /// The decoded generation payload as one contiguous buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::NotDecoded`] until the decoder reaches full
    /// rank.
    pub fn decoded_payload(&self) -> Result<Vec<u8>, CodecError> {
        Ok(self.decoded_blocks()?.concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::GenerationEncoder;
    use crate::header::SessionId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GenerationConfig {
        GenerationConfig::new(32, 4).unwrap()
    }

    #[test]
    fn decodes_from_systematic_packets_in_any_order() {
        let data: Vec<u8> = (0..128).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        for i in [2usize, 0, 3, 1] {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            let out = dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            assert!(matches!(out, ReceiveOutcome::Innovative { .. }));
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn decodes_from_random_packets() {
        let data: Vec<u8> = (0..128).map(|i| (i * 37 + 11) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(99);
        let mut packets = 0;
        while !dec.is_complete() {
            let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            packets += 1;
            assert!(packets < 32, "decoder failed to converge");
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn duplicate_packets_are_redundant() {
        let enc = GenerationEncoder::new(cfg(), &[5u8; 128]).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(3);
        let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
        assert!(matches!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Innovative { rank: 1 }
        ));
        assert_eq!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Redundant
        );
        assert_eq!(dec.rank(), 1);
        assert_eq!(dec.packets_seen(), 2);
    }

    #[test]
    fn duplicate_systematic_packets_do_not_consume_rank() {
        let data: Vec<u8> = (0..128).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let pkt = enc.systematic_packet(SessionId::new(0), 0, 2);
        assert!(matches!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Innovative { rank: 1 }
        ));
        // The same source block arriving verbatim again (systematic
        // retransmission) must be flagged redundant without consuming
        // rank — and so must a scalar multiple of it.
        assert_eq!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Redundant
        );
        let mut coeffs = pkt.coefficients().to_vec();
        let mut payload = pkt.payload().to_vec();
        bulk::scale_slice(&mut coeffs, 9);
        bulk::scale_slice(&mut payload, 9);
        assert_eq!(
            dec.receive(&coeffs, &payload).unwrap(),
            ReceiveOutcome::Redundant
        );
        assert_eq!(dec.rank(), 1);
        // The decoder still converges on the remaining blocks.
        for i in [0usize, 1, 3] {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn systematic_after_dense_falls_through_to_general_elimination() {
        // A unit vector whose column already has a (non-unit) pivot row
        // must take the general path and still decode correctly.
        let data: Vec<u8> = (0..128).map(|i| (i * 13 + 5) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..2 {
            let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn scaled_copy_is_redundant() {
        let enc = GenerationEncoder::new(cfg(), &[5u8; 128]).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(4);
        let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
        dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        // Multiply the whole packet by 7: still in the span.
        let mut coeffs = pkt.coefficients().to_vec();
        let mut payload = pkt.payload().to_vec();
        bulk::scale_slice(&mut coeffs, 7);
        bulk::scale_slice(&mut payload, 7);
        assert_eq!(
            dec.receive(&coeffs, &payload).unwrap(),
            ReceiveOutcome::Redundant
        );
    }

    #[test]
    fn extra_packets_after_completion_are_flagged() {
        let data = vec![1u8; 128];
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(1);
        let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
        assert_eq!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::AlreadyComplete
        );
    }

    #[test]
    fn rejects_wrong_shapes() {
        let mut dec = GenerationDecoder::new(cfg());
        assert!(matches!(
            dec.receive(&[1, 2, 3], &[0u8; 32]),
            Err(CodecError::CoefficientCount { .. })
        ));
        assert!(matches!(
            dec.receive(&[1, 2, 3, 4], &[0u8; 31]),
            Err(CodecError::PayloadSize { .. })
        ));
    }

    #[test]
    fn not_decoded_error_reports_rank() {
        let dec = GenerationDecoder::new(cfg());
        match dec.decoded_payload() {
            Err(CodecError::NotDecoded { rank: 0, needed: 4 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
