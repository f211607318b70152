//! Pipelined in-network recoder.

use rand::Rng;

use ncvnf_gf256::bulk;

use crate::config::{CodingMode, GenerationConfig};
use crate::error::CodecError;
use crate::header::{CodedPacket, SessionId};
use crate::pool::PayloadPool;
use crate::rank::RankTracker;

/// Recodes coded packets of one generation inside the network.
///
/// Matches the paper's VNF behaviour (Sec. III-B-2): the function processes
/// packets in a *pipelined* fashion — it emits an output immediately after
/// every input. If the input is the first packet of its generation the
/// packet is simply forwarded; otherwise a fresh random linear combination
/// of everything buffered so far is emitted. Recoding never needs to decode,
/// which is the defining property of RLNC relays.
#[derive(Debug, Clone)]
pub struct Recoder {
    config: GenerationConfig,
    session: SessionId,
    generation: u64,
    /// Buffered (coefficient, payload) rows, exactly as received. Only
    /// linearly independent rows are retained to bound memory and maximize
    /// the innovation of outputs.
    coeff_rows: Vec<Vec<u8>>,
    payloads: Vec<Vec<u8>>,
    /// Decides innovation from the coefficient vectors alone: a relay needs
    /// the span of what it buffered, never a reduced form of it, so
    /// absorbing a packet costs no payload arithmetic.
    span: RankTracker,
    /// Reusable local mixing weights, one per buffered row.
    weights_scratch: Vec<u8>,
    packets_in: u64,
    packets_out: u64,
}

impl Recoder {
    /// Creates an empty recoder for `(session, generation)`.
    pub fn new(config: GenerationConfig, session: SessionId, generation: u64) -> Self {
        Recoder {
            config,
            session,
            generation,
            coeff_rows: Vec::with_capacity(config.blocks_per_generation()),
            payloads: Vec::with_capacity(config.blocks_per_generation()),
            span: RankTracker::new(config.blocks_per_generation()),
            weights_scratch: Vec::with_capacity(config.blocks_per_generation()),
            packets_in: 0,
            packets_out: 0,
        }
    }

    /// The session this recoder serves.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The generation this recoder serves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of linearly independent packets buffered.
    pub fn rank(&self) -> usize {
        self.coeff_rows.len()
    }

    /// Packets absorbed so far.
    pub fn packets_in(&self) -> u64 {
        self.packets_in
    }

    /// Packets emitted so far.
    pub fn packets_out(&self) -> u64 {
        self.packets_out
    }

    /// Buffers one incoming coded packet; returns whether it was innovative
    /// (increased the buffered rank).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the packet does not match the configured
    /// layout.
    pub fn absorb(&mut self, coefficients: &[u8], payload: &[u8]) -> Result<bool, CodecError> {
        let g = self.config.blocks_per_generation();
        if coefficients.len() != g {
            return Err(CodecError::CoefficientCount {
                expected: g,
                actual: coefficients.len(),
            });
        }
        if payload.len() != self.config.block_size() {
            return Err(CodecError::PayloadSize {
                expected: self.config.block_size(),
                actual: payload.len(),
            });
        }
        self.packets_in += 1;
        if !self.span.absorb(coefficients) {
            return Ok(false);
        }
        self.coeff_rows.push(coefficients.to_vec());
        self.payloads.push(payload.to_vec());
        Ok(true)
    }

    /// Pipelined step: absorb `packet` and immediately produce an output.
    ///
    /// The first packet of the generation is forwarded verbatim (there is
    /// nothing to combine it with); later packets trigger a fresh random
    /// recombination of the buffer.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from [`absorb`](Self::absorb).
    pub fn process<R: Rng + ?Sized>(
        &mut self,
        packet: &CodedPacket,
        rng: &mut R,
    ) -> Result<CodedPacket, CodecError> {
        let first = self.rank() == 0;
        self.absorb(packet.coefficients(), packet.payload())?;
        if first {
            self.packets_out += 1;
            return Ok(packet.clone());
        }
        self.recode_into(rng, &mut PayloadPool::new())
    }

    /// Emits a fresh random combination of the buffered packets. The
    /// output coefficient and payload buffers come from `pool`: with a
    /// warm pool (packets recycled back after forwarding) the steady state
    /// performs zero heap allocations per emitted packet.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::EmptyRecoder`] if nothing has been buffered.
    pub fn recode_into<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<CodedPacket, CodecError> {
        if self.coeff_rows.is_empty() {
            return Err(CodecError::EmptyRecoder);
        }
        // Draw local mixing weights; make sure at least one is nonzero.
        self.weights_scratch.resize(self.coeff_rows.len(), 0);
        loop {
            rng.fill(&mut self.weights_scratch[..]);
            if self.weights_scratch.iter().any(|&w| w != 0) {
                break;
            }
        }
        Ok(self.emit(pool))
    }

    /// Sparse recombination: mixes only `width` randomly chosen buffered
    /// rows (each with a random nonzero weight) instead of the whole
    /// buffer — O(`width` · block) per output. Because the chosen rows
    /// are linearly independent and every weight is nonzero, the output
    /// is never the zero combination.
    ///
    /// When the upstream traffic is itself sparse/systematic, the output
    /// coefficient vector stays sparse, preserving the mode's decoding
    /// advantage across recoding hops.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::EmptyRecoder`] if nothing has been buffered.
    fn recode_sparse_into<R: Rng + ?Sized>(
        &mut self,
        width: usize,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<CodedPacket, CodecError> {
        if self.coeff_rows.is_empty() {
            return Err(CodecError::EmptyRecoder);
        }
        let n = self.coeff_rows.len();
        let d = width.clamp(1, n);
        // Floyd's sampling: d distinct row indices, weights recorded in
        // the scratch so duplicates are detectable.
        self.weights_scratch.clear();
        self.weights_scratch.resize(n, 0);
        for j in (n - d)..n {
            let t = rng.gen_range(0..=j);
            let row = if self.weights_scratch[t] != 0 { j } else { t };
            self.weights_scratch[row] = rng.gen_range(1..=255u8);
        }
        Ok(self.emit(pool))
    }

    /// Emits `Σ weightᵢ · rowᵢ` over the buffer (coefficients and payload
    /// alike) with the weights in the scratch; rows with weight zero cost
    /// nothing.
    fn emit(&mut self, pool: &mut PayloadPool) -> CodedPacket {
        let mut coefficients = pool.checkout_zeroed(self.config.blocks_per_generation());
        let mut payload = pool.checkout_zeroed(self.config.block_size());
        let weights = self.weights_scratch.iter().copied();
        bulk::mul_add_rows(&mut coefficients, weights.clone().zip(&self.coeff_rows));
        bulk::mul_add_rows(&mut payload, weights.zip(&self.payloads));
        self.packets_out += 1;
        CodedPacket::new(
            self.session,
            self.generation,
            coefficients.freeze(),
            payload.freeze(),
        )
    }

    /// The mode-aware emitter: sparse traffic is recoded sparsely (the
    /// mode's density bounds the rows mixed per output), everything else
    /// takes the dense [`recode_into`](Self::recode_into) path.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::EmptyRecoder`] if nothing has been buffered.
    pub fn recode_mode_into<R: Rng + ?Sized>(
        &mut self,
        mode: CodingMode,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<CodedPacket, CodecError> {
        match mode {
            CodingMode::Sparse { nonzeros } => self.recode_sparse_into(nonzeros, rng, pool),
            CodingMode::Dense | CodingMode::Systematic => self.recode_into(rng, pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::GenerationDecoder;
    use crate::encoder::GenerationEncoder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GenerationConfig {
        GenerationConfig::new(24, 4).unwrap()
    }

    #[test]
    fn first_packet_is_forwarded_verbatim() {
        let enc = GenerationEncoder::new(cfg(), &[3u8; 96]).unwrap();
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        let mut rng = StdRng::seed_from_u64(5);
        let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        let out = rec.process(&pkt, &mut rng).unwrap();
        assert_eq!(out, pkt);
        assert_eq!(rec.packets_out(), 1);
    }

    #[test]
    fn recoded_packets_decode_end_to_end() {
        let data: Vec<u8> = (0..96).map(|i| (i * 5 + 1) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(17);
        let mut hops = 0;
        while !dec.is_complete() {
            let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            let out = rec.process(&pkt, &mut rng).unwrap();
            dec.receive(out.coefficients(), out.payload()).unwrap();
            hops += 1;
            assert!(hops < 64, "recode chain failed to converge");
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn two_stage_recoding_still_decodes() {
        let data: Vec<u8> = (0..96).map(|i| (i ^ 0x5A) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rec1 = Recoder::new(cfg(), SessionId::new(2), 7);
        let mut rec2 = Recoder::new(cfg(), SessionId::new(2), 7);
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(23);
        let mut steps = 0;
        while !dec.is_complete() {
            let pkt = enc.coded_packet(SessionId::new(2), 7, &mut rng);
            let mid = rec1.process(&pkt, &mut rng).unwrap();
            let out = rec2.process(&mid, &mut rng).unwrap();
            assert_eq!(out.session(), SessionId::new(2));
            assert_eq!(out.generation(), 7);
            dec.receive(out.coefficients(), out.payload()).unwrap();
            steps += 1;
            assert!(steps < 64, "two-stage recode failed to converge");
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn sparse_recoded_packets_decode_end_to_end() {
        let data: Vec<u8> = (0..96).map(|i| (i * 7 + 3) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(31);
        let mut pool = crate::pool::PayloadPool::new();
        // Fill the relay buffer from a systematic pass, then serve the
        // decoder exclusively from 2-wide sparse recombinations.
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(1), 0, i);
            rec.absorb(pkt.coefficients(), pkt.payload()).unwrap();
        }
        let mut hops = 0;
        while !dec.is_complete() {
            let out = rec.recode_sparse_into(2, &mut rng, &mut pool).unwrap();
            dec.receive(out.coefficients(), out.payload()).unwrap();
            hops += 1;
            assert!(hops < 64, "sparse recode failed to converge");
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn sparse_recode_of_systematic_rows_stays_sparse() {
        let enc = GenerationEncoder::new(cfg(), &[4u8; 96]).unwrap();
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        let mut rng = StdRng::seed_from_u64(13);
        let mut pool = crate::pool::PayloadPool::new();
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(1), 0, i);
            rec.absorb(pkt.coefficients(), pkt.payload()).unwrap();
        }
        for _ in 0..32 {
            let out = rec.recode_sparse_into(2, &mut rng, &mut pool).unwrap();
            let nonzeros = out.coefficients().iter().filter(|&&c| c != 0).count();
            assert!((1..=2).contains(&nonzeros), "got {nonzeros} nonzeros");
        }
    }

    #[test]
    fn rank_saturates_at_generation_size() {
        let enc = GenerationEncoder::new(cfg(), &[1u8; 96]).unwrap();
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            rec.absorb(pkt.coefficients(), pkt.payload()).unwrap();
        }
        assert_eq!(rec.rank(), 4);
        assert_eq!(rec.packets_in(), 20);
    }

    #[test]
    fn empty_recoder_errors() {
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut pool = PayloadPool::new();
        assert_eq!(
            rec.recode_into(&mut rng, &mut pool).unwrap_err(),
            CodecError::EmptyRecoder
        );
    }

    #[test]
    fn redundant_input_is_not_buffered() {
        let enc = GenerationEncoder::new(cfg(), &[9u8; 96]).unwrap();
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        let mut rng = StdRng::seed_from_u64(11);
        let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        assert!(rec.absorb(pkt.coefficients(), pkt.payload()).unwrap());
        assert!(!rec.absorb(pkt.coefficients(), pkt.payload()).unwrap());
        assert_eq!(rec.rank(), 1);
    }
}
