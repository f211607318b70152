//! Pipelined in-network recoder.

use rand::Rng;

use ncvnf_gf256::bulk;

use crate::config::{CodingMode, GenerationConfig};
use crate::error::CodecError;
use crate::header::{write_prefix, CodedPacket, SessionId, WireKind};
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
///
/// Its storage grows with the rows it buffers and is kept by
/// [`reset`](Self::reset), so a relay that re-targets recoders at new
/// generations allocates nothing per generation once each recoder has
/// held a full one.
#[derive(Debug, Clone)]
pub struct Recoder {
    config: GenerationConfig,
    session: SessionId,
    generation: u64,
    /// Buffered rows back to back, each one packet's wire body exactly as
    /// received: `g` coefficients, then the payload. Only linearly
    /// independent rows are retained to bound memory and maximize the
    /// innovation of outputs. One combination of whole rows is an output
    /// packet's wire body.
    rows: Vec<u8>,
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
        let g = config.blocks_per_generation();
        Recoder {
            config,
            session,
            generation,
            rows: Vec::new(),
            span: RankTracker::new(g),
            weights_scratch: Vec::with_capacity(g),
            packets_in: 0,
            packets_out: 0,
        }
    }

    /// Empties the recoder and points it at `(session, generation)`,
    /// keeping its storage.
    pub fn reset(&mut self, session: SessionId, generation: u64) {
        self.session = session;
        self.generation = generation;
        self.rows.clear();
        self.span.reset();
        self.packets_in = 0;
        self.packets_out = 0;
    }

    /// Bytes of one buffered row: a packet's wire body.
    fn row_len(&self) -> usize {
        self.config.blocks_per_generation() + self.config.block_size()
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
        self.span.rank()
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
        self.rows.extend_from_slice(coefficients);
        self.rows.extend_from_slice(payload);
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
        self.draw_weights(rng)?;
        Ok(self.emit(pool))
    }

    /// [`recode_into`](Self::recode_into) written straight into `out`: the
    /// 8-byte header, then one fused row-kernel pass over the buffered
    /// wire bodies. The bytes are those of the packet `recode_into` would
    /// return for the same `rng` state, serialized; with a reused `out` of
    /// settled capacity nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::EmptyRecoder`] (and writes nothing) if
    /// nothing has been buffered.
    pub fn recode_wire_into<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        self.draw_weights(rng)?;
        let g = self.config.blocks_per_generation();
        write_prefix(out, WireKind::Generation, self.session, self.generation, g);
        let start = out.len();
        out.resize(start + self.row_len(), 0);
        let rows = self.rows.chunks_exact(self.row_len());
        bulk::mul_add_rows(
            &mut out[start..],
            self.weights_scratch.iter().copied().zip(rows),
        );
        self.packets_out += 1;
        Ok(())
    }

    /// Draws dense local mixing weights into the scratch, one per buffered
    /// row, at least one of them nonzero.
    fn draw_weights<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<(), CodecError> {
        if self.rank() == 0 {
            return Err(CodecError::EmptyRecoder);
        }
        self.weights_scratch.resize(self.rank(), 0);
        loop {
            rng.fill(&mut self.weights_scratch[..]);
            if self.weights_scratch.iter().any(|&w| w != 0) {
                return Ok(());
            }
        }
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
        let n = self.rank();
        if n == 0 {
            return Err(CodecError::EmptyRecoder);
        }
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
        let g = self.config.blocks_per_generation();
        let mut coefficients = pool.checkout_zeroed(g);
        let mut payload = pool.checkout_zeroed(self.config.block_size());
        let weights = self.weights_scratch.iter().copied();
        let rows = self.rows.chunks_exact(self.row_len());
        bulk::mul_add_rows(
            &mut coefficients,
            weights.clone().zip(rows.clone().map(|r| &r[..g])),
        );
        bulk::mul_add_rows(&mut payload, weights.zip(rows.map(|r| &r[g..])));
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
    fn wire_recode_is_the_serialized_pooled_recode() {
        let data: Vec<u8> = (0..96).map(|i| (i * 3 + 7) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut pooled = Recoder::new(cfg(), SessionId::new(3), 9);
        let mut wired = Recoder::new(cfg(), SessionId::new(3), 9);
        let mut wire = Vec::new();
        assert_eq!(
            wired.recode_wire_into(&mut rng, &mut wire),
            Err(CodecError::EmptyRecoder)
        );
        assert!(wire.is_empty(), "an empty recoder writes nothing");
        let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let mut pool = PayloadPool::new();
        for _ in 0..6 {
            let pkt = enc.coded_packet(SessionId::new(3), 9, &mut rng);
            pooled.absorb(pkt.coefficients(), pkt.payload()).unwrap();
            wired.absorb(pkt.coefficients(), pkt.payload()).unwrap();
            wire.clear();
            wired.recode_wire_into(&mut b, &mut wire).unwrap();
            let expected = pooled.recode_into(&mut a, &mut pool).unwrap();
            assert_eq!(wire, expected.to_bytes().to_vec());
        }
        assert_eq!(wired.packets_out(), pooled.packets_out());
    }

    #[test]
    fn reset_keeps_storage_and_retargets() {
        let enc = GenerationEncoder::new(cfg(), &[6u8; 96]).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let mut rec = Recoder::new(cfg(), SessionId::new(1), 0);
        while rec.rank() < 4 {
            let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            rec.absorb(pkt.coefficients(), pkt.payload()).unwrap();
        }
        let storage = rec.rows.as_ptr();
        rec.reset(SessionId::new(2), 5);
        assert_eq!((rec.session(), rec.generation()), (SessionId::new(2), 5));
        assert_eq!((rec.rank(), rec.packets_in(), rec.packets_out()), (0, 0, 0));
        let pkt = enc.coded_packet(SessionId::new(2), 5, &mut rng);
        assert_eq!(rec.process(&pkt, &mut rng).unwrap(), pkt, "first again");
        assert_eq!(rec.rows.as_ptr(), storage, "the row buffer was kept");
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
