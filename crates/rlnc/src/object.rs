//! Whole-object (file) coding across many generations.
//!
//! The evaluation's workload is "a file transmission application built upon
//! the system": receivers retrieve a multi-megabyte file from the source
//! through coding VNFs. This module frames an arbitrary byte object into
//! generations and reassembles it on the receiver.
//!
//! Framing: an 8-byte big-endian length prefix is prepended to the object,
//! the result is split into generations of `g * block_size` bytes (the last
//! one zero-padded). The prefix lets the decoder strip the padding.

use rand::Rng;

use crate::config::GenerationConfig;
use crate::decoder::{GenerationDecoder, ReceiveOutcome};
use crate::encoder::GenerationEncoder;
use crate::error::CodecError;
use crate::header::{CodedPacket, PacketView, SessionId};

/// Length-prefix framing size.
const LEN_PREFIX: usize = 8;

/// Encodes a byte object into coded packets spanning many generations.
#[derive(Debug, Clone)]
pub struct ObjectEncoder {
    config: GenerationConfig,
    session: SessionId,
    encoders: Vec<GenerationEncoder>,
}

impl ObjectEncoder {
    /// Frames `object` and prepares one [`GenerationEncoder`] per
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::PayloadSize`] if `object` is empty.
    pub fn new(
        config: GenerationConfig,
        session: SessionId,
        object: &[u8],
    ) -> Result<Self, CodecError> {
        if object.is_empty() {
            return Err(CodecError::PayloadSize {
                expected: 1,
                actual: 0,
            });
        }
        // Generation g holds bytes [g * per_gen, (g + 1) * per_gen) of
        // prefix ++ object, gathered into one reused buffer: the framed
        // object is never copied whole.
        let prefix = (object.len() as u64).to_be_bytes();
        let per_gen = config.generation_payload();
        let framed_len = LEN_PREFIX + object.len();
        let mut chunk = Vec::with_capacity(per_gen);
        let encoders = (0..framed_len.div_ceil(per_gen))
            .map(|g| {
                let (start, end) = (g * per_gen, framed_len.min((g + 1) * per_gen));
                let in_object = |at: usize| at.saturating_sub(LEN_PREFIX);
                chunk.clear();
                chunk.extend_from_slice(&prefix[start.min(LEN_PREFIX)..end.min(LEN_PREFIX)]);
                chunk.extend_from_slice(&object[in_object(start)..in_object(end)]);
                GenerationEncoder::new(config, &chunk)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ObjectEncoder {
            config,
            session,
            encoders,
        })
    }

    /// The layout in use.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// The session id stamped on emitted packets.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Number of generations the object spans.
    pub fn generations(&self) -> u64 {
        self.encoders.len() as u64
    }

    /// Emits one randomly coded packet for `generation`.
    ///
    /// # Panics
    ///
    /// Panics if `generation >= self.generations()`.
    pub fn coded_packet<R: Rng + ?Sized>(&self, generation: u64, rng: &mut R) -> CodedPacket {
        let enc = &self.encoders[generation as usize];
        enc.coded_packet(self.session, generation, rng)
    }

    /// [`GenerationEncoder::coded_wire_into`] for `generation`: what a
    /// paced source writes into its outbound batch.
    ///
    /// # Panics
    ///
    /// Panics if `generation >= self.generations()`.
    pub fn coded_wire_into<R: Rng + ?Sized>(
        &self,
        generation: u64,
        rng: &mut R,
        out: &mut Vec<u8>,
    ) {
        let enc = &self.encoders[generation as usize];
        enc.coded_wire_into(self.session, generation, rng, out);
    }

    /// Emits systematic packet `index` of `generation`.
    ///
    /// # Panics
    ///
    /// Panics if `generation` or `index` is out of range.
    pub fn systematic_packet(&self, generation: u64, index: usize) -> CodedPacket {
        self.encoders[generation as usize].systematic_packet(self.session, generation, index)
    }
}

/// Reassembles a byte object from coded packets.
#[derive(Debug)]
pub struct ObjectDecoder {
    config: GenerationConfig,
    decoders: Vec<GenerationDecoder>,
    completed: usize,
}

impl ObjectDecoder {
    /// Creates a decoder expecting `generations` generations.
    pub fn new(config: GenerationConfig, generations: u64) -> Self {
        ObjectDecoder {
            config,
            decoders: (0..generations)
                .map(|_| GenerationDecoder::new(config))
                .collect(),
            completed: 0,
        }
    }

    /// Feeds one coded packet.
    ///
    /// Packets for out-of-range generations are counted as redundant (this
    /// happens when the sender pads the tail of a transfer).
    ///
    /// # Errors
    ///
    /// Propagates layout mismatches from the per-generation decoder.
    pub fn receive(&mut self, packet: &CodedPacket) -> Result<ReceiveOutcome, CodecError> {
        self.receive_view(packet.view())
    }

    /// [`receive`](Self::receive) for a packet still sitting in its
    /// receive buffer: nothing is copied before elimination.
    ///
    /// # Errors
    ///
    /// Propagates layout mismatches from the per-generation decoder.
    pub fn receive_view(&mut self, packet: PacketView<'_>) -> Result<ReceiveOutcome, CodecError> {
        let gen = packet.generation() as usize;
        if gen >= self.decoders.len() {
            return Ok(ReceiveOutcome::Redundant);
        }
        let was_complete = self.decoders[gen].is_complete();
        let outcome = self.decoders[gen].receive(packet.coefficients(), packet.payload())?;
        if !was_complete && self.decoders[gen].is_complete() {
            self.completed += 1;
        }
        Ok(outcome)
    }

    /// Generations fully decoded so far.
    pub fn generations_complete(&self) -> usize {
        self.completed
    }

    /// Decoding rank of one generation, or `None` if out of range.
    pub fn generation_rank(&self, generation: u64) -> Option<usize> {
        self.decoders.get(generation as usize).map(|d| d.rank())
    }

    /// Pivot-free columns of one generation (see
    /// [`GenerationDecoder::missing_columns`]).
    pub fn generation_missing_columns(&self, generation: u64) -> Vec<usize> {
        self.decoders
            .get(generation as usize)
            .map(|d| d.missing_columns())
            .unwrap_or_default()
    }

    /// True if `generation` has been fully decoded.
    pub fn generation_complete(&self, generation: u64) -> bool {
        self.decoders
            .get(generation as usize)
            .is_some_and(|d| d.is_complete())
    }

    /// Total generations expected.
    pub fn generations_expected(&self) -> usize {
        self.decoders.len()
    }

    /// True once every generation has been decoded.
    pub fn is_complete(&self) -> bool {
        self.completed == self.decoders.len()
    }

    /// Rank still missing across all generations (how many more innovative
    /// packets are needed in the best case).
    pub fn missing_rank(&self) -> usize {
        self.decoders
            .iter()
            .map(|d| self.config.blocks_per_generation() - d.rank())
            .sum()
    }

    /// Recovers the original object.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::NotDecoded`] if any generation is incomplete.
    pub fn into_object(self) -> Result<Vec<u8>, CodecError> {
        let mut framed = Vec::with_capacity(self.decoders.len() * self.config.generation_payload());
        for d in &self.decoders {
            framed.extend_from_slice(&d.decoded_payload()?);
        }
        if framed.len() < LEN_PREFIX {
            return Err(CodecError::PayloadSize {
                expected: LEN_PREFIX,
                actual: framed.len(),
            });
        }
        let len = u64::from_be_bytes(framed[..LEN_PREFIX].try_into().expect("prefix is 8 bytes"))
            as usize;
        if framed.len() < LEN_PREFIX + len {
            return Err(CodecError::PayloadSize {
                expected: LEN_PREFIX + len,
                actual: framed.len(),
            });
        }
        framed.drain(..LEN_PREFIX);
        framed.truncate(len);
        Ok(framed)
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

    #[test]
    fn object_roundtrip_random_packets() {
        let object: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let enc = ObjectEncoder::new(cfg(), SessionId::new(9), &object).unwrap();
        let mut dec = ObjectDecoder::new(cfg(), enc.generations());
        let mut rng = StdRng::seed_from_u64(31);
        let mut budget = 1000;
        while !dec.is_complete() {
            for g in 0..enc.generations() {
                let pkt = enc.coded_packet(g, &mut rng);
                dec.receive(&pkt).unwrap();
            }
            budget -= 1;
            assert!(budget > 0, "object decode failed to converge");
        }
        assert_eq!(dec.into_object().unwrap(), object);
    }

    #[test]
    fn object_roundtrip_exact_multiple_of_generation() {
        // Length chosen so framed size is NOT an exact generation multiple,
        // plus an exact-multiple case.
        for len in [cfg().generation_payload() - LEN_PREFIX, 100, 1] {
            let object: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let enc = ObjectEncoder::new(cfg(), SessionId::new(1), &object).unwrap();
            let mut dec = ObjectDecoder::new(cfg(), enc.generations());
            for g in 0..enc.generations() {
                for i in 0..4 {
                    dec.receive(&enc.systematic_packet(g, i)).unwrap();
                }
            }
            assert_eq!(dec.into_object().unwrap(), object);
        }
    }

    #[test]
    fn generations_hold_the_length_prefixed_object_in_order() {
        // Generations shorter than the prefix included.
        for (bs, g) in [(16, 4), (1, 4), (3, 1)] {
            let cfg = GenerationConfig::new(bs, g).unwrap();
            for len in [1, 2, 55, 56, 57, 500] {
                let object: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
                let mut framed = (len as u64).to_be_bytes().to_vec();
                framed.extend_from_slice(&object);
                let enc = ObjectEncoder::new(cfg, SessionId::new(1), &object).unwrap();
                let per_gen = cfg.generation_payload();
                assert_eq!(enc.generations() as usize, framed.len().div_ceil(per_gen));
                framed.resize(enc.generations() as usize * per_gen, 0);
                for (i, block) in framed.chunks(bs).enumerate() {
                    let pkt = enc.systematic_packet((i / g) as u64, i % g);
                    assert_eq!(pkt.payload(), block, "block {i}, {bs} x {g}, {len} bytes");
                }
            }
        }
    }

    #[test]
    fn empty_object_rejected() {
        assert!(ObjectEncoder::new(cfg(), SessionId::new(1), &[]).is_err());
    }

    #[test]
    fn out_of_range_generation_is_redundant() {
        let enc = ObjectEncoder::new(cfg(), SessionId::new(1), &[1, 2, 3]).unwrap();
        let mut dec = ObjectDecoder::new(cfg(), 0);
        let pkt = enc.systematic_packet(0, 0);
        assert_eq!(dec.receive(&pkt).unwrap(), ReceiveOutcome::Redundant);
    }

    #[test]
    fn missing_rank_counts_down() {
        let object = vec![7u8; 100];
        let enc = ObjectEncoder::new(cfg(), SessionId::new(1), &object).unwrap();
        let mut dec = ObjectDecoder::new(cfg(), enc.generations());
        let total = dec.missing_rank();
        assert_eq!(total, enc.generations() as usize * 4);
        dec.receive(&enc.systematic_packet(0, 0)).unwrap();
        assert_eq!(dec.missing_rank(), total - 1);
    }

    #[test]
    fn incomplete_object_errors() {
        let object = vec![7u8; 100];
        let enc = ObjectEncoder::new(cfg(), SessionId::new(1), &object).unwrap();
        let dec = ObjectDecoder::new(cfg(), enc.generations());
        assert!(matches!(
            dec.into_object(),
            Err(CodecError::NotDecoded { .. })
        ));
    }
}
