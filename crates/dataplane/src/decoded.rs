//! Delivery of decoded payload from a decoder VNF to a plain destination.
//!
//! "Each destination is capable of decoding; possibly with the help of a
//! coding VNF in a nearby cloud" (Sec. IV-A) — and on the data plane,
//! "when decoder VNFs receive encoded packets, they execute decoding
//! operations and forward the recovered payload to the destinations"
//! (Sec. III-A). This module frames that recovered payload: a decoded
//! generation is split back into MTU-sized chunks, each tagged with its
//! generation and chunk index, and a [`PlainReceiver`] reassembles the
//! object without any coding logic at all.
//!
//! Wire format per chunk:
//!
//! ```text
//! byte 0      magic 0xDE
//! bytes 1-4   generation id, big endian
//! byte 5      chunk index within the generation
//! byte 6      chunk count for the generation
//! bytes 7..   chunk payload
//! ```

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};

use ncvnf_netsim::{Context, Datagram, NodeBehavior, SimTime};

/// Magic byte identifying decoded-payload chunks.
const DECODED_MAGIC: u8 = 0xDE;
/// Fixed header length of a decoded chunk.
const DECODED_HEADER: usize = 7;

/// One chunk of decoded generation payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedChunk {
    /// Generation the payload belongs to.
    pub generation: u64,
    /// Index of this chunk within the generation.
    pub index: u8,
    /// Total chunks in the generation.
    pub count: u8,
    /// Chunk bytes.
    pub payload: Bytes,
}

impl DecodedChunk {
    /// Serializes the chunk.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(DECODED_HEADER + self.payload.len());
        buf.put_u8(DECODED_MAGIC);
        buf.put_u32(self.generation as u32);
        buf.put_u8(self.index);
        buf.put_u8(self.count);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a chunk, or `None` if the datagram is not one.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < DECODED_HEADER || data[0] != DECODED_MAGIC {
            return None;
        }
        Some(DecodedChunk {
            generation: u32::from_be_bytes([data[1], data[2], data[3], data[4]]) as u64,
            index: data[5],
            count: data[6],
            payload: Bytes::copy_from_slice(&data[DECODED_HEADER..]),
        })
    }
}

/// Splits a decoded generation payload into MTU-friendly chunks.
pub fn chunk_generation(generation: u64, payload: &[u8], chunk_size: usize) -> Vec<DecodedChunk> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let count = payload.len().div_ceil(chunk_size).max(1);
    assert!(count <= u8::MAX as usize, "generation payload too large");
    payload
        .chunks(chunk_size)
        .enumerate()
        .map(|(i, c)| DecodedChunk {
            generation,
            index: i as u8,
            count: count as u8,
            payload: Bytes::copy_from_slice(c),
        })
        .collect()
}

/// A destination with no coding capability: reassembles decoded chunks
/// into the original object (length-prefix framing, as produced by
/// [`ncvnf_rlnc::ObjectEncoder`]).
#[derive(Debug)]
pub struct PlainReceiver {
    expected_generations: u64,
    /// generation -> (count, chunks by index)
    partial: HashMap<u64, (u8, HashMap<u8, Bytes>)>,
    complete: HashMap<u64, Vec<u8>>,
    completed_at: Option<SimTime>,
    chunks_received: u64,
}

impl PlainReceiver {
    /// A receiver expecting `generations` generations.
    pub fn new(generations: u64) -> Self {
        PlainReceiver {
            expected_generations: generations,
            partial: HashMap::new(),
            complete: HashMap::new(),
            completed_at: None,
            chunks_received: 0,
        }
    }

    /// When every generation arrived.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Chunks received so far.
    pub fn chunks_received(&self) -> u64 {
        self.chunks_received
    }

    /// Generations fully received.
    pub fn generations_complete(&self) -> usize {
        self.complete.len()
    }

    /// Reassembles the object (strips the 8-byte length prefix and the
    /// tail padding), or `None` while incomplete.
    pub fn into_object(self) -> Option<Vec<u8>> {
        if self.complete.len() as u64 != self.expected_generations {
            return None;
        }
        let mut framed = Vec::new();
        for g in 0..self.expected_generations {
            framed.extend_from_slice(self.complete.get(&g)?);
        }
        if framed.len() < 8 {
            return None;
        }
        let len = u64::from_be_bytes(framed[..8].try_into().ok()?) as usize;
        if framed.len() < 8 + len {
            return None;
        }
        framed.drain(..8);
        framed.truncate(len);
        Some(framed)
    }
}

impl NodeBehavior for PlainReceiver {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let Some(chunk) = DecodedChunk::from_bytes(&dgram.payload) else {
            return;
        };
        if chunk.generation >= self.expected_generations
            || self.complete.contains_key(&chunk.generation)
        {
            return;
        }
        self.chunks_received += 1;
        let entry = self
            .partial
            .entry(chunk.generation)
            .or_insert_with(|| (chunk.count, HashMap::new()));
        entry.1.insert(chunk.index, chunk.payload);
        if entry.1.len() == entry.0 as usize {
            let (count, parts) = self.partial.remove(&chunk.generation).expect("present");
            let mut payload = Vec::new();
            for i in 0..count {
                payload.extend_from_slice(&parts[&i]);
            }
            self.complete.insert(chunk.generation, payload);
            if self.complete.len() as u64 == self.expected_generations
                && self.completed_at.is_none()
            {
                self.completed_at = Some(ctx.now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_roundtrip() {
        let chunks = chunk_generation(7, &[1u8; 5840], 1460);
        assert_eq!(chunks.len(), 4);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i as u8);
            assert_eq!(c.count, 4);
            let back = DecodedChunk::from_bytes(&c.to_bytes()).unwrap();
            assert_eq!(&back, c);
        }
    }

    #[test]
    fn uneven_tail_chunk() {
        let chunks = chunk_generation(0, &[9u8; 3000], 1460);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].payload.len(), 80);
    }

    #[test]
    fn foreign_packets_rejected() {
        assert!(DecodedChunk::from_bytes(&[0xAC, 0, 0, 0, 0, 0, 0, 1]).is_none());
        assert!(DecodedChunk::from_bytes(&[0xDE]).is_none());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = chunk_generation(0, &[1], 0);
    }
}
