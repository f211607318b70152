//! Per-session generation buffers with FIFO eviction.

use std::collections::{HashMap, VecDeque};

use ncvnf_rlnc::{GenerationConfig, Recoder, SessionId};

/// Counters exposed by a [`SessionBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Generations created in the buffer.
    pub generations_opened: u64,
    /// Generations evicted by the FIFO policy.
    pub evictions: u64,
}

/// Bounded buffer of per-generation recoders for one session.
///
/// "Buffer space is needed for storing packets received so far. ... We
/// employ a FIFO buffer management strategy that discards the oldest
/// packets once the buffer is full. ... buffer size of 1024 generations is
/// sufficient to guarantee good performance" (Sec. III-B). Capacity is in
/// generations; evicting a generation drops all its buffered packets.
///
/// The buffer is a FIFO ring of recoder slots, oldest first. A generation
/// opened at capacity takes over the slot it evicts
/// ([`Recoder::reset`]), so once the ring is full a generation costs no
/// heap operation. Lookups are O(1) and never scan the (up to 1024-slot)
/// ring: an index maps each generation to its slot, and a memo of the last
/// generation looked up skips even the hash for the rest of a generation's
/// packets, which arrive back to back.
#[derive(Debug)]
pub struct SessionBuffer {
    config: GenerationConfig,
    session: SessionId,
    capacity: usize,
    /// Live generations' recoders, oldest first.
    slots: VecDeque<Recoder>,
    /// Generation → slot number. Slots are numbered in opening order, so
    /// slot `n` sits at position `n - front` of `slots`.
    index: HashMap<u64, u64>,
    /// Slots taken off the front of the ring so far.
    front: u64,
    /// The generation looked up last and its slot number; stale once the
    /// number falls below `front`.
    memo: Option<(u64, u64)>,
    stats: BufferStats,
}

impl SessionBuffer {
    /// The paper's buffer size: 1024 generations per session.
    pub const PAPER_CAPACITY: usize = 1024;

    /// Creates a buffer holding at most `capacity` generations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(config: GenerationConfig, session: SessionId, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        SessionBuffer {
            config,
            session,
            capacity,
            slots: VecDeque::new(),
            index: HashMap::new(),
            front: 0,
            memo: None,
            stats: BufferStats::default(),
        }
    }

    /// The session this buffer serves.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Number of generations currently buffered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no generation is buffered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Buffer statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Position of `generation`'s slot in the ring, if it is buffered.
    fn position(&self, generation: u64) -> Option<usize> {
        let number = match self.memo {
            Some((memo, number)) if memo == generation && number >= self.front => number,
            _ => *self.index.get(&generation)?,
        };
        Some((number - self.front) as usize)
    }

    /// Returns the recoder for `generation`, creating it (and evicting the
    /// oldest generation if at capacity).
    pub fn recoder_for(&mut self, generation: u64) -> &mut Recoder {
        let at = match self.position(generation) {
            Some(at) => at,
            None => self.open(generation),
        };
        self.memo = Some((generation, self.front + at as u64));
        &mut self.slots[at]
    }

    /// Opens `generation` in the newest slot — at capacity, the oldest
    /// slot re-targeted — and returns its position.
    fn open(&mut self, generation: u64) -> usize {
        let recoder = if self.slots.len() == self.capacity {
            let mut oldest = self.pop_oldest().expect("capacity > 0");
            oldest.reset(self.session, generation);
            oldest
        } else {
            Recoder::new(self.config, self.session, generation)
        };
        let number = self.front + self.slots.len() as u64;
        self.index.insert(generation, number);
        self.slots.push_back(recoder);
        self.stats.generations_opened += 1;
        self.slots.len() - 1
    }

    /// Takes the oldest slot off the ring, counted as an eviction.
    fn pop_oldest(&mut self) -> Option<Recoder> {
        let oldest = self.slots.pop_front()?;
        self.index.remove(&oldest.generation());
        self.front += 1;
        self.stats.evictions += 1;
        Some(oldest)
    }

    /// Looks up an existing generation without creating it.
    pub fn get(&self, generation: u64) -> Option<&Recoder> {
        self.position(generation).map(|at| &self.slots[at])
    }

    /// True if `generation` is still buffered.
    pub fn contains(&self, generation: u64) -> bool {
        self.position(generation).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(cap: usize) -> SessionBuffer {
        SessionBuffer::new(GenerationConfig::new(8, 2).unwrap(), SessionId::new(1), cap)
    }

    #[test]
    fn creates_and_reuses_generations() {
        let mut b = buf(4);
        b.recoder_for(0);
        b.recoder_for(1);
        b.recoder_for(0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.stats().generations_opened, 2);
        assert!(b.contains(0));
        assert!(b.get(2).is_none());
    }

    #[test]
    fn fifo_eviction_drops_oldest() {
        let mut b = buf(3);
        for g in 0..5 {
            b.recoder_for(g);
        }
        assert_eq!(b.len(), 3);
        assert!(!b.contains(0));
        assert!(!b.contains(1));
        assert!(b.contains(2) && b.contains(3) && b.contains(4));
        assert_eq!(b.stats().evictions, 2);
    }

    #[test]
    fn evicted_generation_can_reopen() {
        let mut b = buf(2);
        b.recoder_for(0);
        b.recoder_for(1);
        b.recoder_for(2); // evicts 0
        assert!(!b.contains(0));
        b.recoder_for(0); // evicts 1, reopens 0 fresh
        assert!(b.contains(0));
        assert_eq!(b.get(0).unwrap().rank(), 0);
        assert_eq!(b.stats().generations_opened, 4);
    }

    #[test]
    fn ring_slots_follow_their_generations() {
        let mut b = buf(3);
        // Interleaved lookups keep the memo moving between live slots.
        for g in [7, 8, 7, 9, 8, 10, 9, 11] {
            assert_eq!(b.recoder_for(g).generation(), g);
        }
        assert_eq!(b.len(), 3);
        for g in [9, 10, 11] {
            assert_eq!(b.get(g).map(Recoder::generation), Some(g));
        }
        assert!(!b.contains(7) && !b.contains(8));
        assert_eq!(b.stats().evictions, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = buf(0);
    }
}
