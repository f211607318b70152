//! Reusable buffer pool for coded-packet payloads and coefficient vectors.
//!
//! The coding hot paths (`GenerationEncoder::coded_packet_pooled`,
//! `Recoder::recode_into`) check buffers out of a [`PayloadPool`], fill
//! them, and freeze them into the [`Bytes`] handles a
//! [`CodedPacket`](crate::CodedPacket) carries. Once every clone of the
//! packet has been dropped, [`PayloadPool::reclaim`] recovers the
//! allocation via [`Bytes::try_into_mut`] — in steady state the emit →
//! forward → drop → reclaim cycle touches the heap zero times per packet
//! (verified by `tests/alloc_steady_state.rs`).

use bytes::{Bytes, BytesMut};

use crate::header::CodedPacket;

/// Counters exposed by a [`PayloadPool`]: how often checkouts were served
/// from recycled buffers versus fresh allocations, and how reclamation
/// fared. `hits / checkouts` is the pool hit rate an operator watches to
/// confirm the data path runs allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers checked out of the pool.
    pub checkouts: u64,
    /// Checkouts served by a recycled buffer (no fresh allocation).
    pub hits: u64,
    /// Buffers successfully reclaimed into the free list.
    pub reclaimed: u64,
    /// Reclaim attempts that failed because the buffer was still shared.
    pub dropped: u64,
    /// Reclaimed buffers released instead of retained because keeping
    /// them would exceed the pool's byte budget.
    pub evicted: u64,
}

impl PoolStats {
    /// Fraction of checkouts served from the free list (1.0 when warm).
    pub fn hit_rate(&self) -> f64 {
        if self.checkouts == 0 {
            return 0.0;
        }
        self.hits as f64 / self.checkouts as f64
    }
}

/// A free list of byte buffers for packet payloads and coefficient vectors.
///
/// Not thread-safe by design: each encoder/recoder pipeline stage owns its
/// own pool, matching the paper's per-session VNF processes.
#[derive(Debug, Default)]
pub struct PayloadPool {
    buffers: Vec<BytesMut>,
    stats: PoolStats,
    /// Byte cap on memory attributed to this pool (idle + in flight);
    /// `None` = unbounded (the pre-budget behavior).
    byte_budget: Option<usize>,
    /// Sum of capacities of the idle buffers in `buffers`.
    retained_bytes: usize,
    /// Bytes checked out and not yet offered back via
    /// [`reclaim`](Self::reclaim) — a live estimate of in-flight pooled
    /// memory, counted at checkout length granularity.
    outstanding_bytes: usize,
}

impl PayloadPool {
    /// An empty pool; buffers are allocated on first checkout and recycled
    /// thereafter.
    pub fn new() -> Self {
        PayloadPool::default()
    }

    /// A pool pre-seeded with `count` buffers of `capacity` bytes, so even
    /// the first packets avoid allocation.
    pub fn with_buffers(count: usize, capacity: usize) -> Self {
        PayloadPool {
            buffers: (0..count)
                .map(|_| BytesMut::with_capacity(capacity))
                .collect(),
            stats: PoolStats::default(),
            byte_budget: None,
            retained_bytes: count * capacity,
            outstanding_bytes: 0,
        }
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.buffers.len()
    }

    /// Checkout/reclaim counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Caps the bytes attributed to this pool (idle + in flight). When a
    /// reclaim would push the idle free list past the cap the buffer's
    /// allocation is released instead of retained (counted in
    /// [`PoolStats::evicted`]). `None` removes the cap.
    pub fn set_byte_budget(&mut self, budget: Option<usize>) {
        self.byte_budget = budget;
    }

    /// The configured byte cap, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    /// Sum of capacities of idle buffers in the free list.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Bytes checked out and not yet offered back — the in-flight share
    /// of the pool's memory attribution.
    pub fn outstanding_bytes(&self) -> usize {
        self.outstanding_bytes
    }

    /// Memory pressure against the byte budget: `(idle + in flight) /
    /// budget`, or `0.0` when no budget is set. May exceed `1.0` while
    /// in-flight buffers hold more than the cap — the overload layer
    /// uses that as its shed signal.
    pub fn pressure(&self) -> f64 {
        match self.byte_budget {
            Some(budget) if budget > 0 => {
                (self.retained_bytes + self.outstanding_bytes) as f64 / budget as f64
            }
            _ => 0.0,
        }
    }

    fn checkout(&mut self) -> BytesMut {
        self.stats.checkouts += 1;
        match self.buffers.pop() {
            Some(buf) => {
                self.stats.hits += 1;
                self.retained_bytes = self.retained_bytes.saturating_sub(buf.capacity());
                buf
            }
            None => BytesMut::new(),
        }
    }

    /// Checks out a buffer of exactly `len` zeroed bytes, reusing a
    /// recycled allocation when one is available.
    pub fn checkout_zeroed(&mut self, len: usize) -> BytesMut {
        let mut buf = self.checkout();
        buf.clear();
        buf.resize(len, 0);
        self.outstanding_bytes += len;
        buf
    }

    /// Checks out a buffer holding a copy of `data`, reusing a recycled
    /// allocation when one is available (the ingress twin of
    /// [`checkout_zeroed`](Self::checkout_zeroed) — wire bytes are copied
    /// straight into pooled storage instead of a fresh allocation).
    pub fn checkout_copy(&mut self, data: &[u8]) -> BytesMut {
        let mut buf = self.checkout();
        buf.clear();
        buf.extend_from_slice(data);
        self.outstanding_bytes += data.len();
        buf
    }

    /// Returns a buffer to the pool if `bytes` is the sole owner of its
    /// storage; reports whether the reclamation succeeded. Under a byte
    /// budget, a sole-owner buffer that would overflow the idle cap is
    /// released back to the allocator instead (still ends its in-flight
    /// accounting, but counts as an eviction, not a reclaim).
    pub fn reclaim(&mut self, bytes: Bytes) -> bool {
        self.outstanding_bytes = self.outstanding_bytes.saturating_sub(bytes.len());
        match bytes.try_into_mut() {
            Ok(buf) => {
                if let Some(budget) = self.byte_budget {
                    if self.retained_bytes + buf.capacity() > budget {
                        self.stats.evicted += 1;
                        return false;
                    }
                }
                self.stats.reclaimed += 1;
                self.retained_bytes += buf.capacity();
                self.buffers.push(buf);
                true
            }
            Err(_) => {
                self.stats.dropped += 1;
                false
            }
        }
    }

    /// Reclaims both buffers of a finished packet (payload and coefficient
    /// vector); returns how many were recovered (0–2).
    pub fn recycle(&mut self, packet: CodedPacket) -> usize {
        usize::from(self.reclaim(packet.coefficients)) + usize::from(self.reclaim(packet.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_zeroed_and_reuses_buffers() {
        let mut pool = PayloadPool::new();
        let mut buf = pool.checkout_zeroed(8);
        assert_eq!(&buf[..], &[0u8; 8]);
        buf[0] = 0xFF;
        let ptr = buf.as_ref().as_ptr();
        assert!(pool.reclaim(buf.freeze()));
        assert_eq!(pool.idle(), 1);
        let again = pool.checkout_zeroed(8);
        assert_eq!(again.as_ref().as_ptr(), ptr, "allocation was reused");
        assert_eq!(&again[..], &[0u8; 8], "stale contents are cleared");
    }

    #[test]
    fn shared_buffers_are_not_reclaimed() {
        let mut pool = PayloadPool::new();
        let frozen = pool.checkout_zeroed(4).freeze();
        let keep = frozen.clone();
        assert!(!pool.reclaim(frozen));
        assert_eq!(pool.idle(), 0);
        assert!(pool.reclaim(keep));
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn checkout_copy_reuses_and_counts() {
        let mut pool = PayloadPool::new();
        let buf = pool.checkout_copy(b"abcd");
        assert_eq!(&buf[..], b"abcd");
        assert!(pool.reclaim(buf.freeze()));
        let again = pool.checkout_copy(b"xy");
        assert_eq!(&again[..], b"xy");
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.reclaimed, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn byte_budget_evicts_instead_of_retaining() {
        let mut pool = PayloadPool::new();
        let a = pool.checkout_zeroed(16);
        let b = pool.checkout_zeroed(16);
        // Cap the pool at exactly one buffer's worth of idle storage.
        pool.set_byte_budget(Some(a.capacity()));
        assert_eq!(pool.byte_budget(), Some(a.capacity()));
        assert_eq!(pool.outstanding_bytes(), 32);
        assert!(pool.pressure() >= 1.0, "in-flight bytes exceed the cap");
        assert!(pool.reclaim(a.freeze()), "first buffer fits the cap");
        assert!(
            !pool.reclaim(b.freeze()),
            "second buffer would overflow the idle cap"
        );
        let stats = pool.stats();
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.outstanding_bytes(), 0);
    }

    #[test]
    fn pressure_is_zero_without_budget() {
        let mut pool = PayloadPool::new();
        let _buf = pool.checkout_zeroed(64);
        assert_eq!(pool.pressure(), 0.0);
        assert_eq!(pool.outstanding_bytes(), 64);
    }

    #[test]
    fn recycle_recovers_both_packet_buffers() {
        use crate::header::SessionId;
        let mut pool = PayloadPool::new();
        let coeffs = pool.checkout_zeroed(4).freeze();
        let payload = pool.checkout_zeroed(16).freeze();
        let pkt = CodedPacket::new(SessionId::new(1), 0, coeffs, payload);
        assert_eq!(pool.recycle(pkt), 2);
        assert_eq!(pool.idle(), 2);
    }
}
