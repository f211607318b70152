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

    fn checkout(&mut self) -> BytesMut {
        self.stats.checkouts += 1;
        match self.buffers.pop() {
            Some(buf) => {
                self.stats.hits += 1;
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
        buf
    }

    /// Returns a buffer to the pool if `bytes` is the sole owner of its
    /// storage; reports whether the reclamation succeeded.
    pub fn reclaim(&mut self, bytes: Bytes) -> bool {
        match bytes.try_into_mut() {
            Ok(buf) => {
                self.stats.reclaimed += 1;
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
