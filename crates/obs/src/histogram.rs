//! Log-linear histograms with fixed, preallocated atomic buckets.
//!
//! The layout is the HdrHistogram idea cut down to what the relay needs:
//! each power-of-two range ("octave") is split into [`SUBBUCKETS`]
//! linear sub-buckets, so relative error is bounded by `1/SUBBUCKETS`
//! (12.5%) everywhere while the bucket count stays small and constant.
//! Recording is one index computation plus one relaxed `fetch_add` —
//! no locks, no heap — so histograms are safe on the packet path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metric::MetricDesc;

/// Linear sub-buckets per power-of-two octave (`2^SUB_BITS`).
const SUBBUCKETS: usize = 8;
const SUB_BITS: u32 = 3;
/// Octaves covered above the initial linear range. Values `0..2*SUBBUCKETS`
/// get exact buckets; everything up to `2^(OCTAVES+SUB_BITS+1)` lands in a
/// log-linear bucket; larger values clamp into the last bucket.
const OCTAVES: usize = 60;
/// Total number of buckets in every histogram.
const BUCKETS: usize = 2 * SUBBUCKETS + OCTAVES * SUBBUCKETS;

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < (2 * SUBBUCKETS) as u64 {
        // Exact region: one bucket per integer value.
        return value as usize;
    }
    // `value >= 16`, so leading_zeros <= 59 and `octave >= 1`.
    let msb = 63 - value.leading_zeros();
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((value >> (msb - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
    let idx = SUBBUCKETS + octave * SUBBUCKETS + sub;
    idx.min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `idx`; every value recorded into the
/// bucket is `<=` this bound (except the final clamp bucket).
#[inline]
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < 2 * SUBBUCKETS {
        return idx as u64;
    }
    let rel = idx - SUBBUCKETS;
    let octave = (rel / SUBBUCKETS) as u32;
    let sub = (rel % SUBBUCKETS) as u64;
    // The topmost octave would overflow u64; clamp to u64::MAX.
    let base = 1u128 << (octave + SUB_BITS);
    let width = 1u128 << octave;
    let bound = base + (sub as u128 + 1) * width - 1;
    bound.min(u64::MAX as u128) as u64
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) desc: MetricDesc,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64; BUCKETS]>,
}

/// A lock-free log-linear histogram of `u64` samples.
///
/// Relative error of any quantile estimate is bounded by the bucket
/// width at that value: within the same log-linear bucket, i.e. at most
/// `1/8` (12.5%) of the value. Cloning shares the buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) core: Arc<HistogramCore>,
}

impl Histogram {
    pub(crate) fn new(desc: MetricDesc) -> Self {
        let buckets: Box<[AtomicU64; BUCKETS]> = {
            let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
            match v.into_boxed_slice().try_into() {
                Ok(b) => b,
                Err(_) => unreachable!("bucket count is fixed"),
            }
        };
        Histogram {
            core: Arc::new(HistogramCore {
                desc,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
                buckets,
            }),
        }
    }

    /// Records one sample. Lock-free, allocation-free.
    pub fn record(&self, value: u64) {
        let c = &*self.core;
        c.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
        c.min.fetch_min(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into an owned [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &*self.core;
        let count = c.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
            buckets: c
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// An owned, immutable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts; bucket bounds come from
    /// [`HistogramSnapshot::bucket_upper_bound`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `idx` (shared across all
    /// histograms — the layout is fixed).
    pub fn bucket_upper_bound(idx: usize) -> u64 {
        bucket_upper_bound(idx)
    }

    /// Bucket index a value would be recorded into.
    pub fn bucket_index(value: u64) -> usize {
        bucket_index(value)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`.
    ///
    /// Returns the upper bound of the bucket containing the sample of
    /// rank `ceil(q * count)`, so the estimate falls in the same bucket
    /// as the exact quantile — within one log-linear bucket boundary
    /// (≤12.5% relative error). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricKind;

    const H: MetricDesc = MetricDesc {
        name: "t.hist",
        kind: MetricKind::Histogram,
        unit: "ns",
        owner: "obs",
        help: "test",
    };

    #[test]
    fn exact_region_is_exact() {
        let h = Histogram::new(H);
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 15);
        for v in 0..16 {
            assert_eq!(s.buckets[v as usize], 1, "value {v}");
            assert_eq!(HistogramSnapshot::bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bounds_are_consistent_with_indexing() {
        // The upper bound of every bucket must index back into itself,
        // and (bound + 1) must land in a later bucket.
        for idx in 0..BUCKETS - 1 {
            let ub = bucket_upper_bound(idx);
            assert_eq!(bucket_index(ub), idx, "upper bound of bucket {idx}");
            assert!(bucket_index(ub + 1) > idx, "bound+1 of bucket {idx}");
        }
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let h = Histogram::new(H);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new(H);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 exact is 500; estimate must share its bucket.
        let p50 = s.quantile(0.5);
        assert_eq!(
            HistogramSnapshot::bucket_index(p50),
            HistogramSnapshot::bucket_index(500)
        );
        let p99 = s.quantile(0.99);
        assert_eq!(
            HistogramSnapshot::bucket_index(p99),
            HistogramSnapshot::bucket_index(990)
        );
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }
}
