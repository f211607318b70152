//! Property-based accuracy bounds for the log-linear histogram, plus
//! the trace ring's overflow contract.

use ncvnf_obs::{Histogram, HistogramSnapshot, MetricDesc, MetricKind, TraceKind, TraceRing};
use proptest::prelude::*;

const H: MetricDesc = MetricDesc {
    name: "test.samples",
    kind: MetricKind::Histogram,
    unit: "units",
    owner: "obs",
    help: "property-test histogram",
};

fn fresh() -> Histogram {
    let registry = ncvnf_obs::Registry::new();
    registry.histogram(H)
}

/// Exact quantile of a sorted sample set at the same rank convention the
/// histogram uses: the sample of rank `ceil(q * n)` (1-based).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The histogram's quantile estimate always lands in the same
    /// log-linear bucket as the exact quantile — i.e. within one bucket
    /// boundary, for arbitrary sample sets and quantiles.
    #[test]
    fn quantile_estimate_within_one_bucket(
        samples in prop::collection::vec(0u64..1_000_000_000, 1..400),
        qm in 0u32..=1000,
    ) {
        let q = qm as f64 / 1000.0;
        let h = fresh();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let snap = h.snapshot();
        let est = snap.quantile(q);
        let exact_bucket = HistogramSnapshot::bucket_index(exact);
        let est_bucket = HistogramSnapshot::bucket_index(est);
        // The estimate is the bucket's upper bound (clamped to the
        // observed max), so it may sit at the boundary of the exact
        // value's bucket but never beyond it.
        prop_assert!(
            est_bucket == exact_bucket,
            "q={} exact={} (bucket {}) est={} (bucket {})",
            q, exact, exact_bucket, est, est_bucket
        );
        // And the estimate never exceeds the recorded range.
        prop_assert!(est <= snap.max);
        prop_assert!(snap.quantile(0.0) >= snap.min || snap.count == 0);
    }

    /// Count, sum, min and max are exact regardless of bucketing.
    #[test]
    fn scalar_moments_are_exact(
        samples in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let h = fresh();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(snap.min, *samples.iter().min().unwrap());
        prop_assert_eq!(snap.max, *samples.iter().max().unwrap());
    }

    /// A ring pushed past capacity keeps the newest `capacity` events and
    /// reports exactly the overflowed count as dropped.
    #[test]
    fn full_ring_drops_oldest_and_counts(
        cap_pow in 3u32..8,
        extra in 1usize..200,
    ) {
        let cap = 1usize << cap_pow;
        let ring = TraceRing::with_capacity(cap);
        let total = cap + extra;
        for i in 0..total {
            ring.push(TraceKind::Custom, i as u64, 0);
        }
        let mut out = Vec::new();
        let lost = ring.drain(&mut out);
        prop_assert_eq!(lost, extra as u64);
        prop_assert_eq!(ring.dropped(), extra as u64);
        prop_assert_eq!(out.len(), cap);
        // Survivors are exactly the newest `cap` events, in order.
        for (i, ev) in out.iter().enumerate() {
            prop_assert_eq!(ev.a, (extra + i) as u64);
        }
    }
}
