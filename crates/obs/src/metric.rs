//! Metric descriptors and the scalar metric handles (counter, gauge).
//!
//! Handles are `Arc`-backed: cloning one is a reference-count bump, and
//! every mutation is a single relaxed atomic operation — no locks, no
//! heap traffic — so instrumented hot paths keep the zero-allocation
//! steady state proven by the relay's counting-allocator tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a registered metric measures and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Instantaneous level (may go up and down); stored as `f64`.
    Gauge,
    /// Distribution of recorded values in log-linear buckets.
    Histogram,
}

impl MetricKind {
    /// Lower-case name used in snapshots and documentation tables.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Static metadata describing one metric.
///
/// Descriptors are not written by hand: each row of a
/// [`metrics!`](crate::metrics) table becomes one, and the same row
/// yields the handle field, its registration and its `OPERATIONS.md`
/// line. All fields are `&'static str`, so registration never copies
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDesc {
    /// Dot-separated unique name, prefixed by the owning subsystem
    /// (e.g. `relay.datagrams_in`).
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Unit of the recorded values (`packets`, `ns`, `bytes`, …).
    pub unit: &'static str,
    /// The crate that owns (registers and documents) this metric.
    pub owner: &'static str,
    /// One-line human description for `OPERATIONS.md` and snapshots.
    pub help: &'static str,
}

#[derive(Debug)]
pub(crate) struct CounterCore {
    pub(crate) desc: MetricDesc,
    pub(crate) value: AtomicU64,
}

/// A monotonically increasing event counter.
///
/// Cloning shares the underlying cell; reads and increments are relaxed
/// atomics (counters are statistics, not synchronization).
#[derive(Debug, Clone)]
pub struct Counter {
    pub(crate) core: Arc<CounterCore>,
}

impl Counter {
    pub(crate) fn new(desc: MetricDesc) -> Self {
        Counter {
            core: Arc::new(CounterCore {
                desc,
                value: AtomicU64::new(0),
            }),
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.core.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Republishes a cumulative value maintained elsewhere.
    ///
    /// Some subsystems keep their counters in plain (non-atomic) fields
    /// on their own hot path — e.g. `ncvnf-dataplane`'s `VnfStats` —
    /// and export them into the registry only at snapshot time. For
    /// those, `publish` overwrites the stored total instead of adding.
    #[inline]
    pub fn publish(&self, total: u64) {
        self.core.value.store(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.core.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct GaugeCore {
    pub(crate) desc: MetricDesc,
    /// `f64` bits; gauges hold levels, and several of this workspace's
    /// levels (AIMD redundancy, rates) are fractional.
    pub(crate) bits: AtomicU64,
}

/// An instantaneous level: set, add, read. Stored as `f64`.
#[derive(Debug, Clone)]
pub struct Gauge {
    pub(crate) core: Arc<GaugeCore>,
}

impl Gauge {
    pub(crate) fn new(desc: MetricDesc) -> Self {
        Gauge {
            core: Arc::new(GaugeCore {
                desc,
                bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, value: f64) {
        self.core.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (lock-free compare-and-swap loop).
    pub fn add(&self, delta: f64) {
        let _ = self
            .core
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.core.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cell;

    const C: MetricDesc = MetricDesc {
        name: "t.count",
        kind: MetricKind::Counter,
        unit: "events",
        owner: "obs",
        help: "test",
    };
    const G: MetricDesc = MetricDesc {
        name: "t.level",
        kind: MetricKind::Gauge,
        unit: "items",
        owner: "obs",
        help: "test",
    };

    #[test]
    fn counter_counts_and_clones_share() {
        let c = Counter::new(C);
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        c.publish(100);
        assert_eq!(c2.get(), 100);
        assert_eq!(c.desc().name, "t.count");
    }

    #[test]
    fn gauge_holds_fractional_levels() {
        let g = Gauge::new(G);
        assert_eq!(g.get(), 0.0);
        g.set(1.5);
        g.add(-0.25);
        assert!((g.get() - 1.25).abs() < 1e-12);
        assert_eq!(g.desc().kind.name(), "gauge");
    }
}
