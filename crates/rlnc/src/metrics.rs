//! Codec metrics: redundancy level, decode progress, and pool health.
//!
//! The codec itself stays metrics-free — encoders, decoders and pools
//! keep plain fields on their hot paths. This module defines the
//! registry-facing view: handle bundles that a host (the relay's
//! recovery layer, a bench harness) registers once and then feeds from
//! codec state, either per event ([`RlncMetrics::record_generation_decoded`])
//! or by republishing cumulative totals at snapshot time
//! ([`PoolMetrics::publish`]).

use ncvnf_obs::{desc, Counter, Gauge, Histogram, MetricDesc, MetricKind, Registry};

use crate::pool::PoolStats;
use crate::redundancy::AdaptiveRedundancy;

/// `rlnc.redundancy.extra` — extra coded packets per generation's worth
/// the redundancy controller last applied.
pub const REDUNDANCY_EXTRA: MetricDesc = desc(
    "rlnc.redundancy.extra",
    MetricKind::Gauge,
    "packets",
    "rlnc",
    "Adaptive redundancy last applied: extra coded packets per generation's worth of data",
);

/// `rlnc.redundancy.peak_extra` — highest redundancy applied so far.
pub const REDUNDANCY_PEAK: MetricDesc = desc(
    "rlnc.redundancy.peak_extra",
    MetricKind::Gauge,
    "packets",
    "rlnc",
    "Highest adaptive redundancy applied since start",
);

/// `rlnc.decode.generations` — generations fully decoded.
pub const DECODE_GENERATIONS: MetricDesc = desc(
    "rlnc.decode.generations",
    MetricKind::Counter,
    "generations",
    "rlnc",
    "Generations decoded to full rank",
);

/// `rlnc.decode.packets_per_generation` — coded packets consumed per
/// decoded generation (rank progress efficiency; `g` is optimal).
pub const DECODE_PACKETS_PER_GENERATION: MetricDesc = desc(
    "rlnc.decode.packets_per_generation",
    MetricKind::Histogram,
    "packets",
    "rlnc",
    "Coded packets consumed to decode one generation",
);

/// Registry-backed handles for codec-level metrics.
///
/// Cheap to clone; records are lock-free.
#[derive(Debug, Clone)]
pub struct RlncMetrics {
    redundancy_extra: Gauge,
    redundancy_peak: Gauge,
    generations_decoded: Counter,
    packets_per_generation: Histogram,
}

impl RlncMetrics {
    /// Registers (or retrieves) the codec metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        RlncMetrics {
            redundancy_extra: registry.gauge(REDUNDANCY_EXTRA),
            redundancy_peak: registry.gauge(REDUNDANCY_PEAK),
            generations_decoded: registry.counter(DECODE_GENERATIONS),
            packets_per_generation: registry.histogram(DECODE_PACKETS_PER_GENERATION),
        }
    }

    /// Publishes the redundancy the controller last applied and its peak.
    pub fn observe_redundancy(&self, controller: &AdaptiveRedundancy) {
        self.redundancy_extra.set(controller.current_extra());
        self.redundancy_peak.set(controller.peak_extra());
    }

    /// Records that a generation reached full rank after consuming
    /// `packets` coded packets.
    pub fn record_generation_decoded(&self, packets: u64) {
        self.generations_decoded.inc();
        self.packets_per_generation.record(packets);
    }

    /// Generations decoded so far (for tests and derived views).
    pub fn generations_decoded(&self) -> u64 {
        self.generations_decoded.get()
    }
}

/// `rlnc.pool.checkouts` — buffers checked out of payload pools.
pub const POOL_CHECKOUTS: MetricDesc = desc(
    "rlnc.pool.checkouts",
    MetricKind::Counter,
    "buffers",
    "rlnc",
    "Buffers checked out of payload pools",
);

/// `rlnc.pool.hits` — checkouts served from recycled buffers.
pub const POOL_HITS: MetricDesc = desc(
    "rlnc.pool.hits",
    MetricKind::Counter,
    "buffers",
    "rlnc",
    "Pool checkouts served by a recycled buffer (no allocation)",
);

/// `rlnc.pool.reclaimed` — buffers recovered into the free list.
pub const POOL_RECLAIMED: MetricDesc = desc(
    "rlnc.pool.reclaimed",
    MetricKind::Counter,
    "buffers",
    "rlnc",
    "Buffers reclaimed into the pool free list",
);

/// `rlnc.pool.dropped` — reclaim attempts lost to shared buffers.
pub const POOL_DROPPED: MetricDesc = desc(
    "rlnc.pool.dropped",
    MetricKind::Counter,
    "buffers",
    "rlnc",
    "Reclaim attempts that failed because the buffer was still shared",
);

/// `rlnc.pool.evicted` — reclaims released to honor the byte budget.
pub const POOL_EVICTED: MetricDesc = desc(
    "rlnc.pool.evicted",
    MetricKind::Counter,
    "buffers",
    "rlnc",
    "Reclaimed buffers released instead of retained to honor the pool byte budget",
);

/// Registry-backed republication of [`PoolStats`].
///
/// Pools are single-threaded and keep plain counters; call
/// [`PoolMetrics::publish`] at snapshot points to export the running
/// totals without touching the pool's hot path.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    checkouts: Counter,
    hits: Counter,
    reclaimed: Counter,
    dropped: Counter,
    evicted: Counter,
}

impl PoolMetrics {
    /// Registers (or retrieves) the pool metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        PoolMetrics {
            checkouts: registry.counter(POOL_CHECKOUTS),
            hits: registry.counter(POOL_HITS),
            reclaimed: registry.counter(POOL_RECLAIMED),
            dropped: registry.counter(POOL_DROPPED),
            evicted: registry.counter(POOL_EVICTED),
        }
    }

    /// Overwrites the registry counters with the pool's running totals.
    pub fn publish(&self, stats: &PoolStats) {
        self.checkouts.publish(stats.checkouts);
        self.hits.publish(stats.hits);
        self.reclaimed.publish(stats.reclaimed);
        self.dropped.publish(stats.dropped);
        self.evicted.publish(stats.evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundancy::AimdConfig;

    #[test]
    fn redundancy_and_decode_flow_into_registry() {
        let registry = Registry::new();
        let m = RlncMetrics::register(&registry);
        let mut ctl = AdaptiveRedundancy::new(AimdConfig::default());
        ctl.on_resolved(2, 4);
        assert_eq!(ctl.repair_packets(1, false, 4), 2);
        m.observe_redundancy(&ctl);
        m.record_generation_decoded(6);
        m.record_generation_decoded(4);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rlnc.decode.generations"), Some(2));
        let hist = snap
            .histogram("rlnc.decode.packets_per_generation")
            .expect("registered");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.min, 4);
        assert_eq!(hist.max, 6);
        assert!(snap.gauge("rlnc.redundancy.extra").unwrap() > 0.0);
    }

    #[test]
    fn pool_publish_overwrites_totals() {
        let registry = Registry::new();
        let m = PoolMetrics::register(&registry);
        let stats = PoolStats {
            checkouts: 10,
            hits: 8,
            reclaimed: 9,
            dropped: 1,
            evicted: 2,
        };
        m.publish(&stats);
        m.publish(&stats); // republication is idempotent, not additive
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rlnc.pool.checkouts"), Some(10));
        assert_eq!(snap.counter("rlnc.pool.hits"), Some(8));
        assert_eq!(snap.counter("rlnc.pool.reclaimed"), Some(9));
        assert_eq!(snap.counter("rlnc.pool.dropped"), Some(1));
        assert_eq!(snap.counter("rlnc.pool.evicted"), Some(2));
    }
}
