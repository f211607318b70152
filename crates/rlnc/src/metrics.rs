//! Codec metrics: redundancy level, decode progress, and pool health.
//!
//! The codec itself stays metrics-free — encoders, decoders and pools
//! keep plain fields on their hot paths. This module defines the
//! registry-facing view: handle bundles that a host (the relay's
//! recovery layer, a bench harness) registers once and then feeds from
//! codec state, either per event ([`RlncMetrics::record_generation_decoded`])
//! or by republishing cumulative totals at snapshot time
//! ([`PoolMetrics::publish`]).

use crate::pool::PoolStats;
use crate::redundancy::AdaptiveRedundancy;

ncvnf_obs::metrics! {
    /// Registry-backed handles for codec-level metrics.
    ///
    /// Cheap to clone; records are lock-free.
    pub struct RlncMetrics in "rlnc" {
        redundancy_extra: Gauge = "rlnc.redundancy.extra", "packets", "Adaptive redundancy last applied: extra coded packets per generation's worth of data";
        redundancy_peak: Gauge = "rlnc.redundancy.peak_extra", "packets", "Highest adaptive redundancy applied since start";
        generations_decoded: Counter = "rlnc.decode.generations", "generations", "Generations decoded to full rank";
        packets_per_generation: Histogram = "rlnc.decode.packets_per_generation", "packets", "Coded packets consumed to decode one generation";
    }
}

impl RlncMetrics {
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

ncvnf_obs::metrics! {
    /// Registry-backed republication of [`PoolStats`].
    ///
    /// Pools are single-threaded and keep plain counters; call
    /// [`PoolMetrics::publish`] at snapshot points to export the running
    /// totals without touching the pool's hot path.
    pub struct PoolMetrics in "rlnc" {
        checkouts: Counter = "rlnc.pool.checkouts", "buffers", "Buffers checked out of payload pools";
        hits: Counter = "rlnc.pool.hits", "buffers", "Pool checkouts served by a recycled buffer (no allocation)";
        reclaimed: Counter = "rlnc.pool.reclaimed", "buffers", "Buffers reclaimed into the pool free list";
        dropped: Counter = "rlnc.pool.dropped", "buffers", "Reclaim attempts that failed because the buffer was still shared";
        evicted: Counter = "rlnc.pool.evicted", "buffers", "Reclaimed buffers released instead of retained to honor the pool byte budget";
    }
}

impl PoolMetrics {
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
    use ncvnf_obs::Registry;

    #[test]
    fn register_registers_exactly_the_tables() {
        let registry = Registry::new();
        let _ = (
            RlncMetrics::register(&registry),
            PoolMetrics::register(&registry),
        );
        let mut tables = [RlncMetrics::DESCRIPTORS, PoolMetrics::DESCRIPTORS].concat();
        tables.sort_by_key(|d| d.name);
        assert_eq!(registry.descriptors(), tables);
    }

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
