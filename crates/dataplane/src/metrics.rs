//! Registry republication of [`VnfStats`].
//!
//! The VNF keeps plain `u64` fields on the packet path (a single
//! mutable struct behind the engine lock is cheaper than atomics
//! there); [`VnfMetrics::publish`] exports those running totals into a
//! registry at snapshot time so the fleet-wide view and the `NC_STATS`
//! query see the same numbers as the in-process struct.

use crate::vnf::VnfStats;

ncvnf_obs::metrics! {
    /// Registry-backed republication handles for [`VnfStats`].
    pub struct VnfMetrics in "dataplane" {
        packets_in: Counter = "dataplane.packets_in", "packets", "NC packets received by the VNF";
        packets_out: Counter = "dataplane.packets_out", "packets", "NC packets emitted by the VNF";
        innovative_in: Counter = "dataplane.innovative_in", "packets", "Received packets that increased some generation's rank";
        malformed: Counter = "dataplane.malformed", "packets", "Inputs that were not valid NC packets";
        unknown_session: Counter = "dataplane.unknown_session", "packets", "Packets for sessions this VNF has no role for";
        generations_decoded: Counter = "dataplane.generations_decoded", "generations", "Generations fully decoded (decoder role)";
        evicted_decoders: Counter = "dataplane.evicted_decoders", "decoders", "Decoder generation states dropped by the FIFO retention bound";
    }
}

impl VnfMetrics {
    /// Overwrites the registry counters with the VNF's running totals.
    pub fn publish(&self, stats: &VnfStats) {
        self.packets_in.publish(stats.packets_in);
        self.packets_out.publish(stats.packets_out);
        self.innovative_in.publish(stats.innovative_in);
        self.malformed.publish(stats.malformed);
        self.unknown_session.publish(stats.unknown_session);
        self.generations_decoded.publish(stats.generations_decoded);
        self.evicted_decoders.publish(stats.evicted_decoders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_obs::Registry;

    #[test]
    fn register_registers_exactly_the_table() {
        let registry = Registry::new();
        let _ = VnfMetrics::register(&registry);
        let mut table = VnfMetrics::DESCRIPTORS.to_vec();
        table.sort_by_key(|d| d.name);
        assert_eq!(registry.descriptors(), table);
    }

    #[test]
    fn publish_mirrors_vnf_stats() {
        let registry = Registry::new();
        let m = VnfMetrics::register(&registry);
        let stats = VnfStats {
            packets_in: 100,
            packets_out: 90,
            innovative_in: 80,
            malformed: 2,
            unknown_session: 3,
            generations_decoded: 7,
            evicted_decoders: 1,
        };
        m.publish(&stats);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("dataplane.packets_in"), Some(100));
        assert_eq!(snap.counter("dataplane.packets_out"), Some(90));
        assert_eq!(snap.counter("dataplane.innovative_in"), Some(80));
        assert_eq!(snap.counter("dataplane.malformed"), Some(2));
        assert_eq!(snap.counter("dataplane.unknown_session"), Some(3));
        assert_eq!(snap.counter("dataplane.generations_decoded"), Some(7));
        assert_eq!(snap.counter("dataplane.evicted_decoders"), Some(1));
    }
}
