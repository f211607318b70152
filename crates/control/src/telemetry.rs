//! Measurement ingestion: probes → smoothed estimates → scaling events.
//!
//! "Iperf3 ... is installed on network coding VNFs and periodically
//! executed to obtain the inbound and outbound bandwidth ... Results are
//! sent to the controller for use of the dynamic scaling algorithm" and
//! "Ping is periodically executed on the VNFs to detect delay changes"
//! (Sec. IV-B). Raw probe samples are noisy; the controller's ρ/τ
//! hysteresis expects a stable estimate, so this module keeps a sliding
//! window per measurement target and reports the median.

use std::collections::HashMap;

use ncvnf_deploy::model::VnfSpec;
use ncvnf_deploy::{ScalingEvent, Topology};
use ncvnf_flowgraph::NodeId;

/// Sliding-window median estimator.
#[derive(Debug, Clone)]
struct Window {
    samples: Vec<f64>,
    capacity: usize,
    cursor: usize,
}

impl Window {
    fn new(capacity: usize) -> Self {
        Window {
            samples: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
        }
    }

    fn push(&mut self, x: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push(x);
        } else {
            self.samples[self.cursor] = x;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    fn median(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut v = self.samples.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Some(v[v.len() / 2])
    }
}

/// Aggregates probe measurements and emits [`ScalingEvent`]s when the
/// smoothed estimate deviates from the topology's current belief.
#[derive(Debug)]
pub struct Telemetry {
    window: usize,
    /// Per-DC (inbound, outbound) bandwidth windows (bps).
    bandwidth: HashMap<NodeId, (Window, Window)>,
    /// Per-directed-pair RTT windows (ms).
    rtt: HashMap<(NodeId, NodeId), Window>,
}

impl Telemetry {
    /// Creates an aggregator with a per-target window of `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Telemetry {
            window,
            bandwidth: HashMap::new(),
            rtt: HashMap::new(),
        }
    }

    /// Records one iperf-style sample of a DC's per-VNF bandwidth.
    pub fn record_bandwidth(&mut self, dc: NodeId, in_bps: f64, out_bps: f64) {
        let entry = self
            .bandwidth
            .entry(dc)
            .or_insert_with(|| (Window::new(self.window), Window::new(self.window)));
        entry.0.push(in_bps);
        entry.1.push(out_bps);
    }

    /// Drops every bandwidth sample of `dc` (its relay was lost or came
    /// back, so they describe an instance that is gone).
    pub fn forget(&mut self, dc: NodeId) {
        self.bandwidth.remove(&dc);
    }

    /// Records one ping RTT sample between two nodes.
    pub fn record_rtt(&mut self, from: NodeId, to: NodeId, rtt_ms: f64) {
        self.rtt
            .entry((from, to))
            .or_insert_with(|| Window::new(self.window))
            .push(rtt_ms);
    }

    /// Smoothed (median) per-VNF bandwidth estimate for a DC, if enough
    /// samples exist.
    pub fn bandwidth_estimate(&self, dc: NodeId) -> Option<(f64, f64)> {
        let (i, o) = self.bandwidth.get(&dc)?;
        Some((i.median()?, o.median()?))
    }

    /// Smoothed one-way delay estimate for a pair (RTT/2), if any.
    pub fn delay_estimate_ms(&self, from: NodeId, to: NodeId) -> Option<f64> {
        Some(self.rtt.get(&(from, to))?.median()? / 2.0)
    }

    /// Compares every smoothed estimate against the topology's current
    /// values and emits the corresponding observation events (the
    /// controller applies its own ρ/τ hysteresis on top).
    pub fn drain_events(&self, topo: &Topology, min_rel_change: f64) -> Vec<ScalingEvent> {
        let mut events = Vec::new();
        let mut dcs: Vec<NodeId> = self.bandwidth.keys().copied().collect();
        dcs.sort();
        for dc in dcs {
            let Some((in_bps, out_bps)) = self.bandwidth_estimate(dc) else {
                continue;
            };
            let current = topo.vnf_spec(dc);
            if rel(current.bin_bps, in_bps) >= min_rel_change
                || rel(current.bout_bps, out_bps) >= min_rel_change
            {
                events.push(ScalingEvent::BandwidthObserved {
                    dc,
                    spec: VnfSpec {
                        bin_bps: in_bps,
                        bout_bps: out_bps,
                        coding_bps: current.coding_bps,
                    },
                });
            }
        }
        let mut pairs: Vec<(NodeId, NodeId)> = self.rtt.keys().copied().collect();
        pairs.sort();
        for (from, to) in pairs {
            let Some(delay_ms) = self.delay_estimate_ms(from, to) else {
                continue;
            };
            let Some(current) = topo
                .graph
                .out_edges(from)
                .find(|e| e.to == to)
                .map(|e| e.delay)
            else {
                continue;
            };
            if rel(current, delay_ms) >= min_rel_change {
                events.push(ScalingEvent::DelayObserved { from, to, delay_ms });
            }
        }
        events
    }
}

fn rel(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old).abs() / old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_deploy::presets::NorthAmerica;

    fn topo() -> Topology {
        NorthAmerica::new().build()
    }

    #[test]
    fn median_smooths_outliers() {
        let topo = topo();
        let dc = topo.data_centers()[0];
        let mut t = Telemetry::new(5);
        // Four good samples, one spike: the median ignores the spike.
        for _ in 0..4 {
            t.record_bandwidth(dc, 920e6, 920e6);
        }
        t.record_bandwidth(dc, 5e6, 5e6);
        let (i, o) = t.bandwidth_estimate(dc).unwrap();
        assert_eq!(i, 920e6);
        assert_eq!(o, 920e6);
        assert!(t.drain_events(&topo, 0.05).is_empty());
    }

    #[test]
    fn persistent_change_emits_event() {
        let topo = topo();
        let dc = topo.data_centers()[1];
        let mut t = Telemetry::new(4);
        for _ in 0..4 {
            t.record_bandwidth(dc, 460e6, 470e6);
        }
        let events = t.drain_events(&topo, 0.05);
        assert_eq!(events.len(), 1);
        match &events[0] {
            ScalingEvent::BandwidthObserved { dc: d, spec } => {
                assert_eq!(*d, dc);
                assert_eq!(spec.bin_bps, 460e6);
                assert_eq!(spec.bout_bps, 470e6);
                // Coding capacity is not probed; retain the current value.
                assert_eq!(spec.coding_bps, topo.vnf_spec(dc).coding_bps);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn rtt_halves_into_one_way_delay() {
        let topo = topo();
        let dcs = topo.data_centers();
        let mut t = Telemetry::new(3);
        for rtt in [100.0, 102.0, 98.0] {
            t.record_rtt(dcs[0], dcs[1], rtt);
        }
        assert_eq!(t.delay_estimate_ms(dcs[0], dcs[1]), Some(50.0));
        // CA->OR is 10 ms in the preset: a 50 ms estimate is a change.
        let events = t.drain_events(&topo, 0.05);
        assert!(events.iter().any(|e| matches!(
            e,
            ScalingEvent::DelayObserved { delay_ms, .. } if (*delay_ms - 50.0).abs() < 1e-9
        )));
    }

    #[test]
    fn small_changes_are_filtered() {
        let topo = topo();
        let dc = topo.data_centers()[0];
        let mut t = Telemetry::new(2);
        t.record_bandwidth(dc, 910e6, 915e6); // ~1% off nominal 920
        t.record_bandwidth(dc, 912e6, 913e6);
        assert!(t.drain_events(&topo, 0.05).is_empty());
    }

    #[test]
    fn window_rolls_over() {
        let topo = topo();
        let dc = topo.data_centers()[0];
        let mut t = Telemetry::new(3);
        for _ in 0..3 {
            t.record_bandwidth(dc, 920e6, 920e6);
        }
        // Three new samples displace the old ones entirely.
        for _ in 0..3 {
            t.record_bandwidth(dc, 400e6, 400e6);
        }
        let (i, _) = t.bandwidth_estimate(dc).unwrap();
        assert_eq!(i, 400e6);
        assert_eq!(t.drain_events(&topo, 0.05).len(), 1);
    }
}
