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
use ncvnf_obs::Snapshot;

use crate::metrics::ControlMetrics;

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

/// A data-plane health snapshot reported by a relay (its cumulative
/// `RelayStats` counters) plus the recovery counters contributed by the
/// transfer endpoints. All counters are cumulative since node start;
/// re-recording a node replaces its previous snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataplaneHealth {
    /// Datagrams received on the data socket.
    pub datagrams_in: u64,
    /// Datagrams sent to next hops.
    pub datagrams_out: u64,
    /// Socket errors survived.
    pub io_errors: u64,
    /// Control signals rejected with an `ERR` reply.
    pub rejected_signals: u64,
    /// Feedback-magic frames that failed to decode (dropped, counted).
    pub malformed_feedback: u64,
    /// Liveness beacons the node emitted.
    pub heartbeats_sent: u64,
    /// NACKs sent by receivers for undecodable generations.
    pub nacks_sent: u64,
    /// Fresh coded packets retransmitted in response to NACKs.
    pub retransmit_packets: u64,
    /// Generations that needed at least one retransmission round and
    /// still decoded.
    pub generations_recovered: u64,
    /// Datagrams shed by admission control (`relay.shed_quota`).
    pub shed_packets: u64,
}

impl DataplaneHealth {
    /// Builds the health record from an observability snapshot — the
    /// node-side registry is the single source of truth, and this is
    /// the controller's ingestion mapping from metric names (the relay's
    /// `relay.*` node counters plus the transfer endpoints' `recovery.*`
    /// counters) to health fields. Metrics a node never registered read
    /// as zero.
    pub fn from_snapshot(snapshot: &Snapshot) -> DataplaneHealth {
        let c = |name: &str| snapshot.counter(name).unwrap_or(0);
        DataplaneHealth {
            datagrams_in: c("relay.datagrams_in"),
            datagrams_out: c("relay.datagrams_out"),
            io_errors: c("relay.io_errors"),
            rejected_signals: c("relay.rejected_signals"),
            malformed_feedback: c("relay.malformed_feedback"),
            heartbeats_sent: c("relay.heartbeats_sent"),
            nacks_sent: c("recovery.nacks_sent"),
            retransmit_packets: c("recovery.retransmit_packets"),
            generations_recovered: c("recovery.generations_recovered"),
            shed_packets: c("relay.shed_quota"),
        }
    }

    /// Field-wise sum (fleet-wide aggregation).
    #[must_use]
    pub fn combined(&self, other: &DataplaneHealth) -> DataplaneHealth {
        DataplaneHealth {
            datagrams_in: self.datagrams_in + other.datagrams_in,
            datagrams_out: self.datagrams_out + other.datagrams_out,
            io_errors: self.io_errors + other.io_errors,
            rejected_signals: self.rejected_signals + other.rejected_signals,
            malformed_feedback: self.malformed_feedback + other.malformed_feedback,
            heartbeats_sent: self.heartbeats_sent + other.heartbeats_sent,
            nacks_sent: self.nacks_sent + other.nacks_sent,
            retransmit_packets: self.retransmit_packets + other.retransmit_packets,
            generations_recovered: self.generations_recovered + other.generations_recovered,
            shed_packets: self.shed_packets + other.shed_packets,
        }
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
    /// Latest data-plane health snapshot per relay node id.
    dataplane: HashMap<u32, DataplaneHealth>,
    /// Optional registry handles; when attached, `drain_events` counts
    /// the scaling observations it emits.
    metrics: Option<ControlMetrics>,
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
            dataplane: HashMap::new(),
            metrics: None,
        }
    }

    /// Attaches registry handles so emitted scaling observations are
    /// counted under `control.scaling.events`.
    pub fn attach_metrics(&mut self, metrics: ControlMetrics) {
        self.metrics = Some(metrics);
    }

    /// Records a relay's latest data-plane health snapshot (counters are
    /// cumulative, so the newest snapshot supersedes older ones).
    pub fn record_dataplane(&mut self, node: u32, health: DataplaneHealth) {
        self.dataplane.insert(node, health);
    }

    /// The latest health snapshot recorded for a relay, if any.
    pub fn dataplane_health(&self, node: u32) -> Option<&DataplaneHealth> {
        self.dataplane.get(&node)
    }

    /// Field-wise sum of every relay's latest snapshot.
    pub fn dataplane_total(&self) -> DataplaneHealth {
        self.dataplane
            .values()
            .fold(DataplaneHealth::default(), |acc, h| acc.combined(h))
    }

    /// Node ids with a recorded health snapshot, ascending.
    pub fn dataplane_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self.dataplane.keys().copied().collect();
        nodes.sort_unstable();
        nodes
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
        if let Some(metrics) = &self.metrics {
            metrics.scaling_events.add(events.len() as u64);
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
    fn dataplane_snapshots_replace_and_aggregate() {
        let mut t = Telemetry::new(2);
        assert_eq!(t.dataplane_health(7), None);
        t.record_dataplane(
            7,
            DataplaneHealth {
                datagrams_in: 10,
                nacks_sent: 2,
                ..DataplaneHealth::default()
            },
        );
        // Counters are cumulative: a fresher snapshot supersedes.
        t.record_dataplane(
            7,
            DataplaneHealth {
                datagrams_in: 25,
                nacks_sent: 3,
                retransmit_packets: 8,
                ..DataplaneHealth::default()
            },
        );
        t.record_dataplane(
            9,
            DataplaneHealth {
                datagrams_in: 5,
                generations_recovered: 1,
                heartbeats_sent: 40,
                ..DataplaneHealth::default()
            },
        );
        assert_eq!(t.dataplane_health(7).unwrap().datagrams_in, 25);
        assert_eq!(t.dataplane_nodes(), vec![7, 9]);
        let total = t.dataplane_total();
        assert_eq!(total.datagrams_in, 30);
        assert_eq!(total.nacks_sent, 3);
        assert_eq!(total.retransmit_packets, 8);
        assert_eq!(total.generations_recovered, 1);
        assert_eq!(total.heartbeats_sent, 40);
    }

    #[test]
    fn health_derives_from_registry_snapshot() {
        ncvnf_obs::metrics! {
            struct RelaySide in "relay" {
                datagrams_in: Counter = "relay.datagrams_in", "datagrams", "test";
                nacks_sent: Counter = "recovery.nacks_sent", "nacks", "test";
                shed_quota: Counter = "relay.shed_quota", "datagrams", "test";
            }
        }
        let registry = ncvnf_obs::Registry::new();
        let relay = RelaySide::register(&registry);
        relay.datagrams_in.add(42);
        relay.nacks_sent.add(3);
        relay.shed_quota.add(7);
        let health = DataplaneHealth::from_snapshot(&registry.snapshot());
        assert_eq!(health.datagrams_in, 42);
        assert_eq!(health.nacks_sent, 3);
        assert_eq!(health.shed_packets, 7);
        // Metrics the node never registered read as zero.
        assert_eq!(health.io_errors, 0);
        assert_eq!(health.retransmit_packets, 0);
    }

    #[test]
    fn attached_metrics_count_scaling_events() {
        use crate::metrics::ControlMetrics;
        use ncvnf_obs::Registry;
        let registry = Registry::new();
        let topo = topo();
        let dc = topo.data_centers()[1];
        let mut t = Telemetry::new(2);
        t.attach_metrics(ControlMetrics::register(&registry));
        for _ in 0..2 {
            t.record_bandwidth(dc, 460e6, 470e6);
        }
        assert_eq!(t.drain_events(&topo, 0.05).len(), 1);
        assert_eq!(
            registry.snapshot().counter("control.scaling.events"),
            Some(1)
        );
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
