//! The evaluation butterfly (Fig. 6) as a parameterized simulation.
//!
//! Topology (capacities 34.95 Mbps per link → Ford–Fulkerson multicast
//! capacity 69.9 Mbps, the paper's theoretical maximum; delays tuned to
//! the ping measurements of Table II):
//!
//! ```text
//!          V1 (source, Virginia)
//!         /  \
//!       O1    C1          (Oregon / California relays)
//!      /  \  /  \
//!    O2    T     C2       (T: Texas — the coding point)
//!     ^    |     ^
//!     |    V2----+        (Virginia relay, bottleneck T→V2)
//!     +----+
//! ```

use ncvnf_dataplane::{
    CodingCostModel, CodingVnf, ObjectSource, ReceiverNode, SourceConfig, VnfNode, VnfRole,
    NC_DATA_PORT, NC_FEEDBACK_PORT,
};
use ncvnf_flowgraph::{multicast, Graph, NodeId};
use ncvnf_netsim::{
    Addr, LinkConfig, LinkId, LossModel, SimDuration, SimNodeId, SimTime, Simulator,
};
use ncvnf_rlnc::{GenerationConfig, RedundancyPolicy, SessionId};

/// Per-link capacity used in the paper-scale butterfly (bps).
pub const LINK_BPS: f64 = 34.95e6;
/// The session id used by butterfly runs.
pub const SESSION: SessionId = SessionId::new(1);

/// One-way link delays in milliseconds, tuned to reproduce Table II.
#[derive(Debug, Clone, Copy)]
pub struct ButterflyDelays {
    /// V1 → O1.
    pub v1_o1: f64,
    /// V1 → C1.
    pub v1_c1: f64,
    /// O1 → O2 (intra-region).
    pub o1_o2: f64,
    /// C1 → C2 (intra-region).
    pub c1_c2: f64,
    /// O1 → T.
    pub o1_t: f64,
    /// C1 → T.
    pub c1_t: f64,
    /// T → V2 (the bottleneck).
    pub t_v2: f64,
    /// V2 → O2.
    pub v2_o2: f64,
    /// V2 → C2.
    pub v2_c2: f64,
    /// Direct V1 → O2 (one-way; paper ping RTT 90.88 ms).
    pub direct_o2: f64,
    /// Direct V1 → C2 (one-way; paper ping RTT 77.03 ms).
    pub direct_c2: f64,
}

impl Default for ButterflyDelays {
    fn default() -> Self {
        ButterflyDelays {
            v1_o1: 45.4,
            v1_c1: 38.5,
            o1_o2: 1.0,
            c1_c2: 1.0,
            o1_t: 30.0,
            c1_t: 30.0,
            t_v2: 25.0,
            v2_o2: 28.5,
            v2_c2: 27.0,
            direct_o2: 45.44,
            direct_c2: 38.51,
        }
    }
}

/// Scenario parameters for one butterfly run.
#[derive(Debug, Clone)]
pub struct ButterflyParams {
    /// Per-link capacity in bps.
    pub link_bps: f64,
    /// Link delays.
    pub delays: ButterflyDelays,
    /// Generation layout.
    pub generation: GenerationConfig,
    /// Redundancy policy at the source.
    pub redundancy: RedundancyPolicy,
    /// Middle node codes (true) or merely forwards (false).
    pub coding: bool,
    /// Source emits systematic blocks (the non-NC source).
    pub systematic_source: bool,
    /// Loss model applied on the bottleneck T→V2.
    pub bottleneck_loss: LossModel,
    /// CPU cost model at the relays (drives Fig. 4).
    pub cost: CodingCostModel,
    /// Relay buffer capacity in generations (drives Fig. 5).
    pub buffer_generations: usize,
    /// Bytes of the transferred object.
    pub object_len: usize,
    /// Fraction of theoretical capacity the source offers (0–1+).
    pub offered_fraction: f64,
    /// Drop-tail queue per link, bytes.
    pub queue_bytes: usize,
    /// Rate-match the coding point's emissions to its planned outgoing
    /// flow (true, default) or use the paper's literal pipelined
    /// one-output-per-input rule (false) — see DESIGN.md note 1.
    pub rate_matched: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ButterflyParams {
    fn default() -> Self {
        ButterflyParams {
            link_bps: LINK_BPS,
            delays: ButterflyDelays::default(),
            generation: GenerationConfig::paper_default(),
            redundancy: RedundancyPolicy::NC0,
            coding: true,
            systematic_source: false,
            bottleneck_loss: LossModel::None,
            cost: CodingCostModel::default_calibration(),
            buffer_generations: 1024,
            object_len: 20_000_000,
            offered_fraction: 0.95,
            queue_bytes: 64 * 1024,
            rate_matched: true,
            seed: 1,
        }
    }
}

/// Handles into a built butterfly simulation.
pub struct ButterflySim {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Source node.
    pub src: SimNodeId,
    /// Receiver 1 (Oregon).
    pub r1: SimNodeId,
    /// Receiver 2 (California).
    pub r2: SimNodeId,
    /// The bottleneck link T→V2.
    pub bottleneck: LinkId,
    /// Generations in the object.
    pub generations: u64,
}

/// Builds the butterfly per `params`.
pub fn build(params: &ButterflyParams) -> ButterflySim {
    let cfg = params.generation;
    let mut sim = Simulator::new(params.seed);

    let src_id = SimNodeId(0);
    let o1_id = SimNodeId(1);
    let c1_id = SimNodeId(2);
    let t_id = SimNodeId(3);
    let v2_id = SimNodeId(4);
    let r1_id = SimNodeId(5);
    let r2_id = SimNodeId(6);

    let source_cfg = SourceConfig {
        session: SESSION,
        config: cfg,
        redundancy: params.redundancy,
        rate_bps: 2.0 * params.link_bps * params.offered_fraction,
        next_hops: vec![
            Addr::new(o1_id, NC_DATA_PORT),
            Addr::new(c1_id, NC_DATA_PORT),
        ],
        cost: params.cost,
        systematic_only: params.systematic_source,
    };
    let source = ObjectSource::synthetic(source_cfg, params.object_len, params.seed ^ 0x5EED);
    let generations = source.generations();
    let src = sim.add_node("V1", source);

    let vnf_node = |role: VnfRole, hops: Vec<Addr>| {
        let mut vnf = CodingVnf::new(cfg, params.buffer_generations);
        vnf.set_role(SESSION, role);
        let mut node = VnfNode::new(vnf, params.cost);
        node.set_next_hops(SESSION, hops);
        node
    };
    let o1 = sim.add_node(
        "O1",
        vnf_node(
            VnfRole::Forwarder,
            vec![
                Addr::new(r1_id, NC_DATA_PORT),
                Addr::new(t_id, NC_DATA_PORT),
            ],
        ),
    );
    let c1 = sim.add_node(
        "C1",
        vnf_node(
            VnfRole::Forwarder,
            vec![
                Addr::new(r2_id, NC_DATA_PORT),
                Addr::new(t_id, NC_DATA_PORT),
            ],
        ),
    );
    let t = sim.add_node("T", {
        let mut node = vnf_node(
            if params.coding {
                VnfRole::Recoder
            } else {
                VnfRole::Forwarder
            },
            vec![Addr::new(v2_id, NC_DATA_PORT)],
        );
        if params.coding && params.rate_matched {
            // The conceptual-flow solution: T receives 2C worth of flow
            // but owns a C-capacity egress, so it emits one (high-rank)
            // combination per 1/(2·offered) inputs instead of flooding
            // its queue with low-rank combos that would be dropped.
            node.set_emit_ratio(SESSION, 1.0 / (2.0 * params.offered_fraction));
        }
        node
    });
    let v2 = sim.add_node(
        "V2",
        vnf_node(
            VnfRole::Forwarder,
            vec![
                Addr::new(r1_id, NC_DATA_PORT),
                Addr::new(r2_id, NC_DATA_PORT),
            ],
        ),
    );
    let feedback = Addr::new(src_id, NC_FEEDBACK_PORT);
    let r1 = sim.add_node(
        "O2",
        ReceiverNode::new(
            SESSION,
            cfg,
            generations,
            feedback,
            SimDuration::from_secs(1),
        ),
    );
    let r2 = sim.add_node(
        "C2",
        ReceiverNode::new(
            SESSION,
            cfg,
            generations,
            feedback,
            SimDuration::from_secs(1),
        ),
    );

    let d = &params.delays;
    let link = |bps: f64, ms: f64| {
        LinkConfig::new(bps, SimDuration::from_secs_f64(ms / 1000.0))
            .with_queue_bytes(params.queue_bytes)
    };
    sim.add_link(src, o1, link(params.link_bps, d.v1_o1));
    sim.add_link(src, c1, link(params.link_bps, d.v1_c1));
    sim.add_link(o1, r1, link(params.link_bps, d.o1_o2));
    sim.add_link(c1, r2, link(params.link_bps, d.c1_c2));
    sim.add_link(o1, t, link(params.link_bps, d.o1_t));
    sim.add_link(c1, t, link(params.link_bps, d.c1_t));
    let bottleneck = sim.add_link(
        t,
        v2,
        link(params.link_bps, d.t_v2).with_loss(params.bottleneck_loss.clone()),
    );
    sim.add_link(v2, r1, link(params.link_bps, d.v2_o2));
    sim.add_link(v2, r2, link(params.link_bps, d.v2_c2));
    // Feedback straight back to the source (the paper lets receivers ack
    // the source directly).
    sim.add_link(r1, src, link(params.link_bps, d.direct_o2));
    sim.add_link(r2, src, link(params.link_bps, d.direct_c2));

    ButterflySim {
        sim,
        src,
        r1,
        r2,
        bottleneck,
        generations,
    }
}

/// Result of a timed butterfly run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Session throughput per 1-second bin, Mbps: the min over receivers
    /// of innovative goodput (the session rate is the minimum receiver
    /// rate).
    pub throughput_series_mbps: Vec<f64>,
    /// Mean steady-state throughput (Mbps), excluding warmup/teardown.
    pub steady_mbps: f64,
    /// Receiver 1 completion time (s), if it finished.
    pub r1_done: Option<f64>,
    /// Receiver 2 completion time (s), if it finished.
    pub r2_done: Option<f64>,
    /// NACKs sent by both receivers.
    pub nacks: u64,
}

/// Runs the butterfly for `secs` of simulated time and extracts goodput.
pub fn run_for(params: &ButterflyParams, secs: u64) -> RunOutcome {
    let mut b = build(params);
    b.sim.run_until(SimTime::from_secs(secs));
    let rx1 = b.sim.node_as::<ReceiverNode>(b.r1).expect("receiver 1");
    let rx2 = b.sim.node_as::<ReceiverNode>(b.r2).expect("receiver 2");
    let s1 = rx1.goodput().mbps();
    let s2 = rx2.goodput().mbps();
    let bins = s1.len().max(s2.len());
    let mut series = Vec::with_capacity(bins);
    for i in 0..bins {
        let a = s1.get(i).map(|&(_, v)| v).unwrap_or(0.0);
        let b2 = s2.get(i).map(|&(_, v)| v).unwrap_or(0.0);
        series.push(a.min(b2));
    }
    // Steady state: skip the first 2 bins (slow start of the pipeline)
    // and any trailing bins after either receiver finished.
    let done1 = rx1.completed_at().map(|t| t.as_secs_f64());
    let done2 = rx2.completed_at().map(|t| t.as_secs_f64());
    let cutoff = [done1, done2]
        .iter()
        .flatten()
        .fold(secs as f64, |acc, &t| acc.min(t))
        .floor() as usize;
    let lo = 2.min(series.len());
    let hi = cutoff.min(series.len()).max(lo);
    let steady = if hi > lo {
        series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    } else {
        0.0
    };
    RunOutcome {
        steady_mbps: steady,
        throughput_series_mbps: series,
        r1_done: done1,
        r2_done: done2,
        nacks: rx1.nacks_sent() + rx2.nacks_sent(),
    }
}

/// The butterfly as a flow graph with capacities in Mbps: the graph, the
/// source and the two receivers.
fn flow_graph(link_bps: f64) -> (Graph, NodeId, [NodeId; 2]) {
    let mut g = Graph::new();
    let v1 = g.add_node("V1");
    let o1 = g.add_node("O1");
    let c1 = g.add_node("C1");
    let t = g.add_node("T");
    let v2 = g.add_node("V2");
    let o2 = g.add_node("O2");
    let c2 = g.add_node("C2");
    let cap = link_bps / 1e6;
    for (a, b) in [
        (v1, o1),
        (v1, c1),
        (o1, o2),
        (c1, c2),
        (o1, t),
        (c1, t),
        (t, v2),
        (v2, o2),
        (v2, c2),
    ] {
        g.add_edge(a, b, cap, 1.0).expect("valid edge");
    }
    (g, v1, [o2, c2])
}

/// The theoretical multicast capacity of the butterfly via max-flow
/// (Ford–Fulkerson): 69.9 Mbps at the paper's link capacities.
pub fn theoretical_capacity_mbps(link_bps: f64) -> f64 {
    let (g, source, receivers) = flow_graph(link_bps);
    multicast::coded_capacity(&g, source, &receivers)
}

/// The best any routing-only scheme reaches on the butterfly (optimal
/// Steiner-tree packing): 52.4 Mbps at the paper's link capacities.
pub fn routing_capacity_mbps(link_bps: f64) -> f64 {
    let (g, source, receivers) = flow_graph(link_bps);
    multicast::routing_capacity(&g, source, &receivers, 512).expect("tree packing solves")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_capacity_matches_paper() {
        let cap = theoretical_capacity_mbps(LINK_BPS);
        assert!((cap - 69.9).abs() < 1e-6, "capacity {cap}");
    }

    #[test]
    fn quick_run_reaches_most_of_capacity() {
        let params = ButterflyParams {
            object_len: 140_000_000,
            ..Default::default()
        };
        let out = run_for(&params, 12);
        let cap = theoretical_capacity_mbps(LINK_BPS);
        assert!(
            out.steady_mbps > 0.80 * cap,
            "steady {} of cap {cap}",
            out.steady_mbps
        );
        assert!(out.steady_mbps <= cap * 1.02);
    }

    #[test]
    fn non_coding_run_is_slower() {
        let nc = run_for(
            &ButterflyParams {
                object_len: 140_000_000,
                ..Default::default()
            },
            12,
        );
        let plain = run_for(
            &ButterflyParams {
                object_len: 140_000_000,
                coding: false,
                systematic_source: true,
                ..Default::default()
            },
            12,
        );
        assert!(
            plain.steady_mbps < nc.steady_mbps * 0.92,
            "non-NC {} vs NC {}",
            plain.steady_mbps,
            nc.steady_mbps
        );
    }
}
