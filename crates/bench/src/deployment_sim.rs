//! From plan to packets: instantiates an optimizer [`Deployment`] as a
//! running packet-level simulation.
//!
//! This is the end-to-end closure of the system: the controller's LP
//! decides VNF counts, routes and rates; this module builds the
//! corresponding simulated network — one [`VnfNode`] per planned instance,
//! per-generation dispatch across instances, forwarding next hops and
//! coding-point emit ratios derived from the conceptual-flow solution,
//! sources paced at their planned outgoing rates with weighted splits —
//! and the receivers' measured goodput can then be checked against the
//! planner's λ.

use std::collections::HashMap;

use ncvnf_dataplane::{
    CodingCostModel, CodingVnf, NextHop, ObjectSource, ReceiverNode, SourceConfig, VnfNode,
    VnfRole, NC_DATA_PORT, NC_FEEDBACK_PORT,
};
use ncvnf_deploy::model::{SessionSpec, Topology};
use ncvnf_deploy::Deployment;
use ncvnf_flowgraph::NodeId;
use ncvnf_netsim::{Addr, LinkConfig, SimDuration, SimNodeId, Simulator};
use ncvnf_rlnc::{GenerationConfig, RedundancyPolicy};

/// Options for the instantiation.
#[derive(Debug, Clone)]
pub struct InstantiateOptions {
    /// Generation layout for every session.
    pub generation: GenerationConfig,
    /// Redundancy at the sources.
    pub redundancy: RedundancyPolicy,
    /// Object bytes per session (sized to outlast the run).
    pub object_len: usize,
    /// Link capacity headroom over the planned flow (e.g. 1.15).
    pub headroom: f64,
    /// Simulator seed.
    pub seed: u64,
}

impl Default for InstantiateOptions {
    fn default() -> Self {
        InstantiateOptions {
            generation: GenerationConfig::paper_default(),
            redundancy: RedundancyPolicy::NC0,
            object_len: 50_000_000,
            headroom: 1.15,
            seed: 9,
        }
    }
}

/// A deployment turned into a live simulation.
pub struct DeployedSim {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Source node per session.
    pub sources: Vec<SimNodeId>,
    /// Receiver nodes per session (aligned with `SessionSpec::receivers`).
    pub receivers: Vec<Vec<SimNodeId>>,
    /// VNF instance nodes per data center.
    pub instances: HashMap<NodeId, Vec<SimNodeId>>,
}

/// Builds the simulation for `dep` over `topo`/`sessions`.
///
/// # Panics
///
/// Panics if the deployment's flows reference edges missing from the
/// topology (cannot happen for deployments produced by the planner).
pub fn instantiate(
    topo: &Topology,
    sessions: &[SessionSpec],
    dep: &Deployment,
    opts: &InstantiateOptions,
) -> DeployedSim {
    let mut sim = Simulator::new(opts.seed);
    let cfg = opts.generation;

    // --- Pass 1: reserve simulator ids (sources, receivers, instances).
    // Sources and receivers are per-session; instances per DC.
    // Reservation must match creation order: all sources, then all
    // receivers, then all instances.
    let mut next_id = 0usize;
    let mut source_ids = Vec::with_capacity(sessions.len());
    for _ in sessions {
        source_ids.push(SimNodeId(next_id));
        next_id += 1;
    }
    let mut receiver_ids: Vec<Vec<SimNodeId>> = Vec::with_capacity(sessions.len());
    for s in sessions {
        let rx: Vec<SimNodeId> = s
            .receivers
            .iter()
            .map(|_| {
                let id = SimNodeId(next_id);
                next_id += 1;
                id
            })
            .collect();
        receiver_ids.push(rx);
    }
    let mut instance_ids: HashMap<NodeId, Vec<SimNodeId>> = HashMap::new();
    let mut dcs: Vec<NodeId> = topo.data_centers();
    dcs.sort();
    for &dc in &dcs {
        let n = *dep.vnfs.get(&dc).unwrap_or(&0);
        let ids: Vec<SimNodeId> = (0..n)
            .map(|_| {
                let id = SimNodeId(next_id);
                next_id += 1;
                id
            })
            .collect();
        instance_ids.insert(dc, ids);
    }

    // Maps a topology node to its logical sim next hop for a session.
    let sim_hop = |node: NodeId, m: usize| -> Option<NextHop> {
        if let Some(instances) = instance_ids.get(&node) {
            if instances.is_empty() {
                return None;
            }
            return Some(NextHop::Instances(
                instances
                    .iter()
                    .map(|&i| Addr::new(i, NC_DATA_PORT))
                    .collect(),
            ));
        }
        // A receiver of session m?
        let s = &sessions[m];
        s.receivers
            .iter()
            .position(|&r| r == node)
            .map(|k| NextHop::Unicast(Addr::new(receiver_ids[m][k], NC_DATA_PORT)))
    };

    // --- Pass 2: create source nodes with weighted splits.
    for (m, s) in sessions.iter().enumerate() {
        // Outgoing planned flows of this source.
        let mut out: Vec<(NodeId, f64)> = dep.edge_rates[m]
            .iter()
            .filter(|(&e, &r)| r > 0.0 && topo.graph.edge(e).from == s.source)
            .map(|(&e, &r)| (topo.graph.edge(e).to, r))
            .collect();
        out.sort_by_key(|&(n, _)| n);
        let total_out: f64 = out.iter().map(|&(_, r)| r).sum();
        // Weight-expand into a rotation schedule of ~24 slots.
        let mut hops = Vec::new();
        for &(node, rate) in &out {
            let slots = ((rate / total_out.max(1.0)) * 24.0).round().max(1.0) as usize;
            if let Some(hop) = sim_hop(node, m) {
                for _ in 0..slots {
                    // ObjectSource rotates over flat addresses; resolve
                    // instance groups here per slot (generation affinity
                    // is preserved downstream at forwarding VNFs; at the
                    // source each packet picks a fresh instance, which is
                    // fine because the source emits *coded* packets).
                    match &hop {
                        NextHop::Unicast(a) => hops.push(*a),
                        NextHop::Instances(addrs) => hops.push(addrs[hops.len() % addrs.len()]),
                    }
                }
            }
        }
        assert!(!hops.is_empty(), "session {m} has no planned outgoing flow");
        let source = ObjectSource::synthetic(
            SourceConfig {
                session: s.id,
                config: cfg,
                redundancy: opts.redundancy,
                // Wire rate: planned payload flow plus header overhead.
                rate_bps: total_out * (cfg.packet_len() as f64 + 28.0) / cfg.block_size() as f64,
                next_hops: hops,
                cost: CodingCostModel::free(),
                systematic_only: false,
            },
            opts.object_len,
            opts.seed ^ (m as u64) << 8,
        );
        let id = sim.add_node(format!("src{m}"), source);
        assert_eq!(id, source_ids[m]);
    }

    // --- Pass 3: receivers.
    for (m, s) in sessions.iter().enumerate() {
        let generations = (opts.object_len + 8).div_ceil(cfg.generation_payload()) as u64;
        for (k, _) in s.receivers.iter().enumerate() {
            let rx = ReceiverNode::new(
                s.id,
                cfg,
                generations,
                Addr::new(source_ids[m], NC_FEEDBACK_PORT),
                SimDuration::from_secs(1),
            );
            let id = sim.add_node(format!("rx{m}_{k}"), rx);
            assert_eq!(id, receiver_ids[m][k]);
        }
    }

    // --- Pass 4: VNF instances with roles, tables and emit ratios.
    for &dc in &dcs {
        for (i, &sim_id) in instance_ids[&dc].iter().enumerate() {
            let mut vnf = CodingVnf::new(cfg, 1024);
            let mut node_hops: Vec<(ncvnf_rlnc::SessionId, Vec<(NextHop, f64)>)> = Vec::new();
            for (m, s) in sessions.iter().enumerate() {
                let inflow: f64 = dep.edge_rates[m]
                    .iter()
                    .filter(|(&e, _)| topo.graph.edge(e).to == dc)
                    .map(|(_, &r)| r)
                    .sum();
                if inflow <= 0.0 {
                    continue;
                }
                // Per-head emission rate from the plan: f(dc→head)/inflow.
                let mut head_flow: HashMap<NodeId, f64> = HashMap::new();
                for (&e, &r) in &dep.edge_rates[m] {
                    if r > 0.0 && topo.graph.edge(e).from == dc {
                        *head_flow.entry(topo.graph.edge(e).to).or_insert(0.0) += r;
                    }
                }
                let mut heads: Vec<(NodeId, f64)> = head_flow.into_iter().collect();
                heads.sort_by_key(|&(n, _)| n);
                let outs: Vec<(NextHop, f64)> = heads
                    .into_iter()
                    .filter_map(|(h, flow)| {
                        sim_hop(h, m).map(|hop| (hop, (flow / inflow).min(1.0)))
                    })
                    .collect();
                if !outs.is_empty() {
                    vnf.set_role(s.id, VnfRole::Recoder);
                    node_hops.push((s.id, outs));
                }
            }
            let mut node = VnfNode::new(vnf, CodingCostModel::default_calibration());
            for (session, hops) in node_hops {
                node.set_weighted_next_hops(session, hops);
            }
            let id = sim.add_node(format!("{}#{i}", topo.label(dc)), node);
            assert_eq!(id, sim_id);
        }
    }

    // --- Pass 5: links. One sim link per (entity pair) that some session
    // flow uses, sized to the summed planned flow times headroom.
    // A coding VNF duplicates every emission to all of its next hops, so
    // its per-hop send rate equals its *largest* out-edge flow, not the
    // per-edge planned flow (the real constraint is the per-VM egress
    // cap, which the plan respects; per-link caps are an artifact of the
    // simulator). Size instance egress links accordingly.
    let mut dc_dup_rate: HashMap<(NodeId, usize), f64> = HashMap::new();
    for (m, _) in sessions.iter().enumerate() {
        for &dc in &dcs {
            let max_out = dep.edge_rates[m]
                .iter()
                .filter(|(&e, _)| topo.graph.edge(e).from == dc)
                .map(|(_, &r)| r)
                .fold(0.0f64, f64::max);
            if max_out > 0.0 {
                dc_dup_rate.insert((dc, m), max_out);
            }
        }
    }
    let mut pair_flow: HashMap<(SimNodeId, SimNodeId), (f64, f64)> = HashMap::new();
    for (m, s) in sessions.iter().enumerate() {
        for (&e, &rate) in &dep.edge_rates[m] {
            if rate <= 0.0 {
                continue;
            }
            let edge = topo.graph.edge(e);
            let (froms, carried): (Vec<SimNodeId>, f64) = if edge.from == s.source {
                (vec![source_ids[m]], rate)
            } else {
                (
                    instance_ids.get(&edge.from).cloned().unwrap_or_default(),
                    // Duplication: this pair carries the DC's max out-edge
                    // flow for the session.
                    dc_dup_rate.get(&(edge.from, m)).copied().unwrap_or(rate),
                )
            };
            let tos: Vec<SimNodeId> = if let Some(inst) = instance_ids.get(&edge.to) {
                inst.clone()
            } else if let Some(k) = s.receivers.iter().position(|&r| r == edge.to) {
                vec![receiver_ids[m][k]]
            } else {
                Vec::new()
            };
            for &f in &froms {
                for &t in &tos {
                    let entry = pair_flow.entry((f, t)).or_insert((0.0, edge.delay));
                    entry.0 += carried;
                }
            }
        }
    }
    let mut pairs: Vec<((SimNodeId, SimNodeId), (f64, f64))> = pair_flow.into_iter().collect();
    pairs.sort_by_key(|&((a, b), _)| (a, b));
    for ((from, to), (flow, delay_ms)) in pairs {
        let wire = flow * (cfg.packet_len() as f64 + 28.0) / cfg.block_size() as f64;
        sim.add_link(
            from,
            to,
            LinkConfig::new(
                (wire * opts.headroom).max(1e6),
                SimDuration::from_secs_f64(delay_ms / 1000.0),
            )
            .with_queue_bytes(64 * 1024),
        );
    }
    // Feedback: receivers straight back to their source.
    for (m, rx) in receiver_ids.iter().enumerate() {
        for &r in rx {
            sim.add_link(
                r,
                source_ids[m],
                LinkConfig::new(100e6, SimDuration::from_millis(40)),
            );
        }
    }

    DeployedSim {
        sim,
        sources: source_ids,
        receivers: receiver_ids,
        instances: instance_ids,
    }
}

/// Runs the instantiated deployment for `secs` and returns the measured
/// per-session goodput (min over receivers, Mbps, steady bins).
///
/// # Panics
///
/// Panics if a receiver's window — from 2 s to `secs` or to when its
/// object finished, whichever is first — holds no bin.
pub fn measure_goodput(deployed: &mut DeployedSim, secs: u64) -> Vec<f64> {
    deployed
        .sim
        .run_until(ncvnf_netsim::SimTime::from_secs(secs));
    let mut out = Vec::new();
    for rx_ids in &deployed.receivers {
        let mut session_min = f64::INFINITY;
        for &rx in rx_ids {
            let r = deployed
                .sim
                .node_as::<ReceiverNode>(rx)
                .expect("receiver node");
            let series = r.goodput().mbps();
            // Exclude warmup and anything after the object finished
            // (post-completion bins are structurally zero).
            let lo = 2;
            let hi = r
                .completed_at()
                .map(|t| t.as_secs_f64().floor() as usize)
                .unwrap_or(series.len())
                .min(series.len());
            assert!(
                hi > lo,
                "receiver {rx:?}: measurement window [{lo}, {hi}) s is empty \
                 (object done at {:?}, {} bins); size the object to outlast the run",
                r.completed_at(),
                series.len()
            );
            let mean = series[lo..hi].iter().map(|&(_, v)| v).sum::<f64>() / (hi - lo) as f64;
            session_min = session_min.min(mean);
        }
        out.push(if session_min.is_finite() {
            session_min
        } else {
            0.0
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_deploy::presets::random_workload;
    use ncvnf_deploy::Planner;

    #[test]
    fn planned_rates_are_achieved_at_packet_level() {
        // Plan two sessions, instantiate the plan, and verify the
        // packet-level goodput reaches most of the planner's lambda.
        let w = random_workload(2, 100e6, 150.0, 3);
        let planner = Planner::new();
        let dep = planner.plan(&w.topology, &w.sessions, 20e6).unwrap();
        let mut deployed = instantiate(
            &w.topology,
            &w.sessions,
            &dep,
            &InstantiateOptions {
                object_len: 40_000_000,
                ..Default::default()
            },
        );
        let goodput = measure_goodput(&mut deployed, 10);
        for (m, &g) in goodput.iter().enumerate() {
            let planned = dep.rates[m] / 1e6;
            assert!(
                g > 0.7 * planned,
                "session {m}: measured {g:.1} Mbps vs planned {planned:.1} Mbps"
            );
            assert!(
                g < 1.1 * planned + 1.0,
                "session {m}: measured {g:.1} exceeds planned {planned:.1}"
            );
        }
    }
}
