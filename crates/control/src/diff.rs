//! Turning deployment decisions into control signals.
//!
//! "In the presence of system dynamics, the controller adjusts coding
//! function deployment on the fly, i.e., updating the forwarding tables,
//! terminating existing coding functions and launching new ones"
//! (Sec. III-A). This module diffs two deployments and produces exactly
//! those three kinds of work.

use std::collections::HashMap;

use ncvnf_deploy::model::{SessionSpec, Topology};
use ncvnf_deploy::Deployment;
use ncvnf_flowgraph::NodeId;

use crate::fwdtab::ForwardingTable;
use crate::signal::Signal;

/// The signal batch that morphs one deployment into another.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignalPlan {
    /// `NC_VNF_START` work: (data center, additional instances).
    pub launches: Vec<(NodeId, u32)>,
    /// `NC_VNF_END` work: (data center, instances to drain).
    pub terminations: Vec<(NodeId, u32)>,
    /// `NC_FORWARD_TAB` work: nodes whose tables changed, with the new
    /// table.
    pub table_updates: Vec<(NodeId, ForwardingTable)>,
}

impl SignalPlan {
    /// True when nothing needs to change.
    pub fn is_empty(&self) -> bool {
        self.launches.is_empty() && self.terminations.is_empty() && self.table_updates.is_empty()
    }

    /// Renders the plan as concrete signals, using `tau_secs` for
    /// terminations and data-center labels from the topology.
    pub fn to_signals(&self, topo: &Topology, tau_secs: u32) -> Vec<Signal> {
        let mut out = Vec::new();
        for &(dc, count) in &self.launches {
            out.push(Signal::NcVnfStart {
                data_center: topo.label(dc).to_owned(),
                count,
            });
        }
        for &(_, count) in &self.terminations {
            for _ in 0..count {
                out.push(Signal::NcVnfEnd { tau_secs });
            }
        }
        for (_, table) in &self.table_updates {
            out.push(Signal::NcForwardTab {
                table: table.to_text(),
            });
        }
        out
    }
}

/// Derives every node's forwarding table from a deployment's edge flows:
/// node `u` forwards session `m` to the heads of all edges `(u, v)` that
/// carry positive session-`m` flow. `addr_of` renders a node into the
/// address string daemons understand.
pub fn tables_from_deployment(
    topo: &Topology,
    sessions: &[SessionSpec],
    dep: &Deployment,
    addr_of: &dyn Fn(NodeId) -> String,
) -> HashMap<NodeId, ForwardingTable> {
    let mut tables: HashMap<NodeId, ForwardingTable> = HashMap::new();
    for (m, session) in sessions.iter().enumerate() {
        let Some(edges) = dep.edge_rates.get(m) else {
            continue;
        };
        let mut hops_of: HashMap<NodeId, Vec<String>> = HashMap::new();
        for (&e, &rate) in edges {
            if rate <= 0.0 {
                continue;
            }
            let edge = topo.graph.edge(e);
            hops_of.entry(edge.from).or_default().push(addr_of(edge.to));
        }
        for (node, mut hops) in hops_of {
            hops.sort();
            hops.dedup();
            tables.entry(node).or_default().set(session.id, hops);
        }
    }
    tables
}

/// Diffs VNF counts and forwarding tables between two deployments.
pub fn plan_signals(
    topo: &Topology,
    sessions: &[SessionSpec],
    old: Option<&Deployment>,
    new: &Deployment,
    addr_of: &dyn Fn(NodeId) -> String,
) -> SignalPlan {
    let mut plan = SignalPlan::default();
    for dc in topo.data_centers() {
        let before = old.map(|d| *d.vnfs.get(&dc).unwrap_or(&0)).unwrap_or(0);
        let after = *new.vnfs.get(&dc).unwrap_or(&0);
        use std::cmp::Ordering;
        match after.cmp(&before) {
            Ordering::Greater => plan.launches.push((dc, (after - before) as u32)),
            Ordering::Less => plan.terminations.push((dc, (before - after) as u32)),
            Ordering::Equal => {}
        }
    }
    let new_tables = tables_from_deployment(topo, sessions, new, addr_of);
    let old_tables = old
        .map(|d| tables_from_deployment(topo, sessions, d, addr_of))
        .unwrap_or_default();
    let mut nodes: Vec<NodeId> = new_tables.keys().copied().collect();
    for n in old_tables.keys() {
        if !new_tables.contains_key(n) {
            nodes.push(*n);
        }
    }
    nodes.sort();
    nodes.dedup();
    for node in nodes {
        let empty = ForwardingTable::new();
        let new_t = new_tables.get(&node).unwrap_or(&empty);
        let old_t = old_tables.get(&node).unwrap_or(&empty);
        if new_t != old_t {
            plan.table_updates.push((node, new_t.clone()));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_deploy::{Planner, SessionSpec};

    fn setup() -> (Topology, Vec<SessionSpec>, Deployment) {
        let w = ncvnf_deploy::presets::random_workload(2, 920e6, 150.0, 3);
        let planner = Planner::new();
        let dep = planner.plan(&w.topology, &w.sessions, 20e6).unwrap();
        (w.topology, w.sessions, dep)
    }

    fn addr(n: NodeId) -> String {
        format!("10.0.{}.1:4000", n.0)
    }

    #[test]
    fn tables_route_every_session_from_its_source() {
        let (topo, sessions, dep) = setup();
        let tables = tables_from_deployment(&topo, &sessions, &dep, &addr);
        for (m, s) in sessions.iter().enumerate() {
            if dep.rates[m] > 0.0 {
                let t = tables.get(&s.source).expect("source has a table");
                assert!(t.next_hops(s.id).is_some(), "source routes session");
            }
        }
    }

    #[test]
    fn initial_plan_launches_everything() {
        let (topo, sessions, dep) = setup();
        let plan = plan_signals(&topo, &sessions, None, &dep, &addr);
        let launched: u64 = plan.launches.iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(launched, dep.total_vnfs());
        assert!(plan.terminations.is_empty());
        assert!(!plan.table_updates.is_empty());
        let signals = plan.to_signals(&topo, 600);
        assert_eq!(
            signals.len(),
            plan.launches.len() + plan.table_updates.len()
        );
    }

    #[test]
    fn identical_deployments_need_no_signals() {
        let (topo, sessions, dep) = setup();
        let plan = plan_signals(&topo, &sessions, Some(&dep), &dep, &addr);
        assert!(plan.is_empty());
    }

    #[test]
    fn scale_in_emits_vnf_end() {
        let (topo, sessions, dep) = setup();
        let mut shrunk = dep.clone();
        for count in shrunk.vnfs.values_mut() {
            *count = 0;
        }
        shrunk.edge_rates = vec![HashMap::new(); sessions.len()];
        let plan = plan_signals(&topo, &sessions, Some(&dep), &shrunk, &addr);
        let ended: u64 = plan.terminations.iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(ended, dep.total_vnfs());
        let signals = plan.to_signals(&topo, 600);
        let ends = signals
            .iter()
            .filter(|s| matches!(s, Signal::NcVnfEnd { tau_secs: 600 }))
            .count() as u64;
        assert_eq!(ends, dep.total_vnfs());
    }
}
