//! Turning deployment decisions into control signals.
//!
//! "In the presence of system dynamics, the controller adjusts coding
//! function deployment on the fly, i.e., updating the forwarding tables,
//! terminating existing coding functions and launching new ones"
//! (Sec. III-A). This module derives the forwarding tables a deployment
//! gives every node; [`ForwardingTable::diff`] of what a node holds
//! against its planned table is the push that updates it, withdrawals
//! included. Launching and terminating are the autoscaler's arming and
//! draining (`crate::autoscale`).

use std::collections::HashMap;

use ncvnf_deploy::model::{SessionSpec, Topology};
use ncvnf_deploy::Deployment;
use ncvnf_flowgraph::NodeId;

use crate::fwdtab::ForwardingTable;

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

    /// The pushes that take nodes holding `from` to `to`, per node.
    fn pushes(
        from: &HashMap<NodeId, ForwardingTable>,
        to: &HashMap<NodeId, ForwardingTable>,
    ) -> HashMap<NodeId, ForwardingTable> {
        let empty = ForwardingTable::new();
        let nodes: Vec<NodeId> = from.keys().chain(to.keys()).copied().collect();
        nodes
            .into_iter()
            .map(|n| {
                let held = from.get(&n).unwrap_or(&empty);
                (n, held.diff(to.get(&n).unwrap_or(&empty), false))
            })
            .filter(|(_, push)| !push.is_empty())
            .collect()
    }

    #[test]
    fn initial_push_carries_every_planned_table() {
        let (topo, sessions, dep) = setup();
        let tables = tables_from_deployment(&topo, &sessions, &dep, &addr);
        assert!(!tables.is_empty());
        assert_eq!(pushes(&HashMap::new(), &tables), tables);
    }

    #[test]
    fn identical_deployments_need_no_signals() {
        let (topo, sessions, dep) = setup();
        let tables = tables_from_deployment(&topo, &sessions, &dep, &addr);
        assert!(pushes(&tables, &tables).is_empty());
    }

    #[test]
    fn scale_in_withdraws_every_route() {
        let (topo, sessions, dep) = setup();
        let mut shrunk = dep.clone();
        for count in shrunk.vnfs.values_mut() {
            *count = 0;
        }
        shrunk.edge_rates = vec![HashMap::new(); sessions.len()];
        let before = tables_from_deployment(&topo, &sessions, &dep, &addr);
        let after = tables_from_deployment(&topo, &sessions, &shrunk, &addr);
        assert!(after.is_empty(), "the shrunk plan routes nothing");
        let pushes = pushes(&before, &after);
        assert_eq!(pushes.len(), before.len(), "every routing node is told");
        for (node, push) in pushes {
            let mut held = before[&node].clone();
            assert_eq!(held.merge(&push), before[&node].len());
            assert!(held.is_empty(), "{} keeps a route", topo.label(node));
        }
    }
}
