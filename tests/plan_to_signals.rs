//! Cross-crate integration: optimizer → control plane → daemons.
//!
//! Plans a deployment, derives every node's forwarding table, diffs what
//! each node holds against it into `NC_FORWARD_TAB` pushes, round-trips
//! them over the wire codec, feeds them to daemons, and checks the daemons
//! end up with forwarding state consistent with the plan.

use std::collections::HashMap;

use ncvnf::control::daemon::{Daemon, DaemonState};
use ncvnf::control::diff::tables_from_deployment;
use ncvnf::control::fwdtab::ForwardingTable;
use ncvnf::control::signal::Signal;
use ncvnf::deploy::presets::random_workload;
use ncvnf::deploy::{Deployment, Planner};
use ncvnf::flowgraph::NodeId;

fn addr(n: NodeId) -> String {
    format!("10.1.{}.1:4000", n.0)
}

/// The push that takes a node holding `held` to `planned`, over the wire.
fn push(held: &ForwardingTable, planned: Option<&ForwardingTable>) -> Signal {
    let sig = Signal::NcForwardTab {
        table: held
            .diff(planned.unwrap_or(&ForwardingTable::new()), false)
            .to_text(),
    };
    let wire = sig.to_bytes();
    let (decoded, used) = Signal::from_bytes(&wire).unwrap();
    assert_eq!(used, wire.len());
    decoded
}

#[test]
fn deployment_becomes_consistent_daemon_state() {
    let w = random_workload(3, 920e6, 150.0, 17);
    let planner = Planner::new();
    let dep = planner.plan(&w.topology, &w.sessions, 20e6).unwrap();
    assert!(dep.total_rate_bps() > 0.0);
    let tables = tables_from_deployment(&w.topology, &w.sessions, &dep, &addr);
    assert!(!tables.is_empty());

    // Initial rollout: every node with a table gets all of it.
    for (node, expected) in &tables {
        let mut daemon = Daemon::new();
        let event = daemon.handle(&push(&ForwardingTable::new(), Some(expected)));
        assert!(
            matches!(event, Ok(Some(_))),
            "table update must produce events"
        );
        // The daemon's live table matches what the planner derived.
        assert_eq!(daemon.table(), expected, "{}", w.topology.label(*node));
    }
}

/// `dep` with every flow into or out of `node` removed.
fn without(dep: &Deployment, topo: &ncvnf::deploy::model::Topology, node: NodeId) -> Deployment {
    let mut dropped = dep.clone();
    for edges in &mut dropped.edge_rates {
        edges.retain(|&e, _| {
            let edge = topo.graph.edge(e);
            edge.from != node && edge.to != node
        });
    }
    dropped
}

#[test]
fn a_node_the_new_plan_drops_is_withdrawn_and_ends_empty() {
    let w = random_workload(3, 920e6, 150.0, 17);
    let dep = Planner::new().plan(&w.topology, &w.sessions, 20e6).unwrap();
    let before = tables_from_deployment(&w.topology, &w.sessions, &dep, &addr);
    let dc = *w
        .topology
        .data_centers()
        .iter()
        .find(|dc| before.contains_key(dc))
        .expect("a data center carries flow");
    let after = tables_from_deployment(
        &w.topology,
        &w.sessions,
        &without(&dep, &w.topology, dc),
        &addr,
    );
    assert!(!after.contains_key(&dc), "the new plan gives it no table");
    let mut daemon = Daemon::new();
    daemon
        .handle(&push(&ForwardingTable::new(), before.get(&dc)))
        .unwrap();
    assert_eq!(daemon.table(), &before[&dc]);
    let withdrawal = push(&before[&dc], after.get(&dc));
    let Signal::NcForwardTab { table } = &withdrawal else {
        unreachable!()
    };
    assert!(
        table.lines().all(|l| l.split_whitespace().count() == 2),
        "withdrawals only: {table:?}"
    );
    assert!(daemon.handle(&withdrawal).is_ok(), "the daemon accepts it");
    assert!(daemon.table().is_empty(), "{:?}", daemon.table());
}

#[test]
fn scale_in_signals_drain_daemons_with_tau() {
    let w = random_workload(2, 920e6, 150.0, 23);
    let planner = Planner::new();
    let dep = planner.plan(&w.topology, &w.sessions, 20e6).unwrap();
    let mut empty = dep.clone();
    for c in empty.vnfs.values_mut() {
        *c = 0;
    }
    empty.edge_rates = vec![HashMap::new(); w.sessions.len()];
    let before = tables_from_deployment(&w.topology, &w.sessions, &dep, &addr);
    let after = tables_from_deployment(&w.topology, &w.sessions, &empty, &addr);
    assert!(after.is_empty(), "the scaled-in plan routes nothing");
    // Each daemon drains with τ, and its withdrawal leaves it draining
    // with no route.
    for held in before.values() {
        let mut daemon = Daemon::new();
        daemon
            .handle(&push(&ForwardingTable::new(), Some(held)))
            .unwrap();
        daemon.handle(&Signal::NcVnfEnd { tau_secs: 600 }).unwrap();
        daemon.handle(&push(held, None)).unwrap();
        assert_eq!(daemon.state(), DaemonState::Draining);
        assert!(daemon.table().is_empty());
    }
}

#[test]
fn routing_tables_cover_all_flow_edges() {
    let w = random_workload(4, 920e6, 150.0, 31);
    let planner = Planner::new();
    let dep = planner.plan(&w.topology, &w.sessions, 20e6).unwrap();
    let tables = tables_from_deployment(&w.topology, &w.sessions, &dep, &addr);
    for (m, session) in w.sessions.iter().enumerate() {
        for (&e, &rate) in &dep.edge_rates[m] {
            if rate <= 0.0 {
                continue;
            }
            let edge = w.topology.graph.edge(e);
            let table = tables.get(&edge.from).expect("flow tail has a table");
            let hops = table.next_hops(session.id).expect("session routed");
            assert!(
                hops.contains(&addr(edge.to)),
                "edge {} -> {} missing from table",
                w.topology.label(edge.from),
                w.topology.label(edge.to)
            );
        }
    }
}
