//! Cross-crate integration: optimizer → control plane → daemons.
//!
//! Plans a deployment, diffs it into NC_* signals, round-trips them over
//! the wire codec, feeds them to daemons, and checks the daemons end up
//! with forwarding state consistent with the plan.

use ncvnf::control::daemon::{Daemon, DaemonState};
use ncvnf::control::diff::{plan_signals, tables_from_deployment};
use ncvnf::control::signal::Signal;
use ncvnf::deploy::presets::random_workload;
use ncvnf::deploy::Planner;

fn addr(n: ncvnf::flowgraph::NodeId) -> String {
    format!("10.1.{}.1:4000", n.0)
}

#[test]
fn deployment_becomes_consistent_daemon_state() {
    let w = random_workload(3, 920e6, 150.0, 17);
    let planner = Planner::new();
    let dep = planner.plan(&w.topology, &w.sessions, 20e6).unwrap();
    assert!(dep.total_rate_bps() > 0.0);

    // Initial rollout: everything is a launch + table update.
    let plan = plan_signals(&w.topology, &w.sessions, None, &dep, &addr);
    let launched: u64 = plan.launches.iter().map(|&(_, c)| c as u64).sum();
    assert_eq!(launched, dep.total_vnfs());

    // One daemon per node with a table; ship the table over the wire.
    for (node, table) in &plan.table_updates {
        let sig = Signal::NcForwardTab {
            table: table.to_text(),
        };
        let wire = sig.to_bytes();
        let (decoded, used) = Signal::from_bytes(&wire).unwrap();
        assert_eq!(used, wire.len());
        let mut daemon = Daemon::new();
        let event = daemon.handle(&decoded);
        assert!(
            matches!(event, Ok(Some(_))),
            "table update must produce events"
        );
        // The daemon's live table matches what the planner derived.
        let expected = tables_from_deployment(&w.topology, &w.sessions, &dep, &addr)
            .remove(node)
            .expect("table exists");
        assert_eq!(daemon.table(), &expected);
    }
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
    empty.edge_rates = vec![Default::default(); w.sessions.len()];
    let plan = plan_signals(&w.topology, &w.sessions, Some(&dep), &empty, &addr);
    let signals = plan.to_signals(&w.topology, 600);
    let mut daemon = Daemon::new();
    for sig in &signals {
        if matches!(sig, Signal::NcVnfEnd { .. }) {
            daemon.handle(sig).unwrap();
        }
    }
    assert_eq!(daemon.state(), DaemonState::Draining);
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
