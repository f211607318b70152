//! The control plane in action: sessions arrive and depart, bandwidth
//! gets cut, and the scaling controller deploys, reroutes and recycles
//! coding VNFs (the paper's Algorithms 1 and 3).
//!
//! Run with `cargo run --release --example dynamic_scaling`.

use ncvnf::control::diff::tables_from_deployment;
use ncvnf::control::fwdtab::ForwardingTable;
use ncvnf::deploy::presets::random_workload;
use ncvnf::deploy::{Deployment, Planner, ScalingController, ScalingParams};
use ncvnf::flowgraph::NodeId;

fn addr(n: NodeId) -> String {
    format!("10.0.{}.1:4000", n.0)
}

fn main() {
    let w = random_workload(4, 920e6, 150.0, 7);
    let mut controller = ScalingController::new(
        w.topology,
        Planner::new(),
        ScalingParams {
            tau1_secs: 120.0,
            pool_tau_secs: 300.0,
            ..ScalingParams::paper_defaults()
        },
    );

    println!("t=0s: three sessions join");
    for s in w.sessions.iter().take(3).cloned() {
        controller.session_join(s, 0.0).expect("join");
    }
    report(&controller, 0.0);

    println!("\nt=60s: fourth session joins (incremental solve on residual capacity)");
    let before = controller.deployment().cloned();
    controller
        .session_join(w.sessions[3].clone(), 60.0)
        .expect("join");
    report(&controller, 60.0);
    // Show the signals the controller would emit for this change: VNFs
    // launched or ended per data center, and each node's table delta
    // (changed routes plus withdrawals).
    let after = controller.deployment().expect("deployment");
    let (topo, sessions) = (controller.topology(), controller.sessions());
    let (mut launches, mut ends) = (0, 0);
    for dc in topo.data_centers() {
        let count = |d: Option<&Deployment>| d.and_then(|d| d.vnfs.get(&dc)).copied().unwrap_or(0);
        let (was, is) = (count(before.as_ref()), count(Some(after)));
        launches += is.saturating_sub(was);
        ends += was.saturating_sub(is);
    }
    let old = before
        .as_ref()
        .map(|d| tables_from_deployment(topo, sessions, d, &addr))
        .unwrap_or_default();
    let new = tables_from_deployment(topo, sessions, after, &addr);
    let empty = ForwardingTable::new();
    let nodes: std::collections::BTreeSet<NodeId> = old.keys().chain(new.keys()).copied().collect();
    let pushes: Vec<ForwardingTable> = nodes
        .iter()
        .map(|n| {
            old.get(n)
                .unwrap_or(&empty)
                .diff(new.get(n).unwrap_or(&empty), false)
        })
        .filter(|push| !push.is_empty())
        .collect();
    let withdrawals: usize = pushes
        .iter()
        .map(|push| push.iter().filter(|(_, hops)| hops.is_empty()).count())
        .sum();
    println!(
        "  control plane: {launches} VNF launches, {ends} terminations, {} table pushes \
         ({withdrawals} withdrawals)",
        pushes.len()
    );

    println!("\nt=120s: a data center's per-VM bandwidth halves (rho/tau hysteresis)");
    let dc = controller.topology().data_centers()[0];
    let mut spec = controller.topology().vnf_spec(dc);
    spec.bin_bps *= 0.5;
    spec.bout_bps *= 0.5;
    controller.observe_bandwidth(dc, spec, 120.0);
    controller.tick(150.0).expect("tick");
    println!("  (not applied yet - change must persist for tau1)");
    report(&controller, 150.0);
    controller.tick(300.0).expect("tick");
    println!("  after tau1, the cut is admitted and the plan re-solved:");
    report(&controller, 300.0);

    println!("\nt=360s: a session quits (grow-flows vs shut-down-VNFs comparison)");
    controller.session_quit(1, 360.0).expect("quit");
    report(&controller, 360.0);

    println!("\nforwarding tables of the final deployment:");
    let dep = controller.deployment().expect("deployment");
    let tables = tables_from_deployment(controller.topology(), controller.sessions(), dep, &addr);
    for (node, table) in &tables {
        println!(
            "-- {} --\n{}",
            controller.topology().label(*node),
            table.to_text()
        );
    }
}

fn report(c: &ScalingController, now: f64) {
    let dep = c.deployment().expect("deployment");
    println!(
        "  sessions: {} | total throughput: {:.0} Mbps | VNFs active: {} billable: {}",
        c.sessions().len(),
        dep.total_rate_bps() / 1e6,
        c.active_vnfs(),
        c.billable_vnfs(now),
    );
}
