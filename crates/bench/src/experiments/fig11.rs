//! Fig. 11 — throughput and #VNFs under bandwidth cuts.
//!
//! The paper launches six sessions, then cuts "inbound/outbound
//! bandwidth of all our own VNFs in that data center by half" on a
//! randomly selected in-use data center every 20 minutes. Throughput dips
//! until the ρ1/τ1 hysteresis admits the change (≈10 min), after which
//! the controller re-solves — scaling out to recover unless the objective
//! says the extra VNFs are not worth it (their third cut).

use std::collections::HashMap;

use crate::experiments::fig10::build_world;
use crate::report::{fmt, render_csv, render_table, ExperimentResult};
use ncvnf_deploy::{Planner, ScalingController, ScalingParams, VnfSpec};
use ncvnf_flowgraph::NodeId;

/// Actual (as opposed to planned) total throughput: planned flows scaled
/// down by any data center whose *real* capacity has been cut below what
/// the plan assumes (the controller only learns after τ1).
fn effective_throughput_bps(c: &ScalingController, real_specs: &HashMap<NodeId, VnfSpec>) -> f64 {
    let Some(dep) = c.deployment() else {
        return 0.0;
    };
    let topo = c.topology();
    // Per-DC scale factor = real capacity / usage (≤ 1 when the cut
    // bites).
    let mut factor_of: HashMap<NodeId, f64> = HashMap::new();
    for dc in topo.data_centers() {
        let spec = real_specs.get(&dc).copied().unwrap_or(topo.vnf_spec(dc));
        let n = *dep.vnfs.get(&dc).unwrap_or(&0) as f64;
        let mut in_used = 0.0;
        let mut out_used = 0.0;
        for ef in &dep.edge_rates {
            for (&e, &r) in ef {
                let edge = topo.graph.edge(e);
                if edge.to == dc {
                    in_used += r;
                }
                if edge.from == dc {
                    out_used += r;
                }
            }
        }
        let mut f: f64 = 1.0;
        if in_used > 0.0 {
            f = f.min(spec.bin_bps * n / in_used);
        }
        if out_used > 0.0 {
            f = f.min(spec.bout_bps * n / out_used);
        }
        factor_of.insert(dc, f.min(1.0));
    }
    // A session is throttled by the worst DC it traverses.
    let mut total = 0.0;
    for (m, &rate) in dep.rates.iter().enumerate() {
        let mut f: f64 = 1.0;
        for (&e, &r) in &dep.edge_rates[m] {
            if r <= 0.0 {
                continue;
            }
            let edge = topo.graph.edge(e);
            for node in [edge.from, edge.to] {
                if let Some(&df) = factor_of.get(&node) {
                    f = f.min(df);
                }
            }
        }
        total += rate * f;
    }
    total
}

/// Runs the 70-minute bandwidth-cut timeline.
pub fn run(_quick: bool) -> ExperimentResult {
    let (topo, sessions, _spares) = build_world();
    let params = ScalingParams::paper_defaults();
    let mut c = ScalingController::new(topo, Planner::new(), params);
    for s in sessions {
        c.session_join(s, 0.0).expect("join");
    }
    // Real per-VNF capability (what netem would enforce), possibly ahead
    // of what the controller believes.
    let mut real_specs: HashMap<NodeId, VnfSpec> = HashMap::new();
    for dc in c.topology().data_centers() {
        real_specs.insert(dc, c.topology().vnf_spec(dc));
    }

    let mut cut_order: Vec<NodeId> = Vec::new();
    let mut rows = Vec::new();
    for minute in 0u64..=70 {
        let now = minute as f64 * 60.0;
        let mut cut_dc = "-".to_owned();
        if minute >= 10 && (minute - 10) % 20 == 0 {
            // Cut a currently-used data center by half (deterministic
            // pick: the in-use DC with the most VNFs not yet cut).
            let dep = c.deployment().expect("deployment");
            let mut candidates: Vec<(NodeId, u64)> = dep
                .vnfs
                .iter()
                .filter(|(dc, &n)| n > 0 && !cut_order.contains(dc))
                .map(|(&dc, &n)| (dc, n))
                .collect();
            candidates.sort_by_key(|&(dc, n)| (std::cmp::Reverse(n), dc));
            if let Some(&(dc, _)) = candidates.first() {
                let mut spec = real_specs[&dc];
                spec.bin_bps *= 0.5;
                spec.bout_bps *= 0.5;
                real_specs.insert(dc, spec);
                cut_order.push(dc);
                cut_dc = c.topology().label(dc).to_owned();
            }
        }
        // The probes report every cut data center each minute, as the
        // autoscaler's poll does; the controller applies ρ1/τ1
        // hysteresis to the readings.
        for dc in &cut_order {
            c.observe_bandwidth(*dc, real_specs[dc], now);
        }
        c.tick(now).expect("tick");
        let planned = c.deployment().map(|d| d.total_rate_bps()).unwrap_or(0.0);
        let actual = effective_throughput_bps(&c, &real_specs);
        rows.push(vec![
            minute.to_string(),
            fmt(actual / 1e6, 1),
            fmt(planned / 1e6, 1),
            c.billable_vnfs(now).to_string(),
            cut_dc,
        ]);
    }
    let headers = [
        "minute",
        "actual_throughput_mbps",
        "planned_throughput_mbps",
        "billable_vnfs",
        "cut_dc",
    ];
    ExperimentResult {
        id: "fig11".into(),
        title: "Fig. 11: throughput & #VNFs under 50% bandwidth cuts".into(),
        rendered: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}
