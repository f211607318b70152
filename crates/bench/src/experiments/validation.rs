//! Plan-vs-packets validation: the controller's λ against packet-level
//! goodput.
//!
//! The paper validates its deployment algorithm by measuring real
//! throughput on EC2 after the controller deploys (Sec. V-C). This
//! harness does the equivalent end to end inside the repo: solve program
//! (2) for a multi-session workload, *instantiate the resulting
//! deployment as a packet-level simulation* (VNF instances, dispatch,
//! emit ratios, weighted source splits — see
//! [`crate::deployment_sim`]), and compare each session's planned λ with
//! the minimum receiver's innovative goodput.

use crate::deployment_sim::{instantiate, measure_goodput, InstantiateOptions};
use crate::report::{fmt, render_csv, render_table, ExperimentResult};
use ncvnf_deploy::presets::random_workload;
use ncvnf_deploy::Planner;

/// Runs the validation for a few workload seeds.
pub fn run(quick: bool) -> ExperimentResult {
    let seeds: &[u64] = if quick { &[3] } else { &[3, 8, 15] };
    let secs = if quick { 6 } else { 15 };
    let planner = Planner::new();
    let mut rows = Vec::new();
    for &seed in seeds {
        // Moderate endpoint rates keep the packet counts tractable.
        let w = random_workload(3, 100e6, 150.0, seed);
        let dep = planner
            .plan(&w.topology, &w.sessions, 20e6)
            .expect("plan solves");
        // The fastest session's object outlasts the window by a quarter.
        let fastest_bps = dep.rates.iter().copied().fold(0.0, f64::max);
        let mut deployed = instantiate(
            &w.topology,
            &w.sessions,
            &dep,
            &InstantiateOptions {
                object_len: (fastest_bps * 1.25 / 8.0) as usize * secs as usize,
                ..Default::default()
            },
        );
        let goodput = measure_goodput(&mut deployed, secs);
        for (m, &g) in goodput.iter().enumerate() {
            let planned = dep.rates[m] / 1e6;
            rows.push(vec![
                seed.to_string(),
                m.to_string(),
                w.sessions[m].receivers.len().to_string(),
                fmt(planned, 1),
                fmt(g, 1),
                fmt(
                    if planned > 0.0 {
                        g / planned * 100.0
                    } else {
                        0.0
                    },
                    1,
                ),
            ]);
        }
    }
    let headers = [
        "seed",
        "session",
        "receivers",
        "planned_mbps",
        "measured_mbps",
        "achieved_pct",
    ];
    let mut rendered = render_table(&headers, &rows);
    rendered.push_str(
        "\nplanned lambda from program (2) vs min-receiver innovative goodput of\nthe instantiated deployment (packet level, real RLNC coding throughout)\n",
    );
    ExperimentResult {
        id: "validation".into(),
        title: "Validation: planner lambda vs packet-level goodput".into(),
        rendered,
        csv: render_csv(&headers, &rows),
    }
}
