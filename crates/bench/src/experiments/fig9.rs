//! Fig. 9 — throughput under burst packet loss on the bottleneck.
//!
//! The paper's burst process: "the loss rate of the n-th packet is
//! `Pₙ = 25% × Pₙ₋₁ + P`, `P₀ = 0`, and `P` ranges from 0% to 5%."

use crate::experiments::fig8::loss_sweep;
use crate::report::{render_csv, render_table, ExperimentResult};
use ncvnf_netsim::LossModel;

/// Burst base rates `P` swept (fraction).
const BURST_P: [f64; 6] = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05];

/// Runs the burst-loss sweep for all four configurations; `quick`
/// shortens the simulated window and keeps the sweep's two ends.
pub fn run(quick: bool) -> ExperimentResult {
    let (secs, rates): (u64, &[f64]) = if quick {
        (6, &[0.0, 0.05])
    } else {
        (20, &BURST_P)
    };
    let rows = loss_sweep(rates, LossModel::paper_burst, secs);
    let headers = ["P_pct", "nc0_mbps", "nc1_mbps", "nc2_mbps", "non_nc_mbps"];
    ExperimentResult {
        id: "fig9".into(),
        title: "Fig. 9: throughput vs burst loss P (Pn = 0.25*Pn-1 + P)".into(),
        rendered: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}
