//! Fig. 8 — throughput under uniform packet loss on the bottleneck.
//!
//! The paper sweeps i.i.d. loss 0–50 % on the T→V2 link and compares
//! NC0/NC1/NC2 against non-NC forwarding: NC0 leads on clean links but
//! plunges under loss (it must wait for retransmissions), while NC1/NC2
//! retain high throughput; redundancy wastes bandwidth near 0 % loss.

use crate::butterfly::{run_for, ButterflyParams};
use crate::report::{fmt, render_csv, render_table, ExperimentResult};
use ncvnf_netsim::LossModel;
use ncvnf_rlnc::RedundancyPolicy;

/// Loss rates swept (fraction).
const LOSS_RATES: [f64; 6] = [0.0, 0.10, 0.20, 0.30, 0.40, 0.50];

/// One row per point of a loss sweep on the bottleneck: the point in
/// percent, then NC0, NC1, NC2 and non-NC steady throughput (Mbps).
/// `model` turns a non-zero point (a fraction) into the loss model.
pub(crate) fn loss_sweep(
    points: &[f64],
    model: fn(f64) -> LossModel,
    secs: u64,
) -> Vec<Vec<String>> {
    // Size the object to outlast the measurement window (~70 Mbps x secs).
    let object = 11_000_000 * secs as usize;
    let configs = [
        (RedundancyPolicy::NC0, true),
        (RedundancyPolicy::NC1, true),
        (RedundancyPolicy::NC2, true),
        (RedundancyPolicy::NC0, false),
    ];
    let mut rows = Vec::new();
    for &x in points {
        let mut row = vec![fmt(x * 100.0, 0)];
        for (redundancy, coding) in configs {
            let params = ButterflyParams {
                redundancy,
                coding,
                systematic_source: !coding,
                bottleneck_loss: if x > 0.0 { model(x) } else { LossModel::None },
                object_len: object,
                ..Default::default()
            };
            row.push(fmt(run_for(&params, secs).steady_mbps, 2));
        }
        rows.push(row);
    }
    rows
}

/// Runs the loss sweep for all four configurations; `quick` shortens the
/// simulated window and keeps the sweep's two ends.
pub fn run(quick: bool) -> ExperimentResult {
    let (secs, rates): (u64, &[f64]) = if quick {
        (6, &[0.0, 0.50])
    } else {
        (20, &LOSS_RATES)
    };
    let rows = loss_sweep(rates, LossModel::uniform, secs);
    let headers = [
        "loss_pct",
        "nc0_mbps",
        "nc1_mbps",
        "nc2_mbps",
        "non_nc_mbps",
    ];
    ExperimentResult {
        id: "fig8".into(),
        title: "Fig. 8: throughput vs uniform bottleneck loss (NC0/NC1/NC2/non-NC)".into(),
        rendered: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}
