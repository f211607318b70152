//! Fig. 5 — throughput vs relay buffer size (in generations).
//!
//! "Results suggest that buffer size of 1024 generations is sufficient to
//! guarantee good performance (larger buffer gains little benefit)." The
//! mechanism: under loss, retransmitted packets for old generations reach
//! the relays one round trip later; if the relay has already evicted the
//! generation, it can no longer mix the repair with the generation's
//! earlier packets, so receivers need more repair rounds.

use crate::butterfly::{run_for, ButterflyParams};
use crate::report::{fmt, render_csv, render_table, ExperimentResult};
use ncvnf_netsim::LossModel;

/// Buffer sizes swept (generations).
const BUFFER_SIZES: [usize; 8] = [2, 8, 32, 64, 128, 256, 1024, 2048];

/// Runs the sweep; `quick` shortens the simulated window and keeps the
/// tiny buffer, the knee and the paper's 1024 against twice that.
pub fn run(quick: bool) -> ExperimentResult {
    let (secs, sizes): (u64, &[usize]) = if quick {
        (6, &[2, 32, 1024, 2048])
    } else {
        (20, &BUFFER_SIZES)
    };
    // Size the object to outlast the measurement window (~70 Mbps x secs).
    let object = 11_000_000 * secs as usize;
    let mut rows = Vec::new();
    for &buf in sizes {
        let params = ButterflyParams {
            buffer_generations: buf,
            bottleneck_loss: LossModel::uniform(0.10),
            object_len: object,
            ..Default::default()
        };
        let out = run_for(&params, secs);
        rows.push(vec![
            buf.to_string(),
            fmt(out.steady_mbps, 2),
            out.nacks.to_string(),
        ]);
    }
    let headers = ["buffer_generations", "throughput_mbps", "nacks"];
    let rendered = render_table(&headers, &rows);
    ExperimentResult {
        id: "fig5".into(),
        title: "Fig. 5: throughput vs relay buffer size (10% bottleneck loss)".into(),
        rendered,
        csv: render_csv(&headers, &rows),
    }
}
