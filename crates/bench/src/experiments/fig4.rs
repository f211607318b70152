//! Fig. 4 — throughput vs blocks per generation.
//!
//! The paper: "the throughput reaches the maximum when each generation
//! contains four blocks, and plunges when the number of packets is over
//! 16"; block size 1460 B. The mechanisms reproduced here: tiny
//! generations cannot be mixed at the coding point (g = 1 degenerates to
//! forwarding), larger generations pay linearly growing GF(2^8) work per
//! packet plus longer coefficient headers and decode latency.

use crate::butterfly::{run_for, ButterflyParams};
use crate::report::{fmt, render_csv, render_table, ExperimentResult};
use ncvnf_rlnc::GenerationConfig;

/// Generation sizes swept (the paper's x-axis spans 1…100+).
const GENERATION_SIZES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Runs the sweep; `quick` shortens the simulated window and keeps the
/// collapse, the paper's peak, its knee and the far end.
pub fn run(quick: bool) -> ExperimentResult {
    let (secs, sizes): (u64, &[usize]) = if quick {
        (6, &[1, 4, 16, 128])
    } else {
        (20, &GENERATION_SIZES)
    };
    // Size the object to outlast the measurement window (~70 Mbps x secs).
    let object = 11_000_000 * secs as usize;
    let mut rows = Vec::new();
    let mut best = (0usize, 0.0f64);
    for &g in sizes {
        let params = ButterflyParams {
            generation: GenerationConfig::new(1460, g).expect("valid layout"),
            object_len: object,
            ..Default::default()
        };
        let out = run_for(&params, secs);
        if out.steady_mbps > best.1 {
            best = (g, out.steady_mbps);
        }
        rows.push(vec![g.to_string(), fmt(out.steady_mbps, 2)]);
    }
    let headers = ["blocks_per_generation", "throughput_mbps"];
    let mut rendered = render_table(&headers, &rows);
    rendered.push_str(&format!(
        "\npeak at generation size {} ({} Mbps); paper peaks at 4\n",
        best.0,
        fmt(best.1, 2)
    ));
    ExperimentResult {
        id: "fig4".into(),
        title: "Fig. 4: throughput vs generation size (butterfly, 1460 B blocks)".into(),
        rendered,
        csv: render_csv(&headers, &rows),
    }
}
