//! Runs the paper's tables and figures and writes `results/<id>.csv`.
//!
//! `repro_all [--quick] [<id>…]`: each id is an `ExperimentResult::id`
//! (`table1`, `fig4`, …, `validation`, `ablation_*`). No ids runs every
//! harness and also writes `results/summary.md`; an unknown id exits
//! non-zero and lists the valid ones.

use std::path::Path;
use std::process::ExitCode;

use ncvnf_bench::experiments as ex;
use ncvnf_bench::report::ExperimentResult;

/// One harness: `quick` in, one table or figure out.
type Harness = fn(bool) -> ExperimentResult;

/// Every harness under the id of the result it returns, in the paper's
/// order.
const HARNESSES: [(&str, Harness); 17] = [
    ("table1", ex::table1::run),
    ("fig4", ex::fig4::run),
    ("fig5", ex::fig5::run),
    ("fig7", ex::fig7::run),
    ("table2", ex::table2::run),
    ("fig8", ex::fig8::run),
    ("fig9", ex::fig9::run),
    ("fig10", ex::fig10::run),
    ("fig11", ex::fig11::run),
    ("fig12", ex::fig12::run),
    ("fig13", ex::fig13::run),
    ("table3", ex::table3::run),
    ("case5", ex::case5::run),
    ("ablation_field_size", ex::ablations::field_size),
    ("ablation_rounding", ex::ablations::rounding),
    ("ablation_emit_policy", ex::ablations::emit_policy),
    ("validation", ex::validation::run),
];

fn main() -> ExitCode {
    let (flags, ids): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--quick");
    let quick = !flags.is_empty();
    let valid: Vec<&str> = HARNESSES.iter().map(|&(id, _)| id).collect();
    if let Some(bad) = ids.iter().find(|id| !valid.contains(&id.as_str())) {
        eprintln!("unknown id {bad:?}; valid ids: {}", valid.join(" "));
        return ExitCode::FAILURE;
    }
    let dir = Path::new("results");
    let mut summary = String::new();
    for (id, run) in HARNESSES {
        if !ids.is_empty() && !ids.iter().any(|x| x == id) {
            continue;
        }
        eprintln!("running {id} ...");
        let t0 = std::time::Instant::now();
        let result = run(quick);
        eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
        assert_eq!(result.id, id, "harness listed under another id");
        println!("== {} ==\n\n{}\n", result.title, result.rendered);
        summary.push_str(&format!(
            "## {}\n\n```text\n{}```\n\n",
            result.title, result.rendered
        ));
        result
            .write_csv(dir)
            .unwrap_or_else(|e| panic!("results/{id}.csv not written: {e}"));
    }
    if ids.is_empty() {
        std::fs::write(dir.join("summary.md"), &summary)
            .unwrap_or_else(|e| panic!("results/summary.md not written: {e}"));
        eprintln!("results written under results/");
    }
    ExitCode::SUCCESS
}
