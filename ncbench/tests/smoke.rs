//! The benchmark's contract, checked: `BENCHMARK.json` is the metric
//! table, every workload emits exactly the metrics it names, and a broken
//! correctness check fails the run.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use ncbench::json::{self, Value};
use ncbench::metrics::{benchmark_json, WORKLOADS};
use ncbench::{run, Options};

fn smoke(trace: bool, self_test: bool) -> Options {
    Options {
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
        self_test,
    }
}

/// `name → unit` of the metric list `key` of the `BENCHMARK.json` text.
fn named(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_metric_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        benchmark_json(),
        "regenerate with `ncbench --list > BENCHMARK.json`"
    );
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS.map(|w| w.name));
}

/// Everything that runs a workload is in this one test: two relays
/// sharing two CPUs with another test's relay would time out datagrams.
#[test]
fn workloads_emit_the_named_metrics_and_fail_on_a_broken_check() {
    let doc = json::parse(&benchmark_json()).unwrap();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let report = run(w.name, &smoke(trace, false))
                .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", w.name));
            assert!(
                report.correct && report.failed == 0 && report.attempted > 0,
                "{} trace {trace}:\n{}",
                w.name,
                report.human(trace)
            );
            let line = json::parse(&report.result_line(trace)).expect("result line parses");
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let emitted = line.get("metrics").and_then(Value::as_object).unwrap();
            let expected = named(&doc, if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(
                emitted.keys().cloned().collect::<BTreeSet<_>>(),
                expected
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect::<BTreeSet<_>>(),
                "{} trace {trace}: emitted metrics are not the named ones",
                w.name
            );
            for (name, unit) in &expected {
                let metric = &emitted[name];
                let value = metric.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{} {name} = {value}", w.name);
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str())
                );
                // End-to-end metrics are never 0; a per-layer metric is 0
                // on a workload that does not execute its layer.
                assert!(trace || value > 0.0, "{} {name} = {value}", w.name);
            }
        }
        let broken = run(w.name, &smoke(false, true)).unwrap();
        assert!(!broken.correct, "{}: --self-test passed", w.name);
    }

    // The same through the command line: exit code and last line.
    let ncbench = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ncbench"))
            .args(["--workload", "codec_g32", "--smoke"])
            .args(extra)
            .output()
            .expect("ncbench runs")
    };
    let ok = ncbench(&[]);
    assert!(ok.status.success());
    let stdout = String::from_utf8(ok.stdout).unwrap();
    let last = json::parse(stdout.lines().last().unwrap()).expect("last line is the result");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert!(!ncbench(&["--self-test"]).status.success());
    assert!(!ncbench(&["--workload", "no_such_workload"])
        .status
        .success());
}
