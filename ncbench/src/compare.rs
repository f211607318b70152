//! `ncbench compare <a.json> <b.json>`: two result sets side by side.
//!
//! A result set is what `--out <file>` appends: one JSON object per
//! run, `{"workload": …, "seed": …, "trace": …, "metrics": {…}}`. Runs of
//! one workload in a set are reduced to the median per metric, so a set
//! may hold one run or ten. This is the tool for the repeatability
//! criterion and for later before/after runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::median;

/// Median per (workload, metric) of one result set.
pub type ResultSet = BTreeMap<(String, String), f64>;

/// Reads a result set from the text of a `--out` file.
///
/// # Errors
///
/// Returns a message naming the first line that is not a result.
pub fn read_set(text: &str) -> Result<ResultSet, String> {
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let run = json::parse(line).map_err(|e| bad(&e))?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            samples
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples
        .into_iter()
        .map(|(key, mut values)| (key, median(&mut values)))
        .collect())
}

/// The table of both sets and whether every end-to-end metric they
/// share agrees within its bound. `b`'s relative difference from `a` is
/// signed so that positive is better.
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut table = format!(
        "{:<16} {:<48} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "b vs a", "bound"
    );
    let mut within = true;
    for ((workload, metric), &va) in a {
        let Some(&vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let gated = END_TO_END.iter().find(|m| m.name == metric);
        let better = gated.map(|m| m.better).or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == metric)
                .map(|m| m.better)
        });
        let rel = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
        let gain = match better {
            Some(Better::Lower) => -rel,
            _ => rel,
        };
        let (bound, verdict) = match gated {
            Some(m) if gain.abs() > m.bound => {
                within = false;
                (format!("{:.0}%", m.bound * 100.0), "  DIFFERS")
            }
            Some(m) => (format!("{:.0}%", m.bound * 100.0), ""),
            None => ("-".to_owned(), ""),
        };
        let _ = writeln!(
            table,
            "{workload:<16} {metric:<48} {va:>14.4} {vb:>14.4} {:>+8.1}% {bound:>7}{verdict}",
            gain * 100.0
        );
    }
    (table, within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, ops: f64, latency: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"metrics\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \"latency_us\": {{\"value\": {latency}, \"unit\": \"us\"}}}}}}\n"
        )
    }

    #[test]
    fn medians_per_workload_and_bounds() {
        let a =
            read_set(&(line("w", 100.0, 10.0) + &line("w", 104.0, 10.0) + &line("w", 90.0, 10.0)))
                .unwrap();
        assert_eq!(a[&("w".to_owned(), "ops_per_s".to_owned())], 100.0);
        // 5 % slower and 5 % more latency: within the 25 % bounds.
        let b = read_set(&line("w", 95.0, 10.5)).unwrap();
        let (table, within) = compare(&a, &b);
        assert!(within, "{table}");
        assert!(table.contains("-5.0%"), "{table}");
        // 40 % more latency: out of bounds, and reported as worse.
        let c = read_set(&line("w", 100.0, 14.0)).unwrap();
        let (table, within) = compare(&a, &c);
        assert!(!within);
        assert!(
            table.contains("-40.0%") && table.contains("DIFFERS"),
            "{table}"
        );
        // A set measured on other workloads shares nothing: vacuously fine.
        assert!(compare(&a, &read_set(&line("v", 1.0, 1.0)).unwrap()).1);
        assert!(read_set("{\"metrics\": {}}\n").is_err());
    }
}
