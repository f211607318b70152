//! `ncbench`: one repeatable benchmark for the packet ladder and the
//! control ladder.
//!
//! Five closed-loop workloads drive only public functions of `gf256`,
//! `rlnc`, `dataplane`, `relay`, `control` and `deploy`, and every layer
//! is measured from outside by timing the calls into it. A timed run
//! (tracing off) cuts its measured time into slices and reports the
//! end-to-end metrics from the per-slice values; a traced run reports
//! the per-layer metrics and writes the spans it recorded. See
//! `README.md` beside this crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod compare;
pub mod cputime;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod trace;

mod codec;
mod control;
mod inputs;
mod relay;
mod rungs;
mod transfer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use metrics::{END_TO_END, PER_LAYER};

/// Slices a timed run is cut into (half a second each at the contract's
/// 15 s). Interference on this shared two-CPU host comes in bouts of a
/// few seconds: among many short slices some are undisturbed and a
/// median is not decided by one bout, where five long slices all caught
/// a share of it. How a workload reduces its slices to one value —
/// best or median — is stated where it does so and in the README.
pub const SLICES: usize = 30;

/// How a run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds measured (warm-up, set-up and checks come on top).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke run: small objects and short checks, for the test suite.
    pub smoke: bool,
    /// Corrupt the expected output of the correctness pass, which must
    /// then fail.
    pub self_test: bool,
}

impl Options {
    /// Length of one slice.
    pub fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / SLICES as f64)
    }

    /// Length of the discarded warm-up: one slice.
    pub fn warm_up(&self) -> Duration {
        self.slice()
    }

    /// Slices in the timed part of this run: all of them, or in a
    /// traced run a fifth (the traced part takes another fifth and the
    /// ladder two). A smoke run is as short.
    pub(crate) fn timed_slices(&self) -> usize {
        if self.trace || self.smoke {
            SLICES / 5
        } else {
            SLICES
        }
    }

    /// Length of the timed part of this run; the traced part of a traced
    /// run is as long.
    pub(crate) fn timed_part(&self) -> Duration {
        self.slice() * self.timed_slices() as u32
    }

    /// Set-ups whose median is `setup_s` (a traced run reports none).
    pub(crate) fn setup_repeats(&self) -> usize {
        match (self.trace, self.smoke) {
            (true, _) => 1,
            (false, true) => 3,
            (false, false) => 25,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every output checked was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the metric tables or `value` is not
    /// finite: either is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::unit_of(name).is_some(), "unknown metric {name}");
        assert!(value.is_finite(), "{name} = {value}");
        self.values.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a line to the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `failed` of `attempted` operations.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The metrics this run owes: every end-to-end metric when timed,
    /// every per-layer metric when traced. A per-layer metric the
    /// workload's layers do not produce reads 0.
    ///
    /// # Panics
    ///
    /// Panics if a timed run did not record an end-to-end metric.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name).unwrap_or(0.0), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.get(m.name);
                    (
                        m.name,
                        v.unwrap_or_else(|| panic!("{} not measured", m.name)),
                        m.unit,
                    )
                })
                .collect()
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics(trace).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, then the notes.
    pub fn human(&self, trace: bool) -> String {
        let mut out = String::new();
        for (name, value, unit) in self.metrics(trace) {
            let _ = writeln!(out, "{name:<52} {value:>16.4} {unit}");
        }
        for line in &self.notes {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

/// Directory traces and write-ahead logs go to (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Median wall time of `repeats` set-ups, each built and torn down, and
/// the last one kept for the run. `setup_s` is measured this way rather
/// than once so one slow page fault does not decide it.
pub(crate) fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&mut secs))
}

/// Runs workload `name`.
///
/// # Errors
///
/// Returns a message when `name` is not a workload, or when the run is
/// invalid (a check that is fatal by design, or an I/O failure).
pub fn run(name: &str, opts: &Options) -> Result<Report, String> {
    affinity::pin_generator();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    match name {
        "relay_mtu" => relay::run(name, relay::MTU_BLOCK, opts, &mut report),
        "relay_small" => relay::run(name, relay::SMALL_BLOCK, opts, &mut report),
        "codec_g32" => codec::run(opts, &mut report),
        "transfer_lossy" => transfer::run(opts, &mut report),
        "control_react" => control::run(opts, &mut report),
        _ => Err("not a workload (see --list)".into()),
    }
    .map_err(|e| format!("{name}: {e}"))?;
    if opts.trace {
        rungs::run(opts, &mut report).map_err(|e| format!("{name}: ladder: {e}"))?;
        relay::residual(name, &mut report);
    } else {
        report.set("peak_rss_mb", stats::peak_rss_mb());
    }
    if report.failed > 0 {
        report.correct = false;
    }
    Ok(report)
}
