//! Experiment harnesses for the paper's evaluation (Sec. V).
//!
//! Each table and figure has a module under [`experiments`] with a
//! `run(quick)` entry point that generates the paper's rows/series from
//! this repository's own implementation. The `quick` flag shrinks
//! durations and sweeps so the whole suite can run in CI. The one entry
//! point is the `repro_all [--quick] [<id>…]` binary: it runs the
//! harnesses whose result ids are given (all of them by default) and
//! writes `results/<id>.csv`.
//!
//! How fast a layer runs is not measured here: `ncbench/` (its own
//! workspace, declared in `BENCHMARK.json`) is the one instrument, and
//! the `perf_report` binary keeps only the five measurements that have
//! not moved there yet.
//!
//! | Module | Paper content |
//! |---|---|
//! | [`experiments::fig4`]  | throughput vs generation size |
//! | [`experiments::fig5`]  | throughput vs relay buffer size |
//! | [`experiments::table1`]| time-varying per-VM bandwidth |
//! | [`experiments::fig7`]  | butterfly throughput: NC / non-NC / TCP |
//! | [`experiments::table2`]| direct vs relayed delay, ± coding |
//! | [`experiments::fig8`]  | throughput vs uniform loss, NC0/1/2/non-NC |
//! | [`experiments::fig9`]  | throughput vs burst loss |
//! | [`experiments::fig10`] | session/receiver churn: throughput & #VNFs |
//! | [`experiments::fig11`] | bandwidth cuts: recovery behaviour |
//! | [`experiments::fig12`] | throughput vs max tolerable delay |
//! | [`experiments::fig13`] | throughput & #VNFs vs α |
//! | [`experiments::table3`]| live forwarding-table update latency |
//! | [`experiments::case5`] | VNF launch/update overheads |
//! | [`experiments::validation`] | planner λ vs packet-level goodput |
//! | [`experiments::ablations`] | field size, LP rounding, emit policy |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod butterfly;
pub mod deployment_sim;
pub mod experiments;
pub mod report;
