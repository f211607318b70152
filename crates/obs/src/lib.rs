//! Lock-free observability core for the NC-VNF workspace.
//!
//! This crate is the "observability pillar" of the ROADMAP: one small,
//! dependency-free library that every other crate can instrument
//! against without paying for it on the packet path.
//!
//! - [`Counter`] / [`Gauge`]: single-atomic scalar metrics.
//! - [`Histogram`]: log-linear latency/size distributions with fixed,
//!   preallocated buckets (≤12.5% relative error on quantiles).
//! - [`TraceRing`]: a fixed-capacity structured event ring with
//!   seqlock-style slots — producers never block, a full ring drops
//!   the oldest events and counts the drops.
//! - [`Registry`]: registration (idempotent by name, the only locking
//!   operation) and [`Snapshot`]s rendered as JSON (the `NC_STATS`
//!   control query) or text.
//! - [`metrics!`]: the table every bundle of handles is declared as.
//!
//! The record path — `Counter::inc`, `Gauge::set`, `Histogram::record`,
//! `TraceRing::push` — performs zero heap operations and takes no
//! locks, preserving the relay's counting-allocator guarantee of
//! 0 heap ops per packet in steady state.
//!
//! # Example
//!
//! Metrics are declared as [`metrics!`] tables, one row each; the table
//! is the handle struct, its registration and its documentation.
//!
//! ```
//! use ncvnf_obs::{metrics, Registry};
//!
//! metrics! {
//!     /// What the demo counts.
//!     struct DemoMetrics in "demo" {
//!         steps: Counter = "demo.steps", "steps", "Steps taken";
//!     }
//! }
//!
//! let registry = Registry::new();
//! let demo = DemoMetrics::register(&registry);
//! demo.steps.inc();
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("demo.steps"), Some(1));
//! assert!(snap.to_json().contains("\"demo.steps\":1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod metric;
mod registry;
mod table;
mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge, MetricDesc, MetricKind};
pub use registry::{Cell, CounterValue, GaugeValue, HistogramValue, Registry, Snapshot};
pub use table::render_table;
pub use trace::{TraceEvent, TraceKind, TraceRing};
