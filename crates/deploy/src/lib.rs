//! Coding-function deployment and multicast routing optimization.
//!
//! Implements Sec. IV of the paper:
//!
//! * [`model`] — data centers with per-VNF bandwidth/coding caps, sessions
//!   with sources/receivers and delay bounds, and the inter-DC topology;
//! * [`formulate`] — the optimization program (2): conceptual flows per
//!   receiver over delay-bounded feasible paths, per-VM inbound/outbound
//!   bandwidth constraints scaled by the VNF count `x_v`, coding capacity
//!   `C(v)·x_v`, objective `max Σ λ_m − α Σ x_v`;
//! * [`solve`] — LP relaxation + round-up + re-solve (the production
//!   path), and exact branch-and-bound (for small instances / tests);
//! * [`scaling`] — the dynamic algorithms: bandwidth variation (Alg. 1),
//!   delay changes (Alg. 2), session & receiver arrivals/departures
//!   (Alg. 3), with ρ/τ hysteresis thresholds;
//! * [`pool`] — VNF lifecycle: launch latency, τ-delayed shutdown and
//!   reuse of lingering instances;
//! * [`presets`] — the butterfly and the six-data-center North-America
//!   topology used throughout the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formulate;
pub mod model;
pub mod pool;
pub mod presets;
pub mod scaling;
pub mod solve;

pub use model::{NodeKind, SessionSpec, Topology, TopologyBuilder, VnfSpec};
pub use pool::VnfPool;
pub use scaling::{ScalingController, ScalingEvent, ScalingParams};
pub use solve::{Deployment, KeptProgram, PlanError, Planner, SolveMode};
