//! Graph algorithms for coded multicast.
//!
//! The paper computes "the theoretical maximal throughput of the multicast
//! session using the Ford–Fulkerson algorithm": with network coding a
//! multicast session achieves `min_k maxflow(s → d_k)` (Ahlswede et al.),
//! whereas routing-only multicast is limited by Steiner-tree packing. This
//! crate provides both bounds, plus the delay-bounded DFS path enumeration
//! that the deployment optimizer (Sec. IV-A "Feasible paths") builds on:
//!
//! * [`Graph`] — directed graph with per-edge capacity and delay;
//! * [`maxflow`] — Edmonds–Karp and Dinic implementations;
//! * [`multicast`] — coded multicast capacity and routing-only tree packing;
//! * [`paths`] — all simple paths within a delay bound (modified DFS).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod maxflow;
pub mod multicast;
pub mod paths;

pub use graph::{EdgeId, EdgeRef, Graph, GraphError, NodeId};
