//! The NFV control plane (Sec. III-A of the paper).
//!
//! A central controller launches coding VNFs in data centers, configures
//! them and steers traffic by talking to a daemon on every coding node:
//!
//! * [`signal`] — the paper's five control signals (`NC_START`,
//!   `NC_VNF_START`, `NC_VNF_END`, `NC_FORWARD_TAB`, `NC_SETTINGS`) plus
//!   the `NC_STATS` observability query, with a length-prefixed wire
//!   codec usable over any byte transport;
//! * [`fwdtab`] — the forwarding table, which the paper keeps as "a text
//!   file, recording the next hops' IP addresses for each relevant
//!   multicast session": parser, serializer, and diff (Table III measures
//!   partial updates);
//! * [`daemon`] — the per-VNF daemon state machine: applies settings,
//!   pauses/swaps/resumes on table updates (the paper's `SIGUSR1` dance),
//!   honours the τ-delayed `NC_VNF_END` shutdown;
//! * [`diff`] — turns two [`ncvnf_deploy::Deployment`]s into the signal
//!   batch that morphs one into the other;
//! * [`liveness`] — heartbeat bookkeeping: the Alive → Suspect → Dead
//!   failure detector fed by the relays' beacon frames;
//! * [`failover`] — reroutes forwarding tables around a dead node and
//!   renders the `NC_FORWARD_TAB` deltas to push to survivors;
//! * [`metrics`] — the control-plane slice of the `ncvnf-obs` registry:
//!   liveness transitions, scaling observations, table-push latency,
//!   and the journal/sender/reconcile instrumentation;
//! * [`journal`] — the crash-safety layer (DESIGN.md §13): an
//!   append-only checksummed write-ahead log of [`ControlRecord`]s with
//!   torn-tail-tolerant replay into a [`ControllerState`];
//! * [`sender`] — reliable, epoch-fenced signal delivery: every push is
//!   a [`FencedSignal`] retried with exponential backoff until ACKed;
//! * [`fence`] — the receiver's half: the pure [`Fence`] verdict
//!   (stale, duplicate, apply) on each fenced frame;
//! * [`reconcile()`] — restart reconciliation: probe every journaled
//!   node with `NC_STATS`, push each reachable one its believed table
//!   or its remaining drain under the new epoch, expire overdue τ-pool
//!   entries;
//! * [`autoscale`] — the closed control loop (DESIGN.md §15): polls live
//!   relay stats, runs them through the scaling controller's ρ/τ
//!   hysteresis, journals every adopted decision write-ahead, actuates
//!   via fenced pushes in dependency order (downstream first), and winds
//!   idle VNFs to zero until traffic wakes them. [`Autoscaler::start`]
//!   is the controller's one start: journal replay in, new epoch
//!   journaled, fleet reconciled and fenced, never-armed relays armed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod daemon;
pub mod diff;
pub mod failover;
pub mod fence;
pub mod fwdtab;
pub mod journal;
pub mod liveness;
pub mod metrics;
pub mod reconcile;
pub mod sender;
pub mod signal;
pub mod telemetry;

pub use autoscale::{
    AutoscaleConfig, AutoscaleError, Autoscaler, ControlLink, PollReport, RelayTarget,
};
pub use daemon::{Daemon, DaemonEvent, DaemonState};
pub use failover::{failover_signals, plan_failover, reroute_table};
pub use fence::{Admit, Fence};
pub use fwdtab::ForwardingTable;
pub use journal::{
    ControlRecord, ControllerState, Journal, NodeBelief, NodeStatus, ReplayReport, SessionSpec,
};
pub use liveness::{LivenessConfig, LivenessEvent, LivenessState, LivenessTracker};
pub use metrics::{ControlCells, ControlMetrics};
pub use reconcile::{reconcile, ReconcilePlan, ReconcileReport};
pub use sender::{SendError, SendReceipt, SenderConfig, SignalSender};
pub use signal::{FencedSignal, Signal, SignalError, SignalFrame, VnfRoleWire};
pub use telemetry::{DataplaneHealth, Telemetry};
