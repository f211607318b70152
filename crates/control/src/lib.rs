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
//!   multicast session": parser, serializer, and the one diff that makes
//!   every push — changed routes plus withdrawals (Table III measures
//!   partial updates);
//! * [`daemon`] — the per-VNF daemon, the one receiver of control
//!   datagrams: fences each frame, applies settings, table deltas,
//!   drains and quotas, and writes the [`Ack`];
//! * [`diff`] — derives the forwarding table a
//!   [`ncvnf_deploy::Deployment`] gives every node;
//! * [`metrics`] — the control-plane slice of the `ncvnf-obs` registry:
//!   scaling observations, lost and returned relays, table-push latency,
//!   and the journal/sender/reconcile instrumentation;
//! * [`journal`] — the crash-safety layer (DESIGN.md §13): an
//!   append-only checksummed write-ahead log of [`ControlRecord`]s with
//!   torn-tail-tolerant replay into a [`ControllerState`];
//! * [`sender`] — reliable, epoch-fenced signal delivery: every push is
//!   a [`FencedSignal`] retried with exponential backoff until ACKed,
//!   run by a sans-IO [`ExchangeTable`] that one socket loop,
//!   [`SignalSender`], waits on once for all peers; the reply grammar,
//!   [`Ack`];
//! * [`fence`] — the receiver's half: the pure verdict ([`Admit`]:
//!   stale, duplicate, apply) on each fenced frame;
//! * [`reconcile()`] — restart reconciliation: probe every journaled
//!   node with `NC_STATS`, push each reachable one its believed table
//!   or its remaining drain under the new epoch, expire overdue τ-pool
//!   entries;
//! * [`autoscale`] — the closed control loop (DESIGN.md §14): polls live
//!   relay stats, runs them through the scaling controller's ρ/τ
//!   hysteresis, journals every adopted decision write-ahead, actuates
//!   via fenced pushes in dependency order (downstream first), and winds
//!   idle VNFs to zero until traffic wakes them. Its `NC_STATS` sweep
//!   is also the one failure detector: a relay that misses two sweeps is
//!   lost and planned around. Its one belief about the fleet is the
//!   journal's [`ControllerState`], advanced by every record it journals.
//!   [`Autoscaler::start`] is the controller's one start: journal replay
//!   in, new epoch journaled, fleet reconciled and fenced, and the
//!   targets that need it armed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod daemon;
pub mod diff;
pub mod fence;
pub mod fwdtab;
pub mod journal;
pub mod metrics;
pub mod reconcile;
pub mod sender;
pub mod signal;
pub mod telemetry;

pub use autoscale::{
    AutoscaleConfig, AutoscaleError, Autoscaler, ControlLink, PollReport, RelayTarget,
};
pub use daemon::{Daemon, DaemonEvent, DaemonState, Received};
pub use fence::Admit;
pub use fwdtab::ForwardingTable;
pub use journal::{
    ControlRecord, ControllerState, Journal, NodeBelief, NodeStatus, ReplayReport, SessionSpec,
};
pub use metrics::{ControlCells, ControlMetrics};
pub use reconcile::{reconcile, ReconcilePlan, ReconcileReport};
pub use sender::exchange::{Answer, Completed, ExchangeTable};
pub use sender::{Ack, Refusal, SendError, SendReceipt, SenderConfig, SignalSender};
pub use signal::{FencedSignal, Signal, SignalError, SignalFrame, VnfRoleWire};
pub use telemetry::Telemetry;
