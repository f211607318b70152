//! Real-socket coding relays.
//!
//! The paper deploys its coding functions on EC2/Linode VMs reachable over
//! UDP; this crate is the same data plane (the `ncvnf-dataplane` packet
//! processor) behind real `std::net::UdpSocket`s, runnable as a multi-
//! process/multi-thread testbed on loopback:
//!
//! * [`RelayNode`] — a coding VNF with a UDP data socket and a UDP control
//!   socket; the control socket speaks the `ncvnf-control` signal codec,
//!   so forwarding tables can be hot-swapped on a *live* relay (the
//!   Table III measurement);
//! * [`send_object_reliable`]/[`ReliableReceiver`] — the file-transfer
//!   application from the evaluation, written once: a source streams a
//!   coded object, the receiver decodes and verifies it byte-exactly,
//!   with feedback-driven loss recovery in between (NACK/ACK over the
//!   `ncvnf-dataplane` feedback codec, NACKs on evidence of loss,
//!   bounded retransmission gated on the measured round trip, redundancy
//!   sized from the estimated erasure rate). Both ends are sans-IO state
//!   machines that one driver runs over their sockets; zero retries and
//!   no feedback peer make it best-effort;
//! * [`reliable_chain`] — assembles a source → relays → receiver
//!   pipeline on 127.0.0.1, wired over the control channel
//!   ([`RelayNode::wire`]), and reports timing and counters;
//! * [`DatagramSocket`]/[`FaultSocket`] — the chaos harness: the relay
//!   loops and the transfer driver are generic over a socket trait, and
//!   the fault wrapper injects deterministic seeded
//!   drop/duplicate/reorder/delay (and crash-after-N) into the live
//!   path;
//! * [`metrics`] — the relay's slice of the `ncvnf-obs` registry: every
//!   counter in [`RelayStats`]/[`RecoveryStats`] lives in registry cells
//!   (the structs are typed views), plus step-latency and table-swap
//!   histograms; see `OPERATIONS.md` for the full metric reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod engine;
pub mod metrics;
mod node;
pub mod overload;
mod recovery;
mod socket;

pub use chaos::{FaultConfig, FaultDirections, FaultHandle, FaultSocket, FaultStats};
pub use engine::{
    relay_batch, relay_step, BatchReport, BatchScratch, RelayEngine, RelayScratch, RelayShard,
    RouteCache, StepReport,
};
pub use metrics::{
    BatchCells, BatchMetrics, RecoveryCells, RecoveryMetrics, RelayNodeMetrics, TransferObs,
};
/// The `(session, generation) → shard` map of the data path: the one
/// function that also places generations on a data center's VNF instances.
pub use ncvnf_dataplane::shard_of;
pub use node::{HeartbeatConfig, RelayConfig, RelayHandle, RelayNode, RelayStats};
pub use overload::{OverloadConfig, OverloadState, OverloadStats, QuotaConfig};
pub use recovery::{
    reliable_chain, send_object_reliable, RecoveryConfig, RecoveryStats, ReliableChainReport,
    ReliableReceiver, ReliableReport, TransferConfig,
};
pub use socket::{DatagramSocket, RecvBatch, SendBatch, MAX_BATCH};
