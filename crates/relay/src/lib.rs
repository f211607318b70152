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
//! * [`send_object`]/[`ObjectReceiver`] — the file-transfer application
//!   from the evaluation: a source streams a coded object, receivers
//!   decode and verify it byte-exactly;
//! * [`chain`] — helpers that assemble source → relays → receiver
//!   pipelines on 127.0.0.1 and report timing;
//! * [`DatagramSocket`]/[`FaultSocket`] — the chaos harness: every loop
//!   in this crate is generic over a socket trait, and the fault wrapper
//!   injects deterministic seeded drop/duplicate/reorder/delay (and
//!   crash-after-N) into the live path;
//! * [`send_object_reliable`]/[`ReliableReceiver`] — feedback-driven
//!   loss recovery: NACK/ACK over the `ncvnf-dataplane` feedback codec,
//!   bounded retransmission with exponential backoff, and AIMD-adaptive
//!   redundancy;
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
mod transfer;

pub use chaos::{FaultConfig, FaultDirections, FaultHandle, FaultSocket, FaultStats};
pub use engine::{
    relay_batch, relay_step, shard_of, BatchReport, BatchScratch, RelayEngine, RelayScratch,
    RelayShard, RouteCache, StepReport,
};
pub use metrics::{BatchMetrics, RecoveryMetrics, RelayNodeMetrics, TransferObs};
pub use node::{HeartbeatConfig, RelayConfig, RelayHandle, RelayNode, RelayStats};
pub use overload::{Admission, OverloadConfig, OverloadState, OverloadStats, QuotaConfig};
pub use recovery::{
    reliable_chain, send_object_reliable, send_window_reliable, RecoveryConfig, RecoveryStats,
    ReliableChainReport, ReliableReceiver, WindowSendStats, WindowStreamReceiver,
    WindowStreamReport,
};
pub use socket::{DatagramSocket, RecvBatch, SendBatch, MAX_BATCH};
pub use transfer::{chain, send_object, ObjectReceiver, ReceiverReport, TransferConfig};
