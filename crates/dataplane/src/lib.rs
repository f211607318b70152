//! The data plane: virtual network coding functions.
//!
//! This crate implements the paper's Sec. III-B packet path:
//!
//! * a [`CodingVnf`] holds per-session state — its role (encode / recode /
//!   decode / forward), a FIFO [`SessionBuffer`] of up to 1024 generations,
//!   and counters — and turns each received NC packet into zero or more
//!   output packets *in a pipelined fashion* ("an intermediate VNF
//!   generates an encoded packet immediately after it receives a packet
//!   from the same session and generation"; the first packet of a
//!   generation is simply forwarded);
//! * a [`Dispatcher`] spreads sessions across multiple VNF instances in
//!   one data center, keeping all packets of a generation on the same
//!   instance ("packets belonging to the same generation are dispatched
//!   to the same VNF instance");
//! * [`CodingCostModel`] prices the CPU work of coding, standing in for
//!   the paper's DPDK-measured per-packet cost and driving the
//!   generation-size throughput tradeoff of Fig. 4;
//! * simulator adapters ([`ObjectSource`], [`VnfNode`], [`ReceiverNode`])
//!   that run the same logic inside `ncvnf-netsim`, including the
//!   NACK-based retransmission the paper's receivers rely on at NC0 and
//!   the first-generation ACK used for the delay measurements of
//!   Table II.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod cost;
mod decoded;
mod dispatch;
mod feedback;
pub mod metrics;
mod role;
mod sim_nodes;
mod vnf;

pub use buffer::{BufferStats, SessionBuffer};
pub use cost::CodingCostModel;
pub use decoded::{chunk_generation, DecodedChunk, PlainReceiver};
pub use dispatch::Dispatcher;
pub use feedback::{Feedback, FeedbackError, FeedbackKind, FEEDBACK_LEN, FEEDBACK_MAGIC};
pub use metrics::VnfMetrics;
pub use role::VnfRole;
pub use sim_nodes::{NextHop, ObjectSource, ReceiverNode, SourceConfig, VnfNode};
pub use vnf::{CodingVnf, Sink, VnfDecision, VnfStats};

/// UDP-style port carrying NC data packets.
pub const NC_DATA_PORT: u16 = 4000;
/// UDP-style port carrying feedback (ACK/NACK) packets.
pub const NC_FEEDBACK_PORT: u16 = 4001;
/// UDP-style port carrying decoded (plain) payload from a decoder VNF to
/// a destination without decoding capability.
pub const NC_DECODED_PORT: u16 = 4002;
