//! Randomized linear network coding (RLNC) over GF(2^8).
//!
//! This crate implements the data-plane coding scheme of *"Virtualized
//! Network Coding Functions on The Internet"* (ICDCS 2017):
//!
//! * source data is divided into **generations**, each further divided into
//!   **blocks** (default: 4 blocks of 1460 bytes — the MTU-fitting layout
//!   the paper derives in Sec. III-B);
//! * an **encoded block** is a random linear combination of the blocks in
//!   one generation, with coefficients drawn uniformly from GF(2^8);
//! * each coded packet carries an **NC header** (session id, generation id,
//!   coefficient vector) between the UDP header and the payload;
//! * intermediate nodes **recode**: fresh random combinations of whatever
//!   coded packets they have buffered for a generation, computed in a
//!   pipelined fashion (the first packet of a generation is forwarded
//!   verbatim — exactly the behaviour described in Sec. III-B-2);
//! * receivers run a **progressive Gaussian-elimination decoder** and can
//!   reconstruct a generation from any `g` linearly independent packets.
//!
//! # Quick start
//!
//! ```
//! use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, GenerationDecoder};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), ncvnf_rlnc::CodecError> {
//! let cfg = GenerationConfig::new(64, 4)?;
//! let data = vec![7u8; cfg.generation_payload()];
//! let encoder = GenerationEncoder::new(cfg, &data)?;
//! let mut decoder = GenerationDecoder::new(cfg);
//! let mut rng = StdRng::seed_from_u64(42);
//! while !decoder.is_complete() {
//!     let pkt = encoder.coded_packet(0.into(), 0, &mut rng);
//!     let _ = decoder.receive(pkt.coefficients(), pkt.payload());
//! }
//! assert_eq!(decoder.decoded_payload().unwrap(), data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod decoder;
mod encoder;
mod error;
mod header;
pub mod metrics;
mod object;
mod pool;
mod rank;
mod recoder;
mod redundancy;
pub mod window;

pub use config::{CodingMode, GenerationConfig};
pub use decoder::{GenerationDecoder, ReceiveOutcome};
pub use encoder::GenerationEncoder;
pub use error::{CodecError, HeaderError};
pub use header::{
    wire_kind, CodedPacket, PacketView, SessionId, WindowAck, WireKind, NC_KIND_WINDOW,
    NC_KIND_WINDOW_ACK, NC_MAGIC, NC_VERSION,
};
pub use metrics::{PoolMetrics, RlncMetrics};
pub use object::{ObjectDecoder, ObjectEncoder};
pub use pool::{PayloadPool, PoolStats};
pub use rank::RankTracker;
pub use recoder::Recoder;
pub use redundancy::{AdaptiveRedundancy, AimdConfig, RedundancyPolicy};
pub use window::{WindowConfig, WindowDecoder, WindowEncoder, WindowOutcome, WindowRecoder};

/// Probability that a uniformly random `g x g` matrix over GF(q) is
/// invertible: `Π_{i=1..g} (1 - q^{-i})`.
///
/// This is the success probability of decoding from exactly `g` random
/// coded packets, and drives the field-size ablation (the paper cites
/// GF(2^8) as the throughput-optimal choice).
///
/// # Examples
///
/// ```
/// let p = ncvnf_rlnc::invertibility_probability(256.0, 4);
/// assert!(p > 0.99 && p < 1.0);
/// ```
pub fn invertibility_probability(field_order: f64, generation_size: u32) -> f64 {
    (1..=generation_size)
        .map(|i| 1.0 - field_order.powi(-(i as i32)))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invertibility_monotone_in_field_order() {
        let p2 = invertibility_probability(2.0, 4);
        let p16 = invertibility_probability(16.0, 4);
        let p256 = invertibility_probability(256.0, 4);
        assert!(p2 < p16 && p16 < p256);
        // Classic constant: over GF(2) the probability tends to ~0.2888.
        let p2_large = invertibility_probability(2.0, 64);
        assert!((p2_large - 0.2888).abs() < 0.001);
    }
}
