//! Galois field arithmetic for network coding.
//!
//! Randomized linear network coding (RLNC) combines packets with random
//! coefficients drawn from a finite field. The paper reproduced by this
//! workspace follows the common practice of coding over GF(2^8), "which was
//! observed to enable the maximum throughput among all field sizes". This
//! crate provides:
//!
//! * [`Gf256`] — the workhorse field GF(2^8), with a full 256x256
//!   multiplication table so that the bulk-slice hot path is a pair of table
//!   lookups per byte;
//! * [`Gf2`], [`Gf16`], [`Gf65536`] — smaller/larger fields used by the
//!   field-size ablation benches;
//! * the [`Field`] trait abstracting over all of them;
//! * [`bulk`] — slice kernels (`mul_slice`, `mul_add_slice`, the fused row
//!   combination `mul_add_rows`, ...) used by the encoder/decoder/recoder
//!   inner loops, with runtime-dispatched scalar/SWAR/SSSE3/AVX2/GFNI
//!   tiers (see [`bulk::KernelTier`]);
//! * [`Matrix`] — a dense matrix over any [`Field`] with Gaussian
//!   elimination, rank and inversion, used by the RLNC decoder and by tests.
//!
//! Only GF(2^8) is on a shipped data path. GF(2), GF(2^4), GF(2^16), the
//! polynomial arithmetic that defines them ([`carryless_mul`],
//! [`poly_mod`]) and the generic [`Matrix`] stay because
//! the field-size ablation (`ablation_field_size`) decodes random
//! generations over each field to reproduce the paper's claim that GF(2^8)
//! gives the best throughput of all field sizes; without them that claim
//! would be cited, not measured.
//!
//! # Examples
//!
//! ```
//! use ncvnf_gf256::{Field, Gf256};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! let product = a * b;
//! assert_eq!(product / b, a);
//! assert_eq!(a * Gf256::ONE, a);
//! assert_eq!(a + a, Gf256::ZERO); // characteristic 2
//! ```

// `deny` rather than `forbid`: the explicit x86_64 SIMD kernels in
// `bulk::x86` and `bulk::gfni` opt back in locally; everything else stays
// safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
mod field;
mod gf16;
mod gf2;
mod gf256;
mod gf65536;
mod matrix;
mod poly;

pub use field::Field;
pub use gf16::Gf16;
pub use gf2::Gf2;
pub use gf256::Gf256;
pub use gf65536::Gf65536;
pub use matrix::Matrix;
pub use poly::{carryless_mul, poly_mod};
