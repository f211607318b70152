//! Error types for the RLNC codec.

use std::error::Error;
use std::fmt;

/// Errors raised while configuring or running the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A generation/block configuration parameter was zero or too large.
    InvalidConfig {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// The supplied payload does not match the configured generation layout.
    PayloadSize {
        /// Bytes expected by the configuration.
        expected: usize,
        /// Bytes actually supplied.
        actual: usize,
    },
    /// A coefficient vector length did not match the generation size.
    CoefficientCount {
        /// Coefficients expected (= blocks per generation).
        expected: usize,
        /// Coefficients supplied.
        actual: usize,
    },
    /// Attempted to extract decoded data before the decoder reached full
    /// rank.
    NotDecoded {
        /// Current decoder rank.
        rank: usize,
        /// Rank required to decode (= blocks per generation).
        needed: usize,
    },
    /// A recoder was asked for a coded packet before buffering any input.
    EmptyRecoder,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidConfig { reason } => {
                write!(f, "invalid codec configuration: {reason}")
            }
            CodecError::PayloadSize { expected, actual } => {
                write!(
                    f,
                    "payload size mismatch: expected {expected} bytes, got {actual}"
                )
            }
            CodecError::CoefficientCount { expected, actual } => {
                write!(
                    f,
                    "coefficient count mismatch: expected {expected}, got {actual}"
                )
            }
            CodecError::NotDecoded { rank, needed } => {
                write!(f, "generation not decoded yet: rank {rank} of {needed}")
            }
            CodecError::EmptyRecoder => write!(f, "recoder buffer is empty"),
        }
    }
}

impl Error for CodecError {}

/// Errors raised while parsing an NC header from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// The datagram is shorter than the fixed header prefix.
    Truncated {
        /// Bytes needed for the fixed prefix plus coefficients.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// The magic byte identifying NC packets did not match.
    BadMagic {
        /// The byte found where the magic was expected.
        found: u8,
    },
    /// The packet-kind byte is one the parser refuses (a retired
    /// sliding-window kind).
    BadKind {
        /// The kind the parser was asked for.
        expected: u8,
        /// The kind byte found on the wire.
        found: u8,
    },
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated NC header: need {needed} bytes, have {available}"
                )
            }
            HeaderError::BadMagic { found } => {
                write!(f, "not an NC packet: bad magic byte {found:#04x}")
            }
            HeaderError::BadKind { expected, found } => {
                write!(
                    f,
                    "wrong NC packet kind: expected {expected:#04x}, found {found:#04x}"
                )
            }
        }
    }
}

impl Error for HeaderError {}
