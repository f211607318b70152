//! Control signals and their wire codec.
//!
//! "The signals below are designed to carry these messages from the
//! controller to the VNFs: `NC_START` ... `NC_VNF_START` ... `NC_VNF_END`
//! ... `NC_FORWARD_TAB` ... `NC_SETTINGS`" (Sec. III-A).
//!
//! Wire format: a 1-byte tag, a 4-byte big-endian body length, then the
//! body. Strings are UTF-8 with 2-byte length prefixes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ncvnf_rlnc::SessionId;
use std::error::Error;
use std::fmt;

/// The VNF role carried in `NC_SETTINGS`. Role byte 1 (a relay told to
/// "encode") is retired: it decodes as a malformed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VnfRoleWire {
    /// Decode packets near a destination.
    Decoder,
    /// Forward without coding.
    Forwarder,
    /// Recode inside the network (in-network VNF).
    Recoder,
}

impl VnfRoleWire {
    fn to_byte(self) -> u8 {
        match self {
            VnfRoleWire::Decoder => 2,
            VnfRoleWire::Forwarder => 3,
            VnfRoleWire::Recoder => 4,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            2 => Some(VnfRoleWire::Decoder),
            3 => Some(VnfRoleWire::Forwarder),
            4 => Some(VnfRoleWire::Recoder),
            _ => None,
        }
    }
}

/// A control-plane message from the controller to a daemon (or itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signal {
    /// Start network-coding-enabled transmission for a session.
    NcStart {
        /// The session to start.
        session: SessionId,
    },
    /// Launch `count` new VNFs (VMs) in the named data center.
    NcVnfStart {
        /// Data-center name (cloud-API region identifier).
        data_center: String,
        /// Number of VNFs to launch.
        count: u32,
    },
    /// Inform a VNF it is no longer used; it shuts down after `tau_secs`.
    NcVnfEnd {
        /// Grace period before the VM powers off.
        tau_secs: u32,
    },
    /// Replace the daemon's forwarding table (serialized text format).
    NcForwardTab {
        /// The table text (see [`crate::fwdtab`]).
        table: String,
    },
    /// Initial settings for a VNF: role, session, ports, layout.
    NcSettings {
        /// The session this configuration applies to.
        session: SessionId,
        /// The VNF's role for the session.
        role: VnfRoleWire,
        /// UDP port for NC data.
        data_port: u16,
        /// Block size in bytes.
        block_size: u32,
        /// Blocks per generation.
        generation_size: u32,
        /// Buffer capacity in generations.
        buffer_generations: u32,
    },
    /// Query a node's observability snapshot. The node replies with one
    /// JSON object ([`ncvnf_obs::Snapshot::to_json`] format) instead of
    /// the usual `OK`/`ERR` acknowledgement.
    NcStats,
    /// Provision (or revoke) a session's admission quota at a relay.
    /// The first quota a relay receives arms its admission regime;
    /// until then every datagram is admitted (pre-quota behavior).
    NcQuota {
        /// The session the quota applies to. Session 0 sets the default
        /// bucket for sessions without their own provision.
        session: SessionId,
        /// Token-bucket refill rate in packets per second. Zero blocks
        /// the session (or, for session 0, rejects unknown sessions).
        rate_pps: u32,
        /// Bucket depth in packets (burst tolerance).
        burst: u32,
        /// Reserved: kept so the frame's layout stays fixed; relays
        /// read it and ignore it.
        priority: u8,
    },
}

/// Wire-decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalError {
    /// Fewer bytes than a complete frame.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// Body contents inconsistent with the tag.
    Malformed(&'static str),
    /// A well-formed bare frame of a state-changing tag: only `NC_STATS`
    /// may travel outside the [`FencedSignal`] envelope.
    Unfenced(u8),
}

impl fmt::Display for SignalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalError::Truncated => write!(f, "truncated signal frame"),
            SignalError::UnknownTag(t) => write!(f, "unknown signal tag {t:#04x}"),
            SignalError::Malformed(what) => write!(f, "malformed signal body: {what}"),
            SignalError::Unfenced(t) => write!(f, "bare signal tag {t:#04x} needs a fence"),
        }
    }
}

impl Error for SignalError {}

const TAG_START: u8 = 1;
const TAG_VNF_START: u8 = 2;
const TAG_VNF_END: u8 = 3;
const TAG_FORWARD_TAB: u8 = 4;
const TAG_SETTINGS: u8 = 5;
const TAG_STATS: u8 = 6;
const TAG_FENCED: u8 = 7;
const TAG_QUOTA: u8 = 8;

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, SignalError> {
    if buf.len() < 2 {
        return Err(SignalError::Truncated);
    }
    let len = buf.get_u16() as usize;
    if buf.len() < len {
        return Err(SignalError::Truncated);
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| SignalError::Malformed("invalid utf-8"))?
        .to_owned();
    buf.advance(len);
    Ok(s)
}

impl Signal {
    /// Serializes the signal into one length-prefixed frame.
    pub fn to_bytes(&self) -> Bytes {
        let mut body = BytesMut::new();
        let tag = match self {
            Signal::NcStart { session } => {
                body.put_u16(session.value());
                TAG_START
            }
            Signal::NcVnfStart { data_center, count } => {
                put_string(&mut body, data_center);
                body.put_u32(*count);
                TAG_VNF_START
            }
            Signal::NcVnfEnd { tau_secs } => {
                body.put_u32(*tau_secs);
                TAG_VNF_END
            }
            Signal::NcForwardTab { table } => {
                body.put_u32(table.len() as u32);
                body.put_slice(table.as_bytes());
                TAG_FORWARD_TAB
            }
            Signal::NcSettings {
                session,
                role,
                data_port,
                block_size,
                generation_size,
                buffer_generations,
            } => {
                body.put_u16(session.value());
                body.put_u8(role.to_byte());
                body.put_u16(*data_port);
                body.put_u32(*block_size);
                body.put_u32(*generation_size);
                body.put_u32(*buffer_generations);
                TAG_SETTINGS
            }
            Signal::NcStats => TAG_STATS,
            Signal::NcQuota {
                session,
                rate_pps,
                burst,
                priority,
            } => {
                body.put_u16(session.value());
                body.put_u32(*rate_pps);
                body.put_u32(*burst);
                body.put_u8(*priority);
                TAG_QUOTA
            }
        };
        let mut frame = BytesMut::with_capacity(5 + body.len());
        frame.put_u8(tag);
        frame.put_u32(body.len() as u32);
        frame.put_slice(&body);
        frame.freeze()
    }

    /// Decodes one frame; returns the signal and the bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SignalError::Truncated`], [`SignalError::UnknownTag`] or
    /// [`SignalError::Malformed`].
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), SignalError> {
        if data.len() < 5 {
            return Err(SignalError::Truncated);
        }
        let tag = data[0];
        let len = u32::from_be_bytes([data[1], data[2], data[3], data[4]]) as usize;
        if data.len() < 5 + len {
            return Err(SignalError::Truncated);
        }
        let mut body = &data[5..5 + len];
        let sig = match tag {
            TAG_START => {
                if body.len() < 2 {
                    return Err(SignalError::Truncated);
                }
                Signal::NcStart {
                    session: SessionId::new(body.get_u16()),
                }
            }
            TAG_VNF_START => {
                let data_center = get_string(&mut body)?;
                if body.len() < 4 {
                    return Err(SignalError::Truncated);
                }
                Signal::NcVnfStart {
                    data_center,
                    count: body.get_u32(),
                }
            }
            TAG_VNF_END => {
                if body.len() < 4 {
                    return Err(SignalError::Truncated);
                }
                Signal::NcVnfEnd {
                    tau_secs: body.get_u32(),
                }
            }
            TAG_FORWARD_TAB => {
                let mut b = body;
                if b.len() < 4 {
                    return Err(SignalError::Truncated);
                }
                let tl = b.get_u32() as usize;
                if b.len() < tl {
                    return Err(SignalError::Truncated);
                }
                let table = std::str::from_utf8(&b[..tl])
                    .map_err(|_| SignalError::Malformed("invalid utf-8 table"))?
                    .to_owned();
                Signal::NcForwardTab { table }
            }
            TAG_SETTINGS => {
                if body.len() < 2 + 1 + 2 + 4 + 4 + 4 {
                    return Err(SignalError::Truncated);
                }
                let session = SessionId::new(body.get_u16());
                let role = VnfRoleWire::from_byte(body.get_u8())
                    .ok_or(SignalError::Malformed("bad role byte"))?;
                Signal::NcSettings {
                    session,
                    role,
                    data_port: body.get_u16(),
                    block_size: body.get_u32(),
                    generation_size: body.get_u32(),
                    buffer_generations: body.get_u32(),
                }
            }
            TAG_STATS => Signal::NcStats,
            TAG_QUOTA => {
                if body.len() < 2 + 4 + 4 + 1 {
                    return Err(SignalError::Truncated);
                }
                Signal::NcQuota {
                    session: SessionId::new(body.get_u16()),
                    rate_pps: body.get_u32(),
                    burst: body.get_u32(),
                    priority: body.get_u8(),
                }
            }
            t => return Err(SignalError::UnknownTag(t)),
        };
        Ok((sig, 5 + len))
    }
}

/// An epoch-fenced, sequence-numbered signal frame.
///
/// Every state-changing signal travels in this envelope (DESIGN.md §13),
/// so receivers can reject signals from a superseded controller
/// incarnation (`epoch` fencing) and acknowledge retransmitted
/// duplicates without re-applying them (`seq` idempotence); the rules
/// live in [`crate::Daemon`]. On the wire it is an ordinary signal frame
/// with tag 7 whose body is `epoch:u64 | seq:u64 | <inner signal frame>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FencedSignal {
    /// Controller incarnation: bumped on every restart. Receivers
    /// reject frames whose epoch is below the highest they have seen.
    pub epoch: u64,
    /// Per-(controller, destination) sequence number, starting at 1.
    /// Within one epoch a receiver applies each seq at most once.
    pub seq: u64,
    /// The wrapped control signal.
    pub signal: Signal,
}

impl FencedSignal {
    /// Serializes the fenced frame (tag 7, fence header, inner frame).
    pub fn to_bytes(&self) -> Bytes {
        let inner = self.signal.to_bytes();
        let mut body = BytesMut::with_capacity(16 + inner.len());
        body.put_u64(self.epoch);
        body.put_u64(self.seq);
        body.put_slice(&inner);
        let mut frame = BytesMut::with_capacity(5 + body.len());
        frame.put_u8(TAG_FENCED);
        frame.put_u32(body.len() as u32);
        frame.put_slice(&body);
        frame.freeze()
    }

    /// Decodes one fenced frame; returns the frame and bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SignalError::Truncated`], [`SignalError::UnknownTag`] (not a
    /// tag-7 frame, or unknown inner tag) or [`SignalError::Malformed`]
    /// (inner frame shorter than the declared body, or a fenced frame
    /// nested inside another fenced frame).
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), SignalError> {
        if data.len() < 5 {
            return Err(SignalError::Truncated);
        }
        if data[0] != TAG_FENCED {
            return Err(SignalError::UnknownTag(data[0]));
        }
        let len = u32::from_be_bytes([data[1], data[2], data[3], data[4]]) as usize;
        if data.len() < 5 + len {
            return Err(SignalError::Truncated);
        }
        let mut body = &data[5..5 + len];
        if body.len() < 16 {
            return Err(SignalError::Truncated);
        }
        let epoch = body.get_u64();
        let seq = body.get_u64();
        if !body.is_empty() && body[0] == TAG_FENCED {
            return Err(SignalError::Malformed("nested fenced frame"));
        }
        let (signal, used) = Signal::from_bytes(body)?;
        if used != body.len() {
            return Err(SignalError::Malformed("trailing bytes after inner frame"));
        }
        Ok((FencedSignal { epoch, seq, signal }, 5 + len))
    }
}

/// What a control socket accepts: a bare `NC_STATS` query (tag 6, a
/// read that needs no fence) or an epoch-fenced envelope (tag 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalFrame {
    /// A bare `NC_STATS` query.
    Stats,
    /// An epoch-fenced, sequence-numbered frame.
    Fenced(FencedSignal),
}

impl SignalFrame {
    /// Decodes one frame; returns it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Same as [`Signal::from_bytes`] / [`FencedSignal::from_bytes`], and
    /// [`SignalError::Unfenced`] for a well-formed bare frame of any tag
    /// but 6.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), SignalError> {
        if data.first() == Some(&TAG_FENCED) {
            let (fenced, used) = FencedSignal::from_bytes(data)?;
            return Ok((SignalFrame::Fenced(fenced), used));
        }
        match Signal::from_bytes(data)? {
            (Signal::NcStats, used) => Ok((SignalFrame::Stats, used)),
            _ => Err(SignalError::Unfenced(data[0])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Signal> {
        vec![
            Signal::NcStart {
                session: SessionId::new(7),
            },
            Signal::NcVnfStart {
                data_center: "ec2-oregon".into(),
                count: 3,
            },
            Signal::NcVnfEnd { tau_secs: 600 },
            Signal::NcForwardTab {
                table: "session 1 10.0.0.1:4000 10.0.0.2:4000\n".into(),
            },
            Signal::NcSettings {
                session: SessionId::new(9),
                role: VnfRoleWire::Forwarder,
                data_port: 4000,
                block_size: 1460,
                generation_size: 4,
                buffer_generations: 1024,
            },
            Signal::NcStats,
            Signal::NcQuota {
                session: SessionId::new(11),
                rate_pps: 50_000,
                burst: 256,
                priority: 2,
            },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for sig in samples() {
            let wire = sig.to_bytes();
            let (back, consumed) = Signal::from_bytes(&wire).unwrap();
            assert_eq!(back, sig);
            assert_eq!(consumed, wire.len());
        }
    }

    #[test]
    fn frames_concatenate() {
        let mut stream = Vec::new();
        for sig in samples() {
            stream.extend_from_slice(&sig.to_bytes());
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while offset < stream.len() {
            let (sig, used) = Signal::from_bytes(&stream[offset..]).unwrap();
            decoded.push(sig);
            offset += used;
        }
        assert_eq!(decoded, samples());
    }

    #[test]
    fn truncation_and_bad_tags_detected() {
        let wire = samples()[1].to_bytes();
        for cut in 0..wire.len() {
            assert_eq!(
                Signal::from_bytes(&wire[..cut]).unwrap_err(),
                SignalError::Truncated,
                "cut at {cut}"
            );
        }
        let mut bad = wire.to_vec();
        bad[0] = 0xEE;
        assert_eq!(
            Signal::from_bytes(&bad).unwrap_err(),
            SignalError::UnknownTag(0xEE)
        );
    }

    #[test]
    fn recoder_role_has_its_own_byte_and_legacy_bytes_are_stable() {
        // Bytes 2 and 3 keep their first meaning, Recoder has byte 4, and
        // the retired byte 1 decodes as nothing.
        assert_eq!(VnfRoleWire::Decoder.to_byte(), 2);
        assert_eq!(VnfRoleWire::Forwarder.to_byte(), 3);
        assert_eq!(VnfRoleWire::Recoder.to_byte(), 4);
        for b in 2..=4u8 {
            let role = VnfRoleWire::from_byte(b).unwrap();
            assert_eq!(role.to_byte(), b);
        }
        assert_eq!(VnfRoleWire::from_byte(1), None);
        let sig = Signal::NcSettings {
            session: SessionId::new(3),
            role: VnfRoleWire::Recoder,
            data_port: 4000,
            block_size: 1460,
            generation_size: 4,
            buffer_generations: 1024,
        };
        let (back, _) = Signal::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn fenced_frames_roundtrip_every_variant() {
        for (i, sig) in samples().into_iter().enumerate() {
            let fenced = FencedSignal {
                epoch: 3,
                seq: i as u64 + 1,
                signal: sig,
            };
            let wire = fenced.to_bytes();
            assert_eq!(wire[0], 7, "fenced frames use tag 7");
            let (back, used) = FencedSignal::from_bytes(&wire).unwrap();
            assert_eq!(back, fenced);
            assert_eq!(used, wire.len());
            // The control socket's decoder takes every fenced signal.
            let (frame, used2) = SignalFrame::from_bytes(&wire).unwrap();
            assert_eq!(frame, SignalFrame::Fenced(back));
            assert_eq!(used2, wire.len());
        }
        // Bare, it accepts only the NC_STATS read.
        for sig in samples() {
            let wire = sig.to_bytes();
            let expected = match sig {
                Signal::NcStats => Ok((SignalFrame::Stats, wire.len())),
                _ => Err(SignalError::Unfenced(wire[0])),
            };
            assert_eq!(SignalFrame::from_bytes(&wire), expected);
        }
    }

    #[test]
    fn fenced_truncation_and_junk_detected() {
        let fenced = FencedSignal {
            epoch: u64::MAX,
            seq: 42,
            signal: samples()[3].clone(),
        };
        let wire = fenced.to_bytes();
        for cut in 0..wire.len() {
            assert!(
                FencedSignal::from_bytes(&wire[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Trailing garbage inside the declared body is rejected, not
        // silently dropped.
        let mut padded = wire.to_vec();
        let len = u32::from_be_bytes([padded[1], padded[2], padded[3], padded[4]]);
        padded.push(0xAB);
        padded[1..5].copy_from_slice(&(len + 1).to_be_bytes());
        assert_eq!(
            FencedSignal::from_bytes(&padded).unwrap_err(),
            SignalError::Malformed("trailing bytes after inner frame")
        );
        // A fenced frame may not nest another fenced frame.
        let nested = FencedSignal {
            epoch: 1,
            seq: 1,
            signal: samples()[0].clone(),
        };
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&2u64.to_be_bytes());
        body.extend_from_slice(&nested.to_bytes());
        let mut outer = vec![7u8];
        outer.extend_from_slice(&(body.len() as u32).to_be_bytes());
        outer.extend_from_slice(&body);
        assert_eq!(
            FencedSignal::from_bytes(&outer).unwrap_err(),
            SignalError::Malformed("nested fenced frame")
        );
    }

    #[test]
    fn bad_role_byte_rejected() {
        let sig = Signal::NcSettings {
            session: SessionId::new(1),
            role: VnfRoleWire::Decoder,
            data_port: 1,
            block_size: 2,
            generation_size: 3,
            buffer_generations: 4,
        };
        let mut wire = sig.to_bytes().to_vec();
        for bad in [0, 1, 5, 0xFF] {
            wire[5 + 2] = bad; // role byte; 1 is the retired "encoder"
            assert_eq!(
                Signal::from_bytes(&wire).unwrap_err(),
                SignalError::Malformed("bad role byte")
            );
        }
    }
}
