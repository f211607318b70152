//! The controller's write-ahead journal.
//!
//! The paper's controller (Sec. III-A) holds every durable decision —
//! which sessions exist, which VNFs were launched, which forwarding
//! table each node was given, which instances linger in the τ-pool — in
//! memory only. This module makes those decisions crash-safe the way
//! SDN-controller reliability work (ONIX, Ravana) does: each decision is
//! appended to an append-only log *before* the matching signal leaves
//! the controller, and on restart the log is replayed into a
//! [`ControllerState`] that reconciliation (see [`crate::reconcile()`])
//! diffs against the live network.
//!
//! # Frame format
//!
//! ```text
//! | len: u32 BE | crc32(body): u32 BE | body: len bytes |
//! ```
//!
//! `body` is one [`ControlRecord`] (1-byte tag + fields, strings with
//! 2-byte length prefixes, `f64` as IEEE-754 bits). The CRC is the
//! IEEE 802.3 polynomial. A crash mid-append leaves a *torn tail*: a
//! frame whose length header, checksum, or body is incomplete. Replay
//! stops at the first invalid frame, reports it, and
//! [`Journal::open`] truncates the file back to the last valid prefix
//! so the journal is append-ready again — records are only trusted
//! once their checksum closes over them.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::{Buf, BufMut};
use ncvnf_deploy::{PoolState, VnfPool};
use ncvnf_rlnc::SessionId;

use crate::fwdtab::ForwardingTable;
use crate::metrics::ControlMetrics;
use crate::signal::SignalError;

/// Upper bound on a single record body. Anything larger in a length
/// header is garbage (a torn tail whose bytes happen to decode as a
/// huge length), not a record we ever wrote.
const MAX_RECORD_LEN: usize = 1 << 20;

const TAG_EPOCH_STARTED: u8 = 1;
const TAG_SESSION_CREATED: u8 = 2;
const TAG_SESSION_ENDED: u8 = 3;
const TAG_VNF_LAUNCHED: u8 = 4;
const TAG_VNF_ENDED: u8 = 5;
const TAG_VNF_REUSED: u8 = 6;
const TAG_TABLE_PUSHED: u8 = 7;
const TAG_POOL_EXPIRED: u8 = 8;
const TAG_SCALE_DECISION: u8 = 9;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) lookup table, built at
/// compile time so the crate needs no checksum dependency.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the frame checksum.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// One durable controller decision.
///
/// Records are written *before* the corresponding signal is sent
/// (write-ahead), so replaying them reconstructs what the controller
/// *intended* — reconciliation then checks what actually landed.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlRecord {
    /// A controller incarnation began. The first record of every run;
    /// restart writes `max(replayed epoch) + 1`.
    EpochStarted {
        /// The incarnation number.
        epoch: u64,
    },
    /// A multicast session was created with this generation layout.
    SessionCreated {
        /// Session id.
        session: SessionId,
        /// Block size in bytes.
        block_size: u32,
        /// Blocks per generation.
        generation_size: u32,
        /// Buffer capacity in generations.
        buffer_generations: u32,
    },
    /// A session ended.
    SessionEnded {
        /// Session id.
        session: SessionId,
    },
    /// A VNF was launched (or adopted) on a node.
    VnfLaunched {
        /// Controller-assigned node id.
        node: u32,
        /// Data-center name the instance runs in.
        data_center: String,
        /// The node's control-socket address (`ip:port`).
        control_addr: String,
    },
    /// `NC_VNF_END` was sent: the instance lingers in the τ-pool until
    /// `linger_deadline_secs` (controller clock, seconds).
    VnfEnded {
        /// Node id.
        node: u32,
        /// Absolute controller-clock deadline of the τ window.
        linger_deadline_secs: f64,
    },
    /// A lingering instance was reused before its τ deadline.
    VnfReused {
        /// Node id.
        node: u32,
    },
    /// An `NC_FORWARD_TAB` delta was pushed to a node under the given
    /// fence coordinates (see [`crate::signal::FencedSignal`]).
    TablePushed {
        /// Destination node id.
        node: u32,
        /// Controller epoch of the push.
        epoch: u64,
        /// Per-node sequence number of the push.
        seq: u64,
        /// The table delta, in [`ForwardingTable`] text form.
        table: String,
    },
    /// A τ-pool entry expired and the instance was shut down for good.
    PoolExpired {
        /// Node id.
        node: u32,
    },
    /// The autoscaler adopted a new deployment. Journaled (and
    /// committed) *before* any table or lifecycle signal of the
    /// decision leaves the controller, so a crash mid-actuation leaves
    /// an audit trail of what the scaling loop intended.
    ScaleDecision {
        /// Controller epoch the decision was made under.
        epoch: u64,
        /// Per-run decision counter (1-based).
        seq: u64,
        /// Total VNFs in the adopted deployment.
        vnfs: u32,
        /// Total multicast throughput of the adopted deployment (bps).
        rate_bps: f64,
    },
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.put_u16(s.len() as u16);
    out.extend_from_slice(s.as_bytes());
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

impl ControlRecord {
    /// Serializes the record body (tag + fields, no frame header).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ControlRecord::EpochStarted { epoch } => {
                out.put_u8(TAG_EPOCH_STARTED);
                out.put_u64(*epoch);
            }
            ControlRecord::SessionCreated {
                session,
                block_size,
                generation_size,
                buffer_generations,
            } => {
                out.put_u8(TAG_SESSION_CREATED);
                out.put_u16(session.value());
                out.put_u32(*block_size);
                out.put_u32(*generation_size);
                out.put_u32(*buffer_generations);
            }
            ControlRecord::SessionEnded { session } => {
                out.put_u8(TAG_SESSION_ENDED);
                out.put_u16(session.value());
            }
            ControlRecord::VnfLaunched {
                node,
                data_center,
                control_addr,
            } => {
                out.put_u8(TAG_VNF_LAUNCHED);
                out.put_u32(*node);
                put_string(&mut out, data_center);
                put_string(&mut out, control_addr);
            }
            ControlRecord::VnfEnded {
                node,
                linger_deadline_secs,
            } => {
                out.put_u8(TAG_VNF_ENDED);
                out.put_u32(*node);
                out.put_u64(linger_deadline_secs.to_bits());
            }
            ControlRecord::VnfReused { node } => {
                out.put_u8(TAG_VNF_REUSED);
                out.put_u32(*node);
            }
            ControlRecord::TablePushed {
                node,
                epoch,
                seq,
                table,
            } => {
                out.put_u8(TAG_TABLE_PUSHED);
                out.put_u32(*node);
                out.put_u64(*epoch);
                out.put_u64(*seq);
                out.put_u32(table.len() as u32);
                out.extend_from_slice(table.as_bytes());
            }
            ControlRecord::PoolExpired { node } => {
                out.put_u8(TAG_POOL_EXPIRED);
                out.put_u32(*node);
            }
            ControlRecord::ScaleDecision {
                epoch,
                seq,
                vnfs,
                rate_bps,
            } => {
                out.put_u8(TAG_SCALE_DECISION);
                out.put_u64(*epoch);
                out.put_u64(*seq);
                out.put_u32(*vnfs);
                out.put_u64(rate_bps.to_bits());
            }
        }
        out
    }

    /// Decodes one record body; returns the record and bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SignalError::Truncated`], [`SignalError::UnknownTag`] or
    /// [`SignalError::Malformed`] — the same error shapes as the signal
    /// codec, since the failure modes are identical.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), SignalError> {
        if data.is_empty() {
            return Err(SignalError::Truncated);
        }
        let tag = data[0];
        let mut body = &data[1..];
        let before = body.len();
        let record = match tag {
            TAG_EPOCH_STARTED => {
                if body.len() < 8 {
                    return Err(SignalError::Truncated);
                }
                ControlRecord::EpochStarted {
                    epoch: body.get_u64(),
                }
            }
            TAG_SESSION_CREATED => {
                if body.len() < 2 + 4 + 4 + 4 {
                    return Err(SignalError::Truncated);
                }
                ControlRecord::SessionCreated {
                    session: SessionId::new(body.get_u16()),
                    block_size: body.get_u32(),
                    generation_size: body.get_u32(),
                    buffer_generations: body.get_u32(),
                }
            }
            TAG_SESSION_ENDED => {
                if body.len() < 2 {
                    return Err(SignalError::Truncated);
                }
                ControlRecord::SessionEnded {
                    session: SessionId::new(body.get_u16()),
                }
            }
            TAG_VNF_LAUNCHED => {
                if body.len() < 4 {
                    return Err(SignalError::Truncated);
                }
                let node = body.get_u32();
                let data_center = get_string(&mut body)?;
                let control_addr = get_string(&mut body)?;
                ControlRecord::VnfLaunched {
                    node,
                    data_center,
                    control_addr,
                }
            }
            TAG_VNF_ENDED => {
                if body.len() < 4 + 8 {
                    return Err(SignalError::Truncated);
                }
                let node = body.get_u32();
                let bits = body.get_u64();
                let deadline = f64::from_bits(bits);
                if !deadline.is_finite() {
                    return Err(SignalError::Malformed("non-finite linger deadline"));
                }
                ControlRecord::VnfEnded {
                    node,
                    linger_deadline_secs: deadline,
                }
            }
            TAG_VNF_REUSED => {
                if body.len() < 4 {
                    return Err(SignalError::Truncated);
                }
                ControlRecord::VnfReused {
                    node: body.get_u32(),
                }
            }
            TAG_TABLE_PUSHED => {
                if body.len() < 4 + 8 + 8 + 4 {
                    return Err(SignalError::Truncated);
                }
                let node = body.get_u32();
                let epoch = body.get_u64();
                let seq = body.get_u64();
                let tl = body.get_u32() as usize;
                if body.len() < tl {
                    return Err(SignalError::Truncated);
                }
                let table = std::str::from_utf8(&body[..tl])
                    .map_err(|_| SignalError::Malformed("invalid utf-8 table"))?
                    .to_owned();
                body.advance(tl);
                ControlRecord::TablePushed {
                    node,
                    epoch,
                    seq,
                    table,
                }
            }
            TAG_POOL_EXPIRED => {
                if body.len() < 4 {
                    return Err(SignalError::Truncated);
                }
                ControlRecord::PoolExpired {
                    node: body.get_u32(),
                }
            }
            TAG_SCALE_DECISION => {
                if body.len() < 8 + 8 + 4 + 8 {
                    return Err(SignalError::Truncated);
                }
                let epoch = body.get_u64();
                let seq = body.get_u64();
                let vnfs = body.get_u32();
                let rate_bps = f64::from_bits(body.get_u64());
                if !rate_bps.is_finite() {
                    return Err(SignalError::Malformed("non-finite decision rate"));
                }
                ControlRecord::ScaleDecision {
                    epoch,
                    seq,
                    vnfs,
                    rate_bps,
                }
            }
            t => return Err(SignalError::UnknownTag(t)),
        };
        Ok((record, 1 + (before - body.len())))
    }
}

/// What the journal believes about one node's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeStatus {
    /// Serving traffic.
    Active,
    /// `NC_VNF_END` sent; lingering in the τ-pool until the deadline.
    Draining {
        /// Absolute controller-clock deadline of the τ window.
        deadline_secs: f64,
    },
}

/// The journal's belief about one node: where it is, what table it
/// holds, and the fence coordinates of the last push it was sent.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBelief {
    /// Data-center name.
    pub data_center: String,
    /// Control-socket address (`ip:port`).
    pub control_addr: String,
    /// The forwarding table the node should hold (all pushed deltas,
    /// merged in order).
    pub table: ForwardingTable,
    /// Epoch of the last table push journaled for this node.
    pub last_epoch: u64,
    /// Sequence number of the last table push journaled for this node.
    pub last_seq: u64,
    /// Lifecycle status.
    pub status: NodeStatus,
}

/// A session's generation layout, as journaled at creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Block size in bytes.
    pub block_size: u32,
    /// Blocks per generation.
    pub generation_size: u32,
    /// Buffer capacity in generations.
    pub buffer_generations: u32,
}

/// The controller state reconstructed by replaying the journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerState {
    /// Highest epoch journaled so far (0 if the journal is empty).
    pub epoch: u64,
    /// Live sessions and their layouts.
    pub sessions: BTreeMap<SessionId, SessionSpec>,
    /// Per-node beliefs, keyed by node id.
    pub nodes: BTreeMap<u32, NodeBelief>,
    /// Highest autoscaler decision sequence journaled (0 if none); a
    /// restarting autoscaler continues its decision counter from here.
    pub scale_decisions: u64,
}

impl ControllerState {
    /// Replays records in order into a state. Records that reference a
    /// node never launched (possible only with a hand-edited journal)
    /// are ignored rather than trusted.
    pub fn replay(records: &[ControlRecord]) -> Self {
        let mut state = ControllerState::default();
        for record in records {
            match record {
                ControlRecord::EpochStarted { epoch } => {
                    state.epoch = state.epoch.max(*epoch);
                }
                ControlRecord::SessionCreated {
                    session,
                    block_size,
                    generation_size,
                    buffer_generations,
                } => {
                    state.sessions.insert(
                        *session,
                        SessionSpec {
                            block_size: *block_size,
                            generation_size: *generation_size,
                            buffer_generations: *buffer_generations,
                        },
                    );
                }
                ControlRecord::SessionEnded { session } => {
                    state.sessions.remove(session);
                }
                ControlRecord::VnfLaunched {
                    node,
                    data_center,
                    control_addr,
                } => {
                    state.nodes.insert(
                        *node,
                        NodeBelief {
                            data_center: data_center.clone(),
                            control_addr: control_addr.clone(),
                            table: ForwardingTable::new(),
                            last_epoch: 0,
                            last_seq: 0,
                            status: NodeStatus::Active,
                        },
                    );
                }
                ControlRecord::VnfEnded {
                    node,
                    linger_deadline_secs,
                } => {
                    if let Some(belief) = state.nodes.get_mut(node) {
                        belief.status = NodeStatus::Draining {
                            deadline_secs: *linger_deadline_secs,
                        };
                    }
                }
                ControlRecord::VnfReused { node } => {
                    if let Some(belief) = state.nodes.get_mut(node) {
                        belief.status = NodeStatus::Active;
                    }
                }
                ControlRecord::TablePushed {
                    node,
                    epoch,
                    seq,
                    table,
                } => {
                    if let Some(belief) = state.nodes.get_mut(node) {
                        if let Ok(delta) = ForwardingTable::parse(table) {
                            belief.table.merge(&delta);
                        }
                        belief.last_epoch = *epoch;
                        belief.last_seq = *seq;
                    }
                }
                ControlRecord::PoolExpired { node } => {
                    state.nodes.remove(node);
                }
                ControlRecord::ScaleDecision { seq, .. } => {
                    state.scale_decisions = state.scale_decisions.max(*seq);
                }
            }
        }
        state
    }

    /// The epoch a restarting controller must fence its signals with:
    /// one above everything ever journaled.
    pub fn next_epoch(&self) -> u64 {
        self.epoch + 1
    }

    /// Rebuilds the [`VnfPool`] from the replayed node statuses: every
    /// `Active` node is an active instance, every `Draining` node is a
    /// lingering instance with its journaled deadline. Ticking the
    /// returned pool with the current clock expires every τ window that
    /// closed while the controller was down.
    pub fn rebuild_pool(&self, tau: f64, launch_latency: f64) -> VnfPool {
        let mut pool = PoolState {
            tau,
            launch_latency,
            ..PoolState::default()
        };
        for belief in self.nodes.values() {
            match belief.status {
                NodeStatus::Active => pool.active += 1,
                NodeStatus::Draining { deadline_secs } => pool.lingering.push(deadline_secs),
            }
        }
        pool.total_launches = pool.active + pool.lingering.len() as u64;
        VnfPool::import(pool)
    }
}

/// What replay found in the journal file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Valid records replayed.
    pub records: u64,
    /// True if the file ended in an incomplete or corrupt frame.
    pub torn_tail: bool,
    /// Bytes discarded from the torn tail (0 when clean).
    pub truncated_bytes: u64,
}

/// Scans `bytes` for consecutive valid frames. Returns the decoded
/// records and the length of the valid prefix — everything past it is
/// a torn tail.
pub fn scan_frames(bytes: &[u8]) -> (Vec<ControlRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_RECORD_LEN || rest.len() < 8 + len {
            break;
        }
        let crc = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let body = &rest[8..8 + len];
        if crc32(body) != crc {
            break;
        }
        match ControlRecord::from_bytes(body) {
            Ok((record, used)) if used == len => {
                records.push(record);
                offset += 8 + len;
            }
            _ => break,
        }
    }
    (records, offset)
}

/// The append half of the write-ahead log.
///
/// Appends buffer in memory; [`commit`](Self::commit) writes them out
/// and `fsync`s, so callers group the records of one decision into one
/// durable batch. [`log`](Self::log) is the single-record convenience.
/// Dropping the journal flushes best-effort, but only a returned
/// `Ok(())` from `commit` proves durability.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    pending: Vec<u8>,
    metrics: Option<ControlMetrics>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays every valid
    /// record into a [`ControllerState`], and truncates any torn tail
    /// so the file is append-ready.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(
        path: impl AsRef<Path>,
    ) -> std::io::Result<(Journal, ControllerState, ReplayReport)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = scan_frames(&bytes);
        let torn = valid_len < bytes.len();
        if torn {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let state = ControllerState::replay(&records);
        let report = ReplayReport {
            records: records.len() as u64,
            torn_tail: torn,
            truncated_bytes: (bytes.len() - valid_len) as u64,
        };
        Ok((
            Journal {
                file,
                path,
                pending: Vec::new(),
                metrics: None,
            },
            state,
            report,
        ))
    }

    /// Attaches a metrics bundle; appends and commits record into it.
    pub fn with_metrics(mut self, metrics: ControlMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffers one record (frame-encoded) for the next commit.
    pub fn append(&mut self, record: &ControlRecord) {
        let body = record.to_bytes();
        self.pending.reserve(8 + body.len());
        self.pending
            .extend_from_slice(&(body.len() as u32).to_be_bytes());
        self.pending.extend_from_slice(&crc32(&body).to_be_bytes());
        self.pending.extend_from_slice(&body);
        if let Some(m) = &self.metrics {
            m.journal_appends.inc();
        }
    }

    /// Writes all buffered records and `fsync`s. A decision is durable
    /// only once this returns `Ok(())`.
    ///
    /// # Errors
    ///
    /// Propagates write/sync errors; buffered records stay pending so a
    /// retry can complete the batch.
    pub fn commit(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        self.file.write_all(&self.pending)?;
        self.file.sync_data()?;
        self.pending.clear();
        if let Some(m) = &self.metrics {
            m.journal_commit_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Appends one record and commits it immediately (write-ahead for a
    /// single decision).
    ///
    /// # Errors
    ///
    /// Propagates write/sync errors.
    pub fn log(&mut self, record: &ControlRecord) -> std::io::Result<()> {
        self.append(record);
        self.commit()
    }
}

impl Drop for Journal {
    /// Best-effort flush of anything still pending; errors are dropped
    /// because there is no one left to retry.
    fn drop(&mut self) {
        let _ = self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<ControlRecord> {
        vec![
            ControlRecord::EpochStarted { epoch: 1 },
            ControlRecord::SessionCreated {
                session: SessionId::new(7),
                block_size: 1460,
                generation_size: 4,
                buffer_generations: 1024,
            },
            ControlRecord::VnfLaunched {
                node: 0,
                data_center: "ec2-oregon".into(),
                control_addr: "127.0.0.1:4100".into(),
            },
            ControlRecord::VnfLaunched {
                node: 1,
                data_center: "linode-london".into(),
                control_addr: "127.0.0.1:4200".into(),
            },
            ControlRecord::TablePushed {
                node: 0,
                epoch: 1,
                seq: 1,
                table: "session 7 127.0.0.1:4201\n".into(),
            },
            ControlRecord::VnfEnded {
                node: 1,
                linger_deadline_secs: 700.0,
            },
            ControlRecord::VnfReused { node: 1 },
            ControlRecord::ScaleDecision {
                epoch: 1,
                seq: 1,
                vnfs: 2,
                rate_bps: 150e6,
            },
        ]
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ncvnf-journal-test-{}-{tag}.wal",
            std::process::id()
        ))
    }

    #[test]
    fn record_codec_roundtrips() {
        for record in sample_records().iter().chain(&[
            ControlRecord::SessionEnded {
                session: SessionId::new(7),
            },
            ControlRecord::PoolExpired { node: 3 },
        ]) {
            let bytes = record.to_bytes();
            let (back, used) = ControlRecord::from_bytes(&bytes).unwrap();
            assert_eq!(&back, record);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn truncated_records_error_cleanly() {
        for record in sample_records() {
            let bytes = record.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    ControlRecord::from_bytes(&bytes[..cut]).is_err(),
                    "cut at {cut} of {record:?}"
                );
            }
        }
        assert_eq!(
            ControlRecord::from_bytes(&[0xEE]).unwrap_err(),
            SignalError::UnknownTag(0xEE)
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn journal_roundtrips_through_a_file() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, state, report) = Journal::open(&path).unwrap();
            assert_eq!(state, ControllerState::default());
            assert_eq!(report.records, 0);
            assert!(!report.torn_tail);
            for record in sample_records() {
                journal.append(&record);
            }
            journal.commit().unwrap();
        }
        let (_journal, state, report) = Journal::open(&path).unwrap();
        assert_eq!(report.records, sample_records().len() as u64);
        assert!(!report.torn_tail);
        assert_eq!(state.epoch, 1);
        assert_eq!(
            state.sessions.get(&SessionId::new(7)),
            Some(&SessionSpec {
                block_size: 1460,
                generation_size: 4,
                buffer_generations: 1024,
            })
        );
        let n0 = &state.nodes[&0];
        assert_eq!(n0.last_seq, 1);
        assert_eq!(
            n0.table.next_hops(SessionId::new(7)).unwrap(),
            ["127.0.0.1:4201"]
        );
        // Node 1 drained, then was reused: Active again.
        assert_eq!(state.nodes[&1].status, NodeStatus::Active);
        // The autoscaler's decision counter resumes past the journal.
        assert_eq!(state.scale_decisions, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_append_continues() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _, _) = Journal::open(&path).unwrap();
            journal
                .log(&ControlRecord::EpochStarted { epoch: 1 })
                .unwrap();
            journal.log(&ControlRecord::VnfReused { node: 9 }).unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a frame header promising more
        // bytes than exist, followed by part of a body.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&200u32.to_be_bytes()).unwrap();
            f.write_all(&[0xAA, 0xBB, 0xCC, 0xDD, 1, 2, 3]).unwrap();
        }
        let (mut journal, state, report) = Journal::open(&path).unwrap();
        assert_eq!(report.records, 2);
        assert!(report.torn_tail);
        assert_eq!(report.truncated_bytes, 11);
        assert_eq!(state.epoch, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The journal is append-ready again.
        journal
            .log(&ControlRecord::EpochStarted { epoch: 2 })
            .unwrap();
        drop(journal);
        let (_j, state, report) = Journal::open(&path).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(report.records, 3);
        assert_eq!(state.epoch, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_last_good_record() {
        let path = temp_path("crc");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _, _) = Journal::open(&path).unwrap();
            journal
                .log(&ControlRecord::EpochStarted { epoch: 5 })
                .unwrap();
            journal
                .log(&ControlRecord::VnfLaunched {
                    node: 2,
                    data_center: "dc".into(),
                    control_addr: "127.0.0.1:1".into(),
                })
                .unwrap();
        }
        // Flip one byte in the last record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_j, state, report) = Journal::open(&path).unwrap();
        assert_eq!(report.records, 1, "corrupt record discarded");
        assert!(report.torn_tail);
        assert_eq!(state.epoch, 5);
        assert!(state.nodes.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pool_rebuild_reflects_statuses_and_expires_overdue_lingerers() {
        let records = vec![
            ControlRecord::EpochStarted { epoch: 1 },
            ControlRecord::VnfLaunched {
                node: 0,
                data_center: "dc".into(),
                control_addr: "127.0.0.1:1".into(),
            },
            ControlRecord::VnfLaunched {
                node: 1,
                data_center: "dc".into(),
                control_addr: "127.0.0.1:2".into(),
            },
            ControlRecord::VnfEnded {
                node: 1,
                linger_deadline_secs: 300.0,
            },
        ];
        let state = ControllerState::replay(&records);
        let mut pool = state.rebuild_pool(600.0, 35.0);
        assert_eq!(pool.active(), 1);
        assert_eq!(pool.billable(100.0), 2, "lingerer still billed before τ");
        // The controller was down past the deadline: expire it.
        pool.tick(301.0);
        assert_eq!(pool.billable(301.0), 1);
        assert_eq!(state.next_epoch(), 2);
    }

    #[test]
    fn replay_is_deterministic() {
        let records = sample_records();
        assert_eq!(
            ControllerState::replay(&records),
            ControllerState::replay(&records)
        );
    }
}
