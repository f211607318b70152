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
//!
//! # Preallocation
//!
//! A commit that grows the file makes its `fdatasync` commit the new
//! file size as well as the records. So the journal writes into space
//! that is already zero-filled and durable: the commit whose records
//! cross the allocated end carries zeros up to the next allocation
//! boundary in the same write, and every other commit overwrites zeros
//! and flushes data only. The allocation doubles from one 4 KiB page to
//! 64 KiB, then grows in 64 KiB chunks, so a new journal's first commit
//! flushes one page, as an append would. A running journal's file is
//! therefore longer than its records. Zeros past the last valid frame
//! are padding, not a tear: `open` cuts them off without reporting a
//! torn tail, and a cleanly dropped journal trims the file back to its
//! frames.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::{Buf, BufMut};
use ncvnf_rlnc::SessionId;

use crate::fwdtab::ForwardingTable;
use crate::metrics::ControlMetrics;
use crate::signal::SignalError;

/// Upper bound on a single record body. Anything larger in a length
/// header is garbage (a torn tail whose bytes happen to decode as a
/// huge length), not a record we ever wrote.
const MAX_RECORD_LEN: usize = 1 << 20;

/// Past its first chunk, the journal file grows in steps of this many
/// bytes, zero-filled and made durable by the commit that crosses the
/// allocated end.
const CHUNK: u64 = 64 << 10;

/// The smallest allocation; below [`CHUNK`] it doubles.
const PAGE: u64 = 4 << 10;

/// The source of the zero padding, written as many times as the padding
/// needs so that padding allocates nothing.
static ZERO_PAGE: [u8; PAGE as usize] = [0; PAGE as usize];

/// The file size a journal whose records end at `end` allocates: the
/// next power of two from [`PAGE`] to [`CHUNK`], then the next multiple
/// of [`CHUNK`]. The padding past `end` is always below [`CHUNK`].
fn allocation(end: u64) -> u64 {
    if end <= CHUNK {
        end.next_power_of_two().max(PAGE)
    } else {
        end.next_multiple_of(CHUNK)
    }
}

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
    /// An instance is re-armed with its settings: a lingering one reused
    /// before its τ deadline, or one that answered again after missed
    /// sweeps (it may have been drained unseen). Replay makes it Active.
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
    /// The forwarding table the node should hold: every pushed delta,
    /// merged in order, with each withdrawn session kept as an entry with
    /// no next hop.
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
    /// Replays records in order into a state: [`apply`](Self::apply) on
    /// each, from the empty state.
    pub fn replay(records: &[ControlRecord]) -> Self {
        let mut state = ControllerState::default();
        for record in records {
            state.apply(record);
        }
        state
    }

    /// Advances the state by one record. A record that references a node
    /// never launched (possible only with a hand-edited journal) is
    /// ignored rather than trusted. A table push's withdrawals stay in the
    /// node's table as entries with no next hop, so that a re-push of the
    /// believed table carries them.
    pub fn apply(&mut self, record: &ControlRecord) {
        match record {
            ControlRecord::EpochStarted { epoch } => {
                self.epoch = self.epoch.max(*epoch);
            }
            ControlRecord::SessionCreated {
                session,
                block_size,
                generation_size,
                buffer_generations,
            } => {
                self.sessions.insert(
                    *session,
                    SessionSpec {
                        block_size: *block_size,
                        generation_size: *generation_size,
                        buffer_generations: *buffer_generations,
                    },
                );
            }
            ControlRecord::SessionEnded { session } => {
                self.sessions.remove(session);
            }
            ControlRecord::VnfLaunched {
                node,
                data_center,
                control_addr,
            } => {
                self.nodes.insert(
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
                if let Some(belief) = self.nodes.get_mut(node) {
                    belief.status = NodeStatus::Draining {
                        deadline_secs: *linger_deadline_secs,
                    };
                }
            }
            ControlRecord::VnfReused { node } => {
                if let Some(belief) = self.nodes.get_mut(node) {
                    belief.status = NodeStatus::Active;
                }
            }
            ControlRecord::TablePushed {
                node,
                epoch,
                seq,
                table,
            } => {
                if let Some(belief) = self.nodes.get_mut(node) {
                    if let Ok(push) = ForwardingTable::parse(table) {
                        belief.table.merge(&push);
                        for (session, _) in push.iter().filter(|(_, hops)| hops.is_empty()) {
                            belief.table.set(session, Vec::new());
                        }
                    }
                    belief.last_epoch = *epoch;
                    belief.last_seq = *seq;
                }
            }
            ControlRecord::PoolExpired { node } => {
                self.nodes.remove(node);
            }
            ControlRecord::ScaleDecision { seq, .. } => {
                self.scale_decisions = self.scale_decisions.max(*seq);
            }
        }
    }

    /// The epoch a restarting controller must fence its signals with:
    /// one above everything ever journaled.
    pub fn next_epoch(&self) -> u64 {
        self.epoch + 1
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
        // No record is empty, and the CRC of no bytes is 0: an all-zero
        // header (padding) passes its checksum, so it stops the scan
        // here rather than in the record codec.
        if len == 0 || len > MAX_RECORD_LEN || rest.len() < 8 + len {
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
/// Dropping the journal flushes best-effort and trims the file's zero
/// padding, but only a returned `Ok(())` from `commit` proves
/// durability.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    pending: Vec<u8>,
    /// End of the committed records: the next commit writes here.
    len: u64,
    /// Durable file size: `len`, or the allocation boundary the zero
    /// padding past `len` reaches.
    allocated: u64,
    /// What [`open`](Self::open) replayed, for the metrics attached later.
    replay: ReplayReport,
    metrics: Option<ControlMetrics>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays every valid
    /// record into a [`ControllerState`], and truncates everything past
    /// the last valid frame so the file is append-ready. The cut part
    /// is a torn tail only if it holds a non-zero byte; zero padding
    /// left by a crash is not.
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
        let tail = &bytes[valid_len..];
        let torn = tail.iter().any(|&b| b != 0);
        if !tail.is_empty() {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        let state = ControllerState::replay(&records);
        let report = ReplayReport {
            records: records.len() as u64,
            torn_tail: torn,
            truncated_bytes: if torn { tail.len() as u64 } else { 0 },
        };
        Ok((
            Journal {
                file,
                path,
                pending: Vec::new(),
                len: valid_len as u64,
                allocated: valid_len as u64,
                replay: report,
                metrics: None,
            },
            state,
            report,
        ))
    }

    /// Attaches a metrics bundle: what [`open`](Self::open) replayed is
    /// counted into it at once (`control.journal.replayed`,
    /// `control.journal.torn_tails`), and appends and commits record
    /// into it from then on.
    pub fn with_metrics(mut self, metrics: ControlMetrics) -> Self {
        metrics.record_journal_replay(self.replay.records, self.replay.torn_tail);
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

    /// Writes all buffered records and `fdatasync`s. A decision is
    /// durable only once this returns `Ok(())`.
    ///
    /// Records that fit the allocated space overwrite its zeros. Records
    /// that cross its end go out with zeros up to the next allocation
    /// boundary in the same write, so one `fdatasync` makes the records
    /// and the new size durable together.
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
        let end = self.len + self.pending.len() as u64;
        let allocated = if end <= self.allocated {
            self.file.write_all_at(&self.pending, self.len)?;
            self.allocated
        } else {
            let allocated = allocation(end);
            write_padded(&self.file, self.len, &self.pending, allocated - end)?;
            allocated
        };
        self.file.sync_data()?;
        self.pending.clear();
        self.len = end;
        self.allocated = allocated;
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

/// Writes `records` at offset `at`, followed by `pad` zero bytes, in
/// one vectored write. `pad` is below [`CHUNK`].
fn write_padded(mut file: &File, at: u64, records: &[u8], pad: u64) -> std::io::Result<()> {
    const PAGES: usize = (CHUNK / PAGE) as usize;
    let mut slices = [IoSlice::new(&[]); 1 + PAGES];
    slices[0] = IoSlice::new(records);
    let mut used = 1;
    let mut left = pad as usize;
    while left > 0 {
        let page = left.min(ZERO_PAGE.len());
        slices[used] = IoSlice::new(&ZERO_PAGE[..page]);
        used += 1;
        left -= page;
    }
    file.seek(SeekFrom::Start(at))?;
    let mut unwritten = &mut slices[..used];
    while !unwritten.is_empty() {
        match file.write_vectored(unwritten) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Drop for Journal {
    /// Best-effort flush of anything still pending, then the file is
    /// trimmed to its records; errors are dropped because there is no
    /// one left to retry.
    fn drop(&mut self) {
        let _ = self.commit();
        let _ = self.file.set_len(self.len);
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

    /// Logs `records` one commit each into a fresh journal at `path`
    /// and returns the file as it stood before the journal was dropped
    /// (its records and zero padding), and the length of the records.
    fn live_image(path: &Path, records: &[ControlRecord]) -> (Vec<u8>, usize) {
        let _ = std::fs::remove_file(path);
        let (mut journal, _, _) = Journal::open(path).unwrap();
        for record in records {
            journal.log(record).unwrap();
        }
        let image = std::fs::read(path).unwrap();
        drop(journal);
        (image, std::fs::metadata(path).unwrap().len() as usize)
    }

    #[test]
    fn attached_metrics_count_what_open_replayed() {
        let path = temp_path("replay-metrics");
        let records = sample_records();
        let (image, records_len) = live_image(&path, &records);
        let mut torn = image[..records_len].to_vec();
        torn.extend_from_slice(&[0, 0, 0, 64, 0xDE, 0xAD]);
        std::fs::write(&path, &torn).unwrap();
        let registry = ncvnf_obs::Registry::new();
        let (journal, _, _) = Journal::open(&path).unwrap();
        let journal = journal.with_metrics(ControlMetrics::register(&registry));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("control.journal.replayed"),
            Some(records.len() as u64)
        );
        assert_eq!(snap.counter("control.journal.torn_tails"), Some(1));
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_padding_reopens_clean_and_is_cut_back() {
        let path = temp_path("padding");
        let (image, records_len) = live_image(&path, &sample_records());
        assert_eq!(
            image.len() as u64,
            PAGE,
            "the first commits allocate one page"
        );
        assert!(image[records_len..].iter().all(|&b| b == 0));
        let (reopened, clean, _) = Journal::open(&path).unwrap();
        drop(reopened);
        // A crash leaves the padding in place.
        std::fs::write(&path, &image).unwrap();
        let (_j, state, report) = Journal::open(&path).unwrap();
        assert_eq!(state, clean);
        assert_eq!(report.records, sample_records().len() as u64);
        assert!(!report.torn_tail, "zero padding is not a tear");
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            records_len
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_record_before_padding_is_cut_and_counted_once() {
        let path = temp_path("torn-padding");
        let (mut image, records_len) = live_image(&path, &sample_records());
        // A crash mid-commit: part of a frame landed in the padding.
        image[records_len..records_len + 7].copy_from_slice(&[0, 0, 0, 200, 0xAA, 0xBB, 1]);
        std::fs::write(&path, &image).unwrap();
        let registry = ncvnf_obs::Registry::new();
        let metrics = ControlMetrics::register(&registry);
        for _ in 0..2 {
            let (journal, state, _) = Journal::open(&path).unwrap();
            let _j = journal.with_metrics(metrics.clone());
            assert_eq!(state.epoch, 1);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                records_len
            );
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("control.journal.torn_tails"), Some(1));
        let (reopened, _, report) = Journal::open(&path).unwrap();
        assert_eq!((report.torn_tail, report.truncated_bytes), (false, 0));
        drop(reopened);
        // The first open cut the whole tail, padding included.
        std::fs::write(&path, &image).unwrap();
        let (_j, _, report) = Journal::open(&path).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.truncated_bytes as usize, image.len() - records_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_zero_length_frame_header_never_scans_as_a_record() {
        assert_eq!(
            crc32(&[]),
            0,
            "so an all-zero header carries a valid checksum"
        );
        assert_eq!(scan_frames(&[0; 8]), (Vec::new(), 0));
        let record = ControlRecord::EpochStarted { epoch: 3 };
        let mut bytes = Vec::new();
        let body = record.to_bytes();
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(&body).to_be_bytes());
        bytes.extend_from_slice(&body);
        let framed = bytes.len();
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(scan_frames(&bytes), (vec![record], framed));
    }

    #[test]
    fn allocation_doubles_from_a_page_to_a_chunk_then_steps_by_chunks() {
        let sizes: Vec<u64> = [1, PAGE, PAGE + 1, 40_000, CHUNK, CHUNK + 1, 3 * CHUNK - 1]
            .into_iter()
            .map(allocation)
            .collect();
        assert_eq!(
            sizes,
            [PAGE, PAGE, 2 * PAGE, CHUNK, CHUNK, 2 * CHUNK, 3 * CHUNK]
        );
    }

    #[test]
    fn commits_inside_an_allocation_leave_the_file_length_unchanged() {
        let path = temp_path("in-chunk");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _, _) = Journal::open(&path).unwrap();
        journal
            .log(&ControlRecord::EpochStarted { epoch: 1 })
            .unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), PAGE);
        for node in 0..100 {
            journal.log(&ControlRecord::VnfReused { node }).unwrap();
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                PAGE,
                "commit {node} changed the file size"
            );
        }
        drop(journal);
        let (_j, state, report) = Journal::open(&path).unwrap();
        assert_eq!((report.records, report.torn_tail), (101, false));
        assert_eq!(state.epoch, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commits_across_chunk_boundaries_replay_intact_and_drop_trims() {
        let path = temp_path("cross");
        let _ = std::fs::remove_file(&path);
        let table = |i: u64| format!("session {} 127.0.0.1:{}\n", i % 64, 4000 + i).repeat(40);
        let mut written = vec![ControlRecord::EpochStarted { epoch: 1 }];
        written.extend((0..4).map(|node| ControlRecord::VnfLaunched {
            node,
            data_center: "dc".into(),
            control_addr: format!("127.0.0.1:{}", 4100 + node),
        }));
        let (mut journal, _, _) = Journal::open(&path).unwrap();
        for record in &written {
            journal.append(record);
        }
        journal.commit().unwrap();
        // Single commits, then batches of eight: one of each kind crosses
        // a boundary.
        for seq in 1..=200u64 {
            let record = ControlRecord::TablePushed {
                node: (seq % 4) as u32,
                epoch: 1,
                seq,
                table: table(seq),
            };
            journal.append(&record);
            written.push(record);
            if seq <= 80 || seq % 8 == 0 {
                journal.commit().unwrap();
            }
        }
        let live = std::fs::metadata(&path).unwrap().len();
        assert!(
            live > CHUNK && live.is_multiple_of(CHUNK),
            "{live} bytes allocated"
        );
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        let (records, valid) = scan_frames(&bytes);
        assert_eq!(
            valid,
            bytes.len(),
            "a dropped journal is exactly its frames"
        );
        assert_eq!(records, written);
        let (_j, state, report) = Journal::open(&path).unwrap();
        assert_eq!((report.torn_tail, report.truncated_bytes), (false, 0));
        assert_eq!(state, ControllerState::replay(&written));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_withdrawal_stays_in_the_belief_and_in_its_re_push() {
        let mut records = sample_records();
        records.push(ControlRecord::TablePushed {
            node: 0,
            epoch: 1,
            seq: 2,
            table: "session 7\nsession 8 127.0.0.1:4300\n".into(),
        });
        let state = ControllerState::replay(&records);
        let table = &state.nodes[&0].table;
        assert_eq!(table.to_text(), "session 7\nsession 8 127.0.0.1:4300\n");
        let mut held = ForwardingTable::parse("session 7 127.0.0.1:4201\n").unwrap();
        held.merge(table);
        assert_eq!(held.to_text(), "session 8 127.0.0.1:4300\n");
        assert_eq!(
            held.digest(),
            table.digest(),
            "the digest covers routes only"
        );
        // One record at a time is the same state.
        let mut stepped = ControllerState::default();
        for record in &records {
            stepped.apply(record);
        }
        assert_eq!(stepped, state);
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
