//! The relay's slice of the observability registry.
//!
//! Three handle bundles cover the crate's three planes:
//!
//! * [`RelayNodeMetrics`] — the node loops' counters (socket traffic,
//!   control signals, heartbeats). These registry cells *are* the
//!   node's counters; [`RelayStats`](crate::RelayStats) is a typed view
//!   read back from them, not a second copy.
//! * [`BatchMetrics`] — the data thread's instrumentation (step and
//!   batch latency histograms, emit/recycle counters, pending-queue
//!   gauge, batch shape), carried inside the data path's scratch so
//!   [`relay_batch`](crate::relay_batch)'s signature stays unchanged.
//! * [`RecoveryMetrics`] — the reliable-transfer endpoints' feedback
//!   counters and backoff timings, bundled with the codec's
//!   [`RlncMetrics`] in a per-transfer [`TransferObs`].
//!
//! Record calls are relaxed atomic ops — or, on the per-datagram hot
//! path, plain scratch-local adds flushed to the atomics once per 32
//! datagrams. No locks, no heap: the counting-allocator test keeps proving
//! 0 heap ops per packet with all of this enabled, and the perf report
//! holds the measured step overhead under its 2% budget.

use ncvnf_obs::{
    desc, Counter, Gauge, Histogram, MetricDesc, MetricKind, Registry, Snapshot, TraceRing,
};
use ncvnf_rlnc::{PoolMetrics, RlncMetrics};

/// `relay.datagrams_in` — datagrams received on the data socket.
pub const DATAGRAMS_IN: MetricDesc = desc(
    "relay.datagrams_in",
    MetricKind::Counter,
    "datagrams",
    "relay",
    "Datagrams received on the data socket",
);

/// `relay.datagrams_out` — datagrams sent to next hops.
pub const DATAGRAMS_OUT: MetricDesc = desc(
    "relay.datagrams_out",
    MetricKind::Counter,
    "datagrams",
    "relay",
    "Datagrams sent to next hops",
);

/// `relay.sends` — `send_to` attempts (packets × next hops).
pub const SENDS: MetricDesc = desc(
    "relay.sends",
    MetricKind::Counter,
    "attempts",
    "relay",
    "send_to attempts (packets times next hops), successful or not",
);

/// `relay.io_errors` — socket errors survived.
pub const IO_ERRORS: MetricDesc = desc(
    "relay.io_errors",
    MetricKind::Counter,
    "errors",
    "relay",
    "Socket errors survived (failed sends and receive errors)",
);

/// `relay.signals` — control signals processed.
pub const SIGNALS: MetricDesc = desc(
    "relay.signals",
    MetricKind::Counter,
    "signals",
    "relay",
    "Control signals processed",
);

/// `relay.rejected_signals` — control signals answered with `ERR`.
pub const REJECTED_SIGNALS: MetricDesc = desc(
    "relay.rejected_signals",
    MetricKind::Counter,
    "signals",
    "relay",
    "Control signals rejected with an ERR reply",
);

/// `relay.feedback_frames` — well-formed feedback seen on the data
/// socket (dropped: relays do not route feedback).
pub const FEEDBACK_FRAMES: MetricDesc = desc(
    "relay.feedback_frames",
    MetricKind::Counter,
    "frames",
    "relay",
    "Well-formed feedback frames dropped by the data loop",
);

/// `relay.malformed_feedback` — feedback-magic frames that failed to
/// decode.
pub const MALFORMED_FEEDBACK: MetricDesc = desc(
    "relay.malformed_feedback",
    MetricKind::Counter,
    "frames",
    "relay",
    "Feedback-magic frames that failed to decode",
);

/// `relay.heartbeats_sent` — liveness beacons emitted.
pub const HEARTBEATS_SENT: MetricDesc = desc(
    "relay.heartbeats_sent",
    MetricKind::Counter,
    "beacons",
    "relay",
    "Liveness beacons emitted by the control thread",
);

/// `relay.table_swap_ns` — route-cache rebuild latency on table swaps.
pub const TABLE_SWAP_NS: MetricDesc = desc(
    "relay.table_swap_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "Forwarding-table swap latency (merge plus route-cache rebuild)",
);

/// `relay.stale_epoch_rejected` — fenced signals refused because their
/// epoch predates the highest this node has accepted.
pub const STALE_EPOCH_REJECTED: MetricDesc = desc(
    "relay.stale_epoch_rejected",
    MetricKind::Counter,
    "signals",
    "relay",
    "Fenced signals rejected for carrying a superseded controller epoch",
);

/// `relay.duplicate_signals` — retransmitted fenced signals ACKed
/// without being re-applied.
pub const DUPLICATE_SIGNALS: MetricDesc = desc(
    "relay.duplicate_signals",
    MetricKind::Counter,
    "signals",
    "relay",
    "Duplicate fenced signals acknowledged without re-applying",
);

/// `relay.ctrl_epoch` — highest controller epoch accepted so far.
pub const CTRL_EPOCH: MetricDesc = desc(
    "relay.ctrl_epoch",
    MetricKind::Gauge,
    "epoch",
    "relay",
    "Highest controller epoch accepted on the control socket",
);

/// `relay.ctrl_seq` — last applied sequence number in that epoch.
pub const CTRL_SEQ: MetricDesc = desc(
    "relay.ctrl_seq",
    MetricKind::Gauge,
    "seq",
    "relay",
    "Last fenced sequence number applied within the current epoch",
);

/// `relay.table_digest` — digest of the live forwarding table.
pub const TABLE_DIGEST: MetricDesc = desc(
    "relay.table_digest",
    MetricKind::Gauge,
    "digest",
    "relay",
    "53-bit FNV digest of the live forwarding table (reconciliation diff key)",
);

/// `relay.shards` — engine shards this node runs.
pub const SHARDS: MetricDesc = desc(
    "relay.shards",
    MetricKind::Gauge,
    "shards",
    "relay",
    "Engine shards the relay data path is split across",
);

/// `relay.batches` — ingress batches drained from the data socket.
pub const BATCHES: MetricDesc = desc(
    "relay.batches",
    MetricKind::Counter,
    "batches",
    "relay",
    "Ingress batches drained from the data socket",
);

/// `relay.batch_fill` — datagrams per drained ingress batch.
pub const BATCH_FILL: MetricDesc = desc(
    "relay.batch_fill",
    MetricKind::Histogram,
    "datagrams",
    "relay",
    "Datagrams per drained ingress batch (batch occupancy)",
);

/// `relay.batch_ns` — whole-batch relay latency (sampled).
pub const BATCH_NS: MetricDesc = desc(
    "relay.batch_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "Batch relay latency, sampled 1-in-8 (dispatch, code, serialize, flush)",
);

/// `relay.cross_shard_packets` — datagrams that arrived on a socket
/// owned by a different shard than the packet's `(session, generation)`
/// hash selects.
pub const CROSS_SHARD_PACKETS: MetricDesc = desc(
    "relay.cross_shard_packets",
    MetricKind::Counter,
    "datagrams",
    "relay",
    "Datagrams received on one shard's socket but owned by another shard",
);

/// `relay.window_packets` — sliding-window datagrams processed.
pub const WINDOW_PACKETS: MetricDesc = desc(
    "relay.window_packets",
    MetricKind::Counter,
    "datagrams",
    "relay",
    "Sliding-window datagrams (wire kind 2) run through a shard engine",
);

/// `relay.window_acks` — window acks absorbed by shard recoders.
pub const WINDOW_ACKS: MetricDesc = desc(
    "relay.window_acks",
    MetricKind::Counter,
    "acks",
    "relay",
    "Window acks (wire kind 3) absorbed to slide recoder floors",
);

/// `relay.idle_ms` — milliseconds since the data socket last saw a
/// datagram (refreshed on snapshot, so an `NC_STATS` poll reads the
/// idle time as of the poll, not as of the last packet).
pub const IDLE_MS: MetricDesc = desc(
    "relay.idle_ms",
    MetricKind::Gauge,
    "ms",
    "relay",
    "Milliseconds since the data path last received a datagram (scale-to-zero input)",
);

/// `relay.daemon_state` — the daemon lifecycle state as a number.
pub const DAEMON_STATE: MetricDesc = desc(
    "relay.daemon_state",
    MetricKind::Gauge,
    "state",
    "relay",
    "Daemon lifecycle state: 0 Idle, 1 Running, 2 Paused, 3 Draining, 4 Stopped",
);

/// `relay.wake_signals` — wake requests emitted while draining.
pub const WAKE_SIGNALS: MetricDesc = desc(
    "relay.wake_signals",
    MetricKind::Counter,
    "frames",
    "relay",
    "Wake requests emitted toward the monitor (traffic arrived while draining)",
);

/// `relay.shed_quota` — datagrams shed by per-session admission.
pub const SHED_QUOTA: MetricDesc = desc(
    "relay.shed_quota",
    MetricKind::Counter,
    "datagrams",
    "relay",
    "Datagrams shed because the session's admission token bucket was dry",
);

/// `relay.shed_overload` — datagrams shed by the armed batch cap.
pub const SHED_OVERLOAD: MetricDesc = desc(
    "relay.shed_overload",
    MetricKind::Counter,
    "datagrams",
    "relay",
    "Datagrams shed newest-first by the armed per-batch admission cap",
);

/// `relay.shed_redundancy` — redundancy datagrams shed while armed.
pub const SHED_REDUNDANCY: MetricDesc = desc(
    "relay.shed_redundancy",
    MetricKind::Counter,
    "datagrams",
    "relay",
    "Datagrams shed while armed because their generation was already full rank",
);

/// `relay.congestion_frames` — backpressure frames emitted.
pub const CONGESTION_FRAMES: MetricDesc = desc(
    "relay.congestion_frames",
    MetricKind::Counter,
    "frames",
    "relay",
    "Congestion feedback frames emitted toward the sources of shed traffic",
);

/// `relay.quota_sessions` — sessions with a provisioned quota.
pub const QUOTA_SESSIONS: MetricDesc = desc(
    "relay.quota_sessions",
    MetricKind::Gauge,
    "sessions",
    "relay",
    "Sessions with an explicitly provisioned admission quota (NC_QUOTA)",
);

/// `relay.pool_pressure` — payload-pool byte pressure.
pub const POOL_PRESSURE: MetricDesc = desc(
    "relay.pool_pressure",
    MetricKind::Gauge,
    "ratio",
    "relay",
    "Highest per-shard payload-pool byte pressure (retained+outstanding over budget)",
);

/// `relay.shedding_shards` — shards currently in shedding mode.
pub const SHEDDING_SHARDS: MetricDesc = desc(
    "relay.shedding_shards",
    MetricKind::Gauge,
    "shards",
    "relay",
    "Engine shards whose overload latch is currently armed",
);

/// Registry-backed counters for a relay node's two socket loops.
#[derive(Debug, Clone)]
pub struct RelayNodeMetrics {
    /// Datagrams received on the data socket.
    pub datagrams_in: Counter,
    /// Datagrams sent to next hops.
    pub datagrams_out: Counter,
    /// `send_to` attempts.
    pub sends: Counter,
    /// Socket errors survived.
    pub io_errors: Counter,
    /// Control signals processed.
    pub signals: Counter,
    /// Control signals rejected.
    pub rejected_signals: Counter,
    /// Feedback frames dropped by the data loop.
    pub feedback_frames: Counter,
    /// Malformed feedback frames.
    pub malformed_feedback: Counter,
    /// Heartbeats emitted.
    pub heartbeats_sent: Counter,
    /// Table-swap latency.
    pub table_swap_ns: Histogram,
    /// Fenced signals rejected as stale-epoch.
    pub stale_epoch_rejected: Counter,
    /// Duplicate fenced signals ACKed without re-applying.
    pub duplicate_signals: Counter,
    /// Highest accepted controller epoch.
    pub ctrl_epoch: Gauge,
    /// Last applied fenced sequence number.
    pub ctrl_seq: Gauge,
    /// Digest of the live forwarding table.
    pub table_digest: Gauge,
    /// Engine shards this node runs.
    pub shards: Gauge,
    /// Milliseconds since the data path last saw a datagram.
    pub idle_ms: Gauge,
    /// Daemon lifecycle state (numeric encoding).
    pub daemon_state: Gauge,
    /// Wake requests emitted while draining.
    pub wake_signals: Counter,
    /// Datagrams shed by per-session admission.
    pub shed_quota: Counter,
    /// Datagrams shed by the armed batch cap.
    pub shed_overload: Counter,
    /// Redundancy datagrams shed while armed.
    pub shed_redundancy: Counter,
    /// Congestion feedback frames emitted.
    pub congestion_frames: Counter,
    /// Sessions with a provisioned quota.
    pub quota_sessions: Gauge,
    /// Highest per-shard pool byte pressure.
    pub pool_pressure: Gauge,
    /// Shards whose overload latch is armed.
    pub shedding_shards: Gauge,
}

impl RelayNodeMetrics {
    /// Registers (or retrieves) the node metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        RelayNodeMetrics {
            datagrams_in: registry.counter(DATAGRAMS_IN),
            datagrams_out: registry.counter(DATAGRAMS_OUT),
            sends: registry.counter(SENDS),
            io_errors: registry.counter(IO_ERRORS),
            signals: registry.counter(SIGNALS),
            rejected_signals: registry.counter(REJECTED_SIGNALS),
            feedback_frames: registry.counter(FEEDBACK_FRAMES),
            malformed_feedback: registry.counter(MALFORMED_FEEDBACK),
            heartbeats_sent: registry.counter(HEARTBEATS_SENT),
            table_swap_ns: registry.histogram(TABLE_SWAP_NS),
            stale_epoch_rejected: registry.counter(STALE_EPOCH_REJECTED),
            duplicate_signals: registry.counter(DUPLICATE_SIGNALS),
            ctrl_epoch: registry.gauge(CTRL_EPOCH),
            ctrl_seq: registry.gauge(CTRL_SEQ),
            table_digest: registry.gauge(TABLE_DIGEST),
            shards: registry.gauge(SHARDS),
            idle_ms: registry.gauge(IDLE_MS),
            daemon_state: registry.gauge(DAEMON_STATE),
            wake_signals: registry.counter(WAKE_SIGNALS),
            shed_quota: registry.counter(SHED_QUOTA),
            shed_overload: registry.counter(SHED_OVERLOAD),
            shed_redundancy: registry.counter(SHED_REDUNDANCY),
            congestion_frames: registry.counter(CONGESTION_FRAMES),
            quota_sessions: registry.gauge(QUOTA_SESSIONS),
            pool_pressure: registry.gauge(POOL_PRESSURE),
            shedding_shards: registry.gauge(SHEDDING_SHARDS),
        }
    }
}

/// `relay.steps` — datagrams processed by the relay step.
pub const STEPS: MetricDesc = desc(
    "relay.steps",
    MetricKind::Counter,
    "steps",
    "relay",
    "Datagrams processed by the relay step",
);

/// `relay.step_ns` — per-step processing latency (sampled).
pub const STEP_NS: MetricDesc = desc(
    "relay.step_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "Per-datagram relay cost: latency of a sampled batch over the datagrams it coded",
);

/// `relay.packets_emitted` — coded packets/chunks produced by steps.
pub const PACKETS_EMITTED: MetricDesc = desc(
    "relay.packets_emitted",
    MetricKind::Counter,
    "packets",
    "relay",
    "Coded packets or decoded chunks produced by relay steps",
);

/// `relay.payloads_recycled` — emitted packets returned to the pool.
pub const PAYLOADS_RECYCLED: MetricDesc = desc(
    "relay.payloads_recycled",
    MetricKind::Counter,
    "packets",
    "relay",
    "Emitted packets recycled back into the payload pool",
);

/// `relay.pending_depth` — packets awaiting recycling after a step.
pub const PENDING_DEPTH: MetricDesc = desc(
    "relay.pending_depth",
    MetricKind::Gauge,
    "packets",
    "relay",
    "Packets held for recycling at the end of the last step",
);

/// Datagrams between publications of the scratch-local step counters
/// to the shared registry cells.
const STEP_FLUSH_EVERY: u64 = 32;

/// One-in-N sampling rate for whole-batch latency timestamps.
const BATCH_SAMPLE_EVERY: u64 = 8;

/// Per-data-thread instrumentation of the relay data path, owned by the
/// scratch ([`BatchScratch`](crate::BatchScratch), or the batch of one
/// inside [`RelayScratch`](crate::RelayScratch)) so the hot path records
/// without any sharing or locking.
///
/// Step counters accumulate in plain scratch-local fields and are
/// flushed to the shared atomics once per 32 datagrams and when the
/// scratch drops, so the per-datagram cost is a few integer adds instead
/// of atomic read-modify-writes; atomics are touched once per batch at
/// most. Snapshots taken while the data thread is running may therefore
/// lag the true totals by up to 32 datagrams. One batch in eight is
/// timed: the elapsed time lands in `relay.batch_ns`, and divided by the
/// datagrams it coded in `relay.step_ns`.
#[derive(Debug)]
pub struct BatchMetrics {
    steps: Counter,
    step_ns: Histogram,
    emitted: Counter,
    recycled: Counter,
    pending_depth: Gauge,
    batches: Counter,
    batch_fill: Histogram,
    batch_ns: Histogram,
    cross_shard: Counter,
    window_packets: Counter,
    window_acks: Counter,
    /// Batches recorded so far, for 1-in-N latency sampling (plain
    /// field: the scratch is single-threaded).
    tick: u64,
    /// Datagrams coded since the last flush.
    acc_steps: u64,
    /// Packets emitted since the last flush.
    acc_emitted: u64,
    /// Payloads recycled since the last flush.
    acc_recycled: u64,
    /// Pending-queue depth after the most recent batch.
    last_depth: f64,
}

impl BatchMetrics {
    /// Registers (or retrieves) the data-path metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        BatchMetrics {
            steps: registry.counter(STEPS),
            step_ns: registry.histogram(STEP_NS),
            emitted: registry.counter(PACKETS_EMITTED),
            recycled: registry.counter(PAYLOADS_RECYCLED),
            pending_depth: registry.gauge(PENDING_DEPTH),
            batches: registry.counter(BATCHES),
            batch_fill: registry.histogram(BATCH_FILL),
            batch_ns: registry.histogram(BATCH_NS),
            cross_shard: registry.counter(CROSS_SHARD_PACKETS),
            window_packets: registry.counter(WINDOW_PACKETS),
            window_acks: registry.counter(WINDOW_ACKS),
            tick: 0,
            acc_steps: 0,
            acc_emitted: 0,
            acc_recycled: 0,
            last_depth: 0.0,
        }
    }

    /// Whether the next batch's latency should be timed (1-in-N; only
    /// sampled batches pay for `Instant::now`).
    #[inline]
    pub(crate) fn sample_latency(&self) -> bool {
        self.tick.is_multiple_of(BATCH_SAMPLE_EVERY)
    }

    /// Records one completed batch (per-step totals come from `report`).
    #[inline]
    pub(crate) fn record_batch(
        &mut self,
        report: &crate::engine::BatchReport,
        fill: u64,
        recycled: u64,
        depth: usize,
        elapsed_ns: Option<u64>,
    ) {
        self.tick = self.tick.wrapping_add(1);
        self.batches.inc();
        self.batch_fill.record(fill);
        if report.cross_shard > 0 {
            self.cross_shard.add(report.cross_shard);
        }
        if report.window_steps > 0 {
            self.window_packets.add(report.window_steps);
        }
        if report.window_acks > 0 {
            self.window_acks.add(report.window_acks);
        }
        if let Some(ns) = elapsed_ns {
            self.batch_ns.record(ns);
            if let Some(per_step) = ns.checked_div(report.steps) {
                self.step_ns.record(per_step);
            }
        }
        self.acc_steps += report.steps;
        self.acc_emitted += report.emitted;
        self.acc_recycled += recycled;
        self.last_depth = depth as f64;
        if self.acc_steps >= STEP_FLUSH_EVERY {
            self.flush();
        }
    }

    /// Publishes the accumulated counters and the latest pending depth
    /// to the shared registry cells.
    fn flush(&mut self) {
        if self.acc_steps == 0 {
            return;
        }
        self.steps.add(self.acc_steps);
        self.emitted.add(self.acc_emitted);
        self.recycled.add(self.acc_recycled);
        self.pending_depth.set(self.last_depth);
        self.acc_steps = 0;
        self.acc_emitted = 0;
        self.acc_recycled = 0;
    }
}

impl Drop for BatchMetrics {
    /// Final flush: totals are exact once the owning scratch is gone.
    fn drop(&mut self) {
        self.flush();
    }
}

/// `recovery.initial_packets` — coded packets of fresh generations.
pub const RECOVERY_INITIAL_PACKETS: MetricDesc = desc(
    "recovery.initial_packets",
    MetricKind::Counter,
    "packets",
    "relay",
    "Coded packets sent as fresh generations, at the paced rate (source)",
);

/// `recovery.retransmit_packets` — fresh packets sent answering NACKs.
pub const RECOVERY_RETRANSMIT_PACKETS: MetricDesc = desc(
    "recovery.retransmit_packets",
    MetricKind::Counter,
    "packets",
    "relay",
    "Fresh coded packets retransmitted in response to NACKs (source)",
);

/// `recovery.retransmit_rounds` — NACKs honoured with a packet burst.
pub const RECOVERY_RETRANSMIT_ROUNDS: MetricDesc = desc(
    "recovery.retransmit_rounds",
    MetricKind::Counter,
    "rounds",
    "relay",
    "Retransmission rounds: NACKs honoured with a burst (source)",
);

/// `recovery.nacks_sent` — NACKs emitted by the receiver.
pub const RECOVERY_NACKS_SENT: MetricDesc = desc(
    "recovery.nacks_sent",
    MetricKind::Counter,
    "frames",
    "relay",
    "NACKs emitted for stalled generations (receiver)",
);

/// `recovery.nacks_received` — NACKs the source honoured as actionable.
pub const RECOVERY_NACKS_RECEIVED: MetricDesc = desc(
    "recovery.nacks_received",
    MetricKind::Counter,
    "frames",
    "relay",
    "NACKs received and not ignored as stale or unsent (source)",
);

/// `recovery.acks_sent` — ACKs emitted by the receiver.
pub const RECOVERY_ACKS_SENT: MetricDesc = desc(
    "recovery.acks_sent",
    MetricKind::Counter,
    "frames",
    "relay",
    "ACKs emitted for decoded generations (receiver)",
);

/// `recovery.acks_received` — ACKs seen by the source.
pub const RECOVERY_ACKS_RECEIVED: MetricDesc = desc(
    "recovery.acks_received",
    MetricKind::Counter,
    "frames",
    "relay",
    "ACKs received (source)",
);

/// `recovery.generations_recovered` — generations saved by retransmits.
pub const RECOVERY_GENERATIONS_RECOVERED: MetricDesc = desc(
    "recovery.generations_recovered",
    MetricKind::Counter,
    "generations",
    "relay",
    "Generations that needed retransmission and still decoded (source)",
);

/// `recovery.unrecovered` — generations abandoned by the source.
pub const RECOVERY_UNRECOVERED: MetricDesc = desc(
    "recovery.unrecovered",
    MetricKind::Counter,
    "generations",
    "relay",
    "Generations never ACKed when the source gave up",
);

/// `recovery.backoff_ns` — retry gates armed by repair rounds.
pub const RECOVERY_BACKOFF_NS: MetricDesc = desc(
    "recovery.backoff_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "Gate armed by each repair round: measured round trip x 4^(retry-1), at most backoff_base x 2^(retry-1) (source)",
);

/// `recovery.nack_delay_ns` — a unit's last arrival to its first NACK.
pub const RECOVERY_NACK_DELAY_NS: MetricDesc = desc(
    "recovery.nack_delay_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "From the last arrival for a generation (windowed: the delivery cursor) to its first NACK (receiver)",
);

/// `recovery.rtt_ns` — round trips measured by either end.
pub const RECOVERY_RTT_NS: MetricDesc = desc(
    "recovery.rtt_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "Measured round trips: first NACK to first repair arrival (receiver), repair burst to ACK (source)",
);

/// `recovery.loss_estimate` — the source's erasure-rate estimate.
pub const RECOVERY_LOSS_ESTIMATE: MetricDesc = desc(
    "recovery.loss_estimate",
    MetricKind::Gauge,
    "ratio",
    "relay",
    "Erasure-rate estimate from resolved generations: missing over sent (source)",
);

/// `recovery.pace_lag_ns` — how late each emission left the source.
pub const RECOVERY_PACE_LAG_NS: MetricDesc = desc(
    "recovery.pace_lag_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "How far past its pacing deadline each generation or repair burst left (source)",
);

/// `recovery.congestion_events` — Congestion frames honoured.
pub const RECOVERY_CONGESTION_EVENTS: MetricDesc = desc(
    "recovery.congestion_events",
    MetricKind::Counter,
    "frames",
    "relay",
    "Congestion feedback frames honoured with a redundancy cut and pause (source)",
);

/// `recovery.backpressure_ns` — send pauses imposed by backpressure.
pub const RECOVERY_BACKPRESSURE_NS: MetricDesc = desc(
    "recovery.backpressure_ns",
    MetricKind::Histogram,
    "ns",
    "relay",
    "Pauses imposed on fresh generations and repair bursts by Congestion feedback",
);

/// `recovery.congestion_window` — last reported downstream load.
pub const RECOVERY_CONGESTION_WINDOW: MetricDesc = desc(
    "recovery.congestion_window",
    MetricKind::Gauge,
    "percent",
    "relay",
    "Downstream load percent carried by the most recent Congestion frame (source)",
);

/// Registry-backed counters for the reliable-transfer protocol.
///
/// Field meanings mirror [`RecoveryStats`](crate::RecoveryStats); the
/// struct there is a typed view derived from these cells.
#[derive(Debug, Clone)]
pub struct RecoveryMetrics {
    /// Fresh-generation packets (source).
    pub initial_packets: Counter,
    /// Retransmitted packets (source).
    pub retransmit_packets: Counter,
    /// Retransmission rounds (source).
    pub retransmit_rounds: Counter,
    /// NACKs emitted (receiver).
    pub nacks_sent: Counter,
    /// Actionable NACKs received (source).
    pub nacks_received: Counter,
    /// ACKs emitted (receiver).
    pub acks_sent: Counter,
    /// ACKs received (source).
    pub acks_received: Counter,
    /// Generations recovered via retransmission (source).
    pub generations_recovered: Counter,
    /// Generations abandoned (source).
    pub unrecovered: Counter,
    /// Retry gates armed (source).
    pub backoff_ns: Histogram,
    /// Last arrival to first NACK (receiver).
    pub nack_delay_ns: Histogram,
    /// Measured round trips (both ends).
    pub rtt_ns: Histogram,
    /// Erasure-rate estimate (source).
    pub loss_estimate: Gauge,
    /// Lateness of each emission against its pacing deadline (source).
    pub pace_lag_ns: Histogram,
    /// Congestion frames honoured (source).
    pub congestion_events: Counter,
    /// Backpressure pauses imposed on sends (source).
    pub backpressure_ns: Histogram,
    /// Last reported downstream load percent (source).
    pub congestion_window: Gauge,
    /// Trace ring for repair-burst events.
    pub trace: TraceRing,
}

impl RecoveryMetrics {
    /// Registers (or retrieves) the recovery metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        RecoveryMetrics {
            initial_packets: registry.counter(RECOVERY_INITIAL_PACKETS),
            retransmit_packets: registry.counter(RECOVERY_RETRANSMIT_PACKETS),
            retransmit_rounds: registry.counter(RECOVERY_RETRANSMIT_ROUNDS),
            nacks_sent: registry.counter(RECOVERY_NACKS_SENT),
            nacks_received: registry.counter(RECOVERY_NACKS_RECEIVED),
            acks_sent: registry.counter(RECOVERY_ACKS_SENT),
            acks_received: registry.counter(RECOVERY_ACKS_RECEIVED),
            generations_recovered: registry.counter(RECOVERY_GENERATIONS_RECOVERED),
            unrecovered: registry.counter(RECOVERY_UNRECOVERED),
            backoff_ns: registry.histogram(RECOVERY_BACKOFF_NS),
            nack_delay_ns: registry.histogram(RECOVERY_NACK_DELAY_NS),
            rtt_ns: registry.histogram(RECOVERY_RTT_NS),
            loss_estimate: registry.gauge(RECOVERY_LOSS_ESTIMATE),
            pace_lag_ns: registry.histogram(RECOVERY_PACE_LAG_NS),
            congestion_events: registry.counter(RECOVERY_CONGESTION_EVENTS),
            backpressure_ns: registry.histogram(RECOVERY_BACKPRESSURE_NS),
            congestion_window: registry.gauge(RECOVERY_CONGESTION_WINDOW),
            trace: registry.trace(),
        }
    }
}

/// Everything a reliable transfer records into: one registry plus the
/// recovery and codec handle bundles, shared by the source and receiver
/// ends (distinct metric names keep the halves separable).
#[derive(Debug, Clone)]
pub struct TransferObs {
    registry: Registry,
    /// Feedback/retransmission counters.
    pub recovery: RecoveryMetrics,
    /// Codec-level metrics (redundancy gauges, decode histograms).
    pub rlnc: RlncMetrics,
    /// Pool republication handles.
    pub pool: PoolMetrics,
}

impl Default for TransferObs {
    fn default() -> Self {
        TransferObs::new()
    }
}

impl TransferObs {
    /// A transfer observer with its own private registry.
    pub fn new() -> Self {
        TransferObs::in_registry(&Registry::new())
    }

    /// A transfer observer recording into an existing registry (e.g. a
    /// chain harness aggregating source and receiver into one snapshot).
    pub fn in_registry(registry: &Registry) -> Self {
        TransferObs {
            registry: registry.clone(),
            recovery: RecoveryMetrics::register(registry),
            rlnc: RlncMetrics::register(registry),
            pool: PoolMetrics::register(registry),
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_step_metrics_share_one_registry() {
        let registry = Registry::new();
        let node = RelayNodeMetrics::register(&registry);
        let step = BatchMetrics::register(&registry);
        node.datagrams_in.add(5);
        step.emitted.add(7);
        step.pending_depth.set(3.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("relay.datagrams_in"), Some(5));
        assert_eq!(snap.counter("relay.packets_emitted"), Some(7));
        assert_eq!(snap.gauge("relay.pending_depth"), Some(3.0));
    }

    #[test]
    fn transfer_obs_bundles_recovery_and_codec() {
        let obs = TransferObs::new();
        obs.recovery.nacks_sent.inc();
        obs.recovery.backoff_ns.record(20_000_000);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("recovery.nacks_sent"), Some(1));
        assert_eq!(
            snap.histogram("recovery.backoff_ns").map(|h| h.count),
            Some(1)
        );
        // Codec metrics registered alongside.
        assert_eq!(snap.counter("rlnc.decode.generations"), Some(0));
    }
}
