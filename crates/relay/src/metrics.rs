//! The relay's slice of the observability registry.
//!
//! Three handle bundles, each declared as one [`ncvnf_obs::metrics!`]
//! table (a row is the field, its registration and its `OPERATIONS.md`
//! line), cover the crate's three planes:
//!
//! * [`RelayNodeMetrics`] — the node loops' counters (socket traffic,
//!   control signals, wake frames). These registry cells *are* the
//!   node's counters; [`RelayStats`](crate::RelayStats) is a typed view
//!   read back from them, not a second copy.
//! * [`BatchMetrics`] — the data thread's instrumentation (step and
//!   batch latency histograms, step/emit counters, batch shape),
//!   carried inside the data path's scratch so
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

use ncvnf_obs::{Registry, Snapshot, TraceRing};
use ncvnf_rlnc::{PoolMetrics, RlncMetrics};

ncvnf_obs::metrics! {
    /// Registry-backed counters for a relay node's two socket loops.
    pub struct RelayNodeMetrics in "relay" {
        pub datagrams_in: Counter = "relay.datagrams_in", "datagrams", "Datagrams received on the data socket";
        pub datagrams_out: Counter = "relay.datagrams_out", "datagrams", "Datagrams sent to next hops";
        pub sends: Counter = "relay.sends", "attempts", "send_to attempts (packets times next hops), successful or not";
        pub io_errors: Counter = "relay.io_errors", "errors", "Socket errors survived (failed sends and receive errors)";
        pub signals: Counter = "relay.signals", "signals", "Control signals processed";
        pub rejected_signals: Counter = "relay.rejected_signals", "signals", "Control signals rejected with an ERR reply";
        pub feedback_frames: Counter = "relay.feedback_frames", "frames", "Well-formed feedback frames dropped by the data loop";
        pub malformed_feedback: Counter = "relay.malformed_feedback", "frames", "Feedback-magic frames that failed to decode";
        pub table_swap_ns: Histogram = "relay.table_swap_ns", "ns", "Forwarding-table swap latency (decode, fence, merge and route-cache rebuild)";
        pub stale_epoch_rejected: Counter = "relay.stale_epoch_rejected", "signals", "Fenced signals rejected for carrying a superseded controller epoch";
        pub duplicate_signals: Counter = "relay.duplicate_signals", "signals", "Duplicate fenced signals acknowledged without re-applying";
        pub ctrl_epoch: Gauge = "relay.ctrl_epoch", "epoch", "Highest controller epoch accepted on the control socket";
        pub ctrl_seq: Gauge = "relay.ctrl_seq", "seq", "Last fenced sequence number applied within the current epoch";
        pub table_digest: Gauge = "relay.table_digest", "digest", "53-bit FNV digest of the live forwarding table (compare with the journaled belief's digest)";
        pub shards: Gauge = "relay.shards", "shards", "Engine shards the relay data path is split across";
        pub idle_ms: Gauge = "relay.idle_ms", "ms", "Milliseconds since the data path last received a datagram (scale-to-zero input)";
        pub daemon_state: Gauge = "relay.daemon_state", "state", "Daemon lifecycle state: 0 Idle, 1 Running, 3 Draining";
        pub wake_signals: Counter = "relay.wake_signals", "frames", "Wake requests emitted toward the monitor (traffic arrived while draining)";
        pub shed_quota: Counter = "relay.shed_quota", "datagrams", "Datagrams shed because the session's admission token bucket was dry";
        pub congestion_frames: Counter = "relay.congestion_frames", "frames", "Congestion feedback frames emitted toward the sources of shed traffic";
        pub quota_sessions: Gauge = "relay.quota_sessions", "sessions", "Sessions with an explicitly provisioned admission quota (NC_QUOTA)";
        pub egress_coalesced: Counter = "relay.egress_coalesced", "datagrams", "Datagrams that left inside a multi-segment UDP_SEGMENT message (process-wide: every socket of this process)";
        pub egress_refused: Counter = "relay.egress_refused", "messages", "Coalesced messages the kernel refused and that were re-sent datagram by datagram (process-wide)";
        pub ingress_coalesced: Counter = "relay.ingress_coalesced", "datagrams", "Datagrams that arrived inside a multi-segment UDP_GRO message";
        pub parks: Counter = "relay.parks", "parks", "Times a data thread polled a whole budget without a batch and then blocked in its socket receive (at most one per batch that came within the budget of its wait's start)";
        pub ingress_gro: Gauge = "relay.ingress_gro", "bool", "1 when every data socket accepted UDP_GRO (spawned relays; 0 on caller-provided sockets)";
    }
}

ncvnf_obs::metrics! {
    /// The data path's registry cells; [`BatchMetrics`] owns them beside
    /// its scratch-local accumulators.
    pub struct BatchCells in "relay" {
        pub steps: Counter = "relay.steps", "steps", "Datagrams processed by the relay step";
        pub step_ns: Histogram = "relay.step_ns", "ns", "Per-datagram relay cost: latency of a sampled batch over the datagrams it coded";
        pub emitted: Counter = "relay.packets_emitted", "packets", "Coded packets or decoded chunks produced by relay steps";
        pub batches: Counter = "relay.batches", "batches", "Batches relayed: a receive from the data socket, cut into flushes of at most the batch size";
        pub batch_fill: Histogram = "relay.batch_fill", "datagrams", "Datagrams per relayed batch (batch occupancy)";
        pub batch_ns: Histogram = "relay.batch_ns", "ns", "Batch relay latency, sampled 1-in-8 (dispatch, code, serialize, flush)";
        pub cross_shard: Counter = "relay.cross_shard_packets", "datagrams", "Datagrams received on one shard's socket but owned by another shard";
    }
}

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
/// flushed to the shared atomics once per 32 datagrams, after a batch
/// that coded nothing, and when the scratch drops, so the per-datagram
/// cost is a few integer adds instead
/// of atomic read-modify-writes; atomics are touched once per batch at
/// most. Snapshots taken while the data thread is running may therefore
/// lag the true totals by up to 32 datagrams. One batch in eight is
/// timed: the elapsed time lands in `relay.batch_ns`, and divided by the
/// datagrams it coded in `relay.step_ns`.
#[derive(Debug)]
pub struct BatchMetrics {
    /// The shared registry cells this scratch flushes into.
    cells: BatchCells,
    /// Batches recorded so far, for 1-in-N latency sampling (plain
    /// field: the scratch is single-threaded).
    tick: u64,
    /// Datagrams coded since the last flush.
    acc_steps: u64,
    /// Packets emitted since the last flush.
    acc_emitted: u64,
}

impl BatchMetrics {
    /// Registers (or retrieves) the data-path metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        BatchMetrics {
            cells: BatchCells::register(registry),
            tick: 0,
            acc_steps: 0,
            acc_emitted: 0,
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
        elapsed_ns: Option<u64>,
    ) {
        self.tick = self.tick.wrapping_add(1);
        self.cells.batches.inc();
        self.cells.batch_fill.record(fill);
        if report.cross_shard > 0 {
            self.cells.cross_shard.add(report.cross_shard);
        }
        if let Some(ns) = elapsed_ns {
            self.cells.batch_ns.record(ns);
            if let Some(per_step) = ns.checked_div(report.steps) {
                self.cells.step_ns.record(per_step);
            }
        }
        self.acc_steps += report.steps;
        self.acc_emitted += report.emitted;
        // A batch that coded nothing (all shed, or feedback only)
        // may be the last for a while: publish what earlier batches
        // accumulated now rather than at 32 datagrams.
        if self.acc_steps >= STEP_FLUSH_EVERY || report.steps == 0 {
            self.flush();
        }
    }

    /// Publishes the accumulated counters to the shared registry cells
    /// (a no-op when nothing accumulated).
    fn flush(&mut self) {
        if self.acc_steps + self.acc_emitted == 0 {
            return;
        }
        self.cells.steps.add(self.acc_steps);
        self.cells.emitted.add(self.acc_emitted);
        self.acc_steps = 0;
        self.acc_emitted = 0;
    }
}

impl Drop for BatchMetrics {
    /// Final flush: totals are exact once the owning scratch is gone.
    fn drop(&mut self) {
        self.flush();
    }
}

ncvnf_obs::metrics! {
    /// The reliable-transfer protocol's registry cells;
    /// [`RecoveryMetrics`] derefs to this. Field meanings mirror
    /// [`RecoveryStats`](crate::RecoveryStats); the struct there is a
    /// typed view derived from these cells.
    pub struct RecoveryCells in "relay" {
        pub initial_packets: Counter = "recovery.initial_packets", "packets", "Coded packets sent as fresh generations, at the paced rate (source)";
        pub retransmit_packets: Counter = "recovery.retransmit_packets", "packets", "Fresh coded packets retransmitted in response to NACKs (source)";
        pub retransmit_rounds: Counter = "recovery.retransmit_rounds", "rounds", "Retransmission rounds: NACKs honoured with a burst (source)";
        pub nacks_sent: Counter = "recovery.nacks_sent", "frames", "NACKs emitted for stalled generations (receiver)";
        pub nacks_received: Counter = "recovery.nacks_received", "frames", "NACKs received and not ignored as stale or unsent (source)";
        pub acks_sent: Counter = "recovery.acks_sent", "frames", "ACKs emitted for decoded generations (receiver)";
        pub acks_received: Counter = "recovery.acks_received", "frames", "ACKs received (source)";
        pub generations_recovered: Counter = "recovery.generations_recovered", "generations", "Generations that needed retransmission and still decoded (source)";
        pub unrecovered: Counter = "recovery.unrecovered", "generations", "Generations never ACKed when the source gave up";
        pub backoff_ns: Histogram = "recovery.backoff_ns", "ns", "Gate armed by each repair round: measured round trip x 4^(retry-1), at most backoff_base x 2^(retry-1) (source)";
        pub nack_delay_ns: Histogram = "recovery.nack_delay_ns", "ns", "From the last arrival for a generation to its first NACK (receiver)";
        pub rtt_ns: Histogram = "recovery.rtt_ns", "ns", "Measured round trips: first NACK to first repair arrival (receiver), repair burst to ACK (source)";
        pub loss_estimate: Gauge = "recovery.loss_estimate", "ratio", "Erasure-rate estimate from resolved generations: missing over sent (source)";
        pub pace_lag_ns: Histogram = "recovery.pace_lag_ns", "ns", "How far past its pacing deadline each generation or repair burst left (source)";
        pub congestion_events: Counter = "recovery.congestion_events", "frames", "Congestion feedback frames honoured with a redundancy cut and pause (source)";
        pub backpressure_ns: Histogram = "recovery.backpressure_ns", "ns", "Pauses imposed on fresh generations and repair bursts by Congestion feedback";
    }
}

/// Registry-backed counters for the reliable-transfer protocol: the
/// cells plus the registry's trace ring for repair-burst events.
#[derive(Debug, Clone)]
pub struct RecoveryMetrics {
    cells: RecoveryCells,
    /// Trace ring for repair-burst events.
    pub trace: TraceRing,
}

impl std::ops::Deref for RecoveryMetrics {
    type Target = RecoveryCells;

    fn deref(&self) -> &RecoveryCells {
        &self.cells
    }
}

impl RecoveryMetrics {
    /// Registers (or retrieves) the recovery metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        RecoveryMetrics {
            cells: RecoveryCells::register(registry),
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
        step.cells.emitted.add(7);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("relay.datagrams_in"), Some(5));
        assert_eq!(snap.counter("relay.packets_emitted"), Some(7));
    }

    #[test]
    fn register_registers_exactly_the_tables() {
        let registry = Registry::new();
        let _ = (
            RelayNodeMetrics::register(&registry),
            BatchMetrics::register(&registry),
            RecoveryMetrics::register(&registry),
        );
        let mut tables = [
            RelayNodeMetrics::DESCRIPTORS,
            BatchCells::DESCRIPTORS,
            RecoveryCells::DESCRIPTORS,
        ]
        .concat();
        tables.sort_by_key(|d| d.name);
        assert_eq!(registry.descriptors(), tables);
    }

    #[test]
    fn a_batch_that_codes_nothing_publishes_what_came_before() {
        use crate::engine::BatchReport;
        let registry = Registry::new();
        let mut step = BatchMetrics::register(&registry);
        let coded = BatchReport {
            steps: 5,
            emitted: 5,
            ..BatchReport::default()
        };
        step.record_batch(&coded, 5, None);
        // Below the 32-step flush: still scratch-local.
        assert_eq!(registry.snapshot().counter("relay.steps"), Some(0));
        // All 32 arrivals shed: nothing coded, and the earlier steps go
        // out now.
        step.record_batch(&BatchReport::default(), 32, None);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("relay.steps"), Some(5));
        assert_eq!(snap.counter("relay.packets_emitted"), Some(5));
        assert_eq!(snap.counter("relay.batches"), Some(2));
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
