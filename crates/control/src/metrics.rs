//! Control-plane metrics: scaling activity, lost and returned relays,
//! and table-push latency.
//!
//! The controller's closed loop (Sec. IV-B) acts on exactly these
//! signals — node health, load observations, and how fast a
//! `NC_FORWARD_TAB` push lands — so they are the control-plane slice of
//! the observability registry. [`ControlMetrics`] is a cheap-to-clone
//! handle bundle; hosts register it once and hand it to the
//! [`Autoscaler`](crate::Autoscaler), the [`Journal`](crate::Journal)
//! and the [`SignalSender`](crate::SignalSender).

use ncvnf_obs::{Registry, TraceKind, TraceRing};

ncvnf_obs::metrics! {
    /// The control plane's registry cells; [`ControlMetrics`] derefs to
    /// this, so record sites write `m.sender_pushes.inc()`.
    pub struct ControlCells in "control" {
        pub scaling_events: Counter = "control.scaling.events", "events", "Scaling observations emitted by telemetry aggregation";
        pub table_push_ns: Histogram = "control.table_push_ns", "ns", "NC_FORWARD_TAB push round-trip latency (send to OK)";
        pub journal_appends: Counter = "control.journal.appends", "records", "Records appended to the write-ahead journal";
        pub journal_commit_ns: Histogram = "control.journal.commit_ns", "ns", "Journal commit latency (buffered write plus fsync) per batch";
        pub journal_replayed: Counter = "control.journal.replayed", "records", "Journal records replayed into controller state on restart";
        pub journal_torn_tails: Counter = "control.journal.torn_tails", "events", "Journal tails holding a non-zero byte past the last valid frame, truncated on open (zero padding is not a tear)";
        pub sender_pushes: Counter = "control.sender.pushes", "signals", "Fenced signal pushes attempted by the reliable sender";
        pub sender_retries: Counter = "control.sender.retries", "attempts", "Signal retransmissions after an ACK timeout (exponential backoff)";
        pub sender_failed: Counter = "control.sender.failed", "signals", "Signal pushes abandoned after exhausting every retry";
        pub sender_ack_ns: Histogram = "control.sender.ack_ns", "ns", "Push-to-ACK latency of successfully delivered fenced signals";
        pub reconcile_runs: Counter = "control.reconcile.runs", "runs", "Restart reconciliation passes executed";
        pub reconcile_repushed: Counter = "control.reconcile.repushed", "tables", "Believed forwarding tables re-pushed and ACKed under the new epoch";
        pub reconcile_expired: Counter = "control.reconcile.expired", "instances", "Lingering instances whose deadline passed while the controller was down";
        pub reconcile_unreachable: Counter = "control.reconcile.unreachable", "nodes", "Journaled nodes that did not answer the reconciliation NC_STATS query";
        pub autoscale_polls: Counter = "control.autoscale.polls", "sweeps", "Autoscaler NC_STATS polling sweeps over the relay fleet";
        pub autoscale_adoptions: Counter = "control.autoscale.adoptions", "deployments", "New deployments adopted and actuated by the autoscaler";
        pub autoscale_drained: Counter = "control.autoscale.drained", "instances", "Idle VNFs sent NC_VNF_END by the scale-to-zero policy";
        pub autoscale_woken: Counter = "control.autoscale.woken", "instances", "Draining VNFs re-armed after a wake request or traffic return";
        pub autoscale_lost: Counter = "control.autoscale.lost", "instances", "Relay targets lost after two unanswered NC_STATS sweeps and planned around at zero capacity";
        pub autoscale_returned: Counter = "control.autoscale.returned", "instances", "Lost relay targets that answered again and were re-armed at their nominal capacity";
        pub autoscale_draining: Gauge = "control.autoscale.draining", "instances", "Relay targets currently draining toward scale-to-zero";
        pub autoscale_detect_ms: Histogram = "control.autoscale.detect_ms", "ms", "Controller-clock latency from first drift observation to adoption";
        pub autoscale_decide_ns: Histogram = "control.autoscale.decide_ns", "ns", "Wall-clock latency of one adopting decision pass (observe to actuated)";
    }
}

/// Registry-backed handles for control-plane metrics: the cells plus
/// the registry's trace ring for lost and returned relays.
#[derive(Debug, Clone)]
pub struct ControlMetrics {
    cells: ControlCells,
    trace: TraceRing,
}

impl std::ops::Deref for ControlMetrics {
    type Target = ControlCells;

    fn deref(&self) -> &ControlCells {
        &self.cells
    }
}

impl ControlMetrics {
    /// Registers (or retrieves) the control metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        ControlMetrics {
            cells: ControlCells::register(registry),
            trace: registry.trace(),
        }
    }

    /// Counts relay target `node` lost (`lost`) or returned, and traces
    /// it (`a` = node id, `b` = 1 lost / 2 returned).
    pub fn record_liveness(&self, node: u32, lost: bool) {
        let (counter, code) = if lost {
            (&self.autoscale_lost, 1)
        } else {
            (&self.autoscale_returned, 2)
        };
        counter.inc();
        self.trace.push(TraceKind::Liveness, u64::from(node), code);
    }

    /// Records the outcome of a journal replay: records recovered and
    /// whether a torn tail had to be truncated.
    pub fn record_journal_replay(&self, records: u64, torn_tail: bool) {
        self.journal_replayed.add(records);
        if torn_tail {
            self.journal_torn_tails.inc();
        }
    }

    /// Records one reconciliation pass: how many tables were re-pushed
    /// under the new epoch, how many τ-pool entries had expired during
    /// the outage, and how many journaled nodes never answered.
    pub fn record_reconcile(&self, repushed: u64, expired: u64, unreachable: u64) {
        self.reconcile_runs.inc();
        self.reconcile_repushed.add(repushed);
        self.reconcile_expired.add(expired);
        self.reconcile_unreachable.add(unreachable);
    }

    /// Records one adopted deployment, with the controller-clock
    /// detection latency (first drift observation to adoption, when a
    /// drift window was open) and the wall-clock decision latency.
    pub fn record_autoscale_adoption(&self, detect_ms: Option<u64>, decide_ns: u64) {
        self.autoscale_adoptions.inc();
        if let Some(ms) = detect_ms {
            self.autoscale_detect_ms.record(ms);
        }
        self.autoscale_decide_ns.record(decide_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_registers_exactly_the_table() {
        let registry = Registry::new();
        let _ = ControlMetrics::register(&registry);
        let mut table = ControlCells::DESCRIPTORS.to_vec();
        table.sort_by_key(|d| d.name);
        assert_eq!(registry.descriptors(), table);
    }

    #[test]
    fn lost_and_returned_count_and_trace() {
        let registry = Registry::new();
        let m = ControlMetrics::register(&registry);
        m.record_liveness(7, true);
        m.record_liveness(7, false);
        m.record_liveness(9, true);
        m.scaling_events.add(2);
        m.table_push_ns.record(1_000_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("control.autoscale.lost"), Some(2));
        assert_eq!(snap.counter("control.autoscale.returned"), Some(1));
        assert_eq!(snap.counter("control.scaling.events"), Some(2));
        assert_eq!(
            snap.histogram("control.table_push_ns").map(|h| h.count),
            Some(1)
        );
        let traced: Vec<(u64, u64)> = snap
            .events
            .iter()
            .filter(|e| e.kind == ncvnf_obs::TraceKind::Liveness)
            .map(|e| (e.a, e.b))
            .collect();
        assert_eq!(traced, vec![(7, 1), (7, 2), (9, 1)]);
    }

    #[test]
    fn journal_sender_and_reconcile_metrics_record() {
        let registry = Registry::new();
        let m = ControlMetrics::register(&registry);
        m.journal_appends.add(2);
        m.journal_commit_ns.record(50_000);
        m.record_journal_replay(7, true);
        m.record_journal_replay(3, false);
        m.sender_pushes.inc();
        m.sender_retries.inc();
        m.sender_failed.inc();
        m.sender_ack_ns.record(1_000_000);
        m.record_reconcile(1, 1, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("control.journal.appends"), Some(2));
        assert_eq!(
            snap.histogram("control.journal.commit_ns").map(|h| h.count),
            Some(1)
        );
        assert_eq!(snap.counter("control.journal.replayed"), Some(10));
        assert_eq!(snap.counter("control.journal.torn_tails"), Some(1));
        assert_eq!(snap.counter("control.sender.pushes"), Some(1));
        assert_eq!(snap.counter("control.sender.retries"), Some(1));
        assert_eq!(snap.counter("control.sender.failed"), Some(1));
        assert_eq!(
            snap.histogram("control.sender.ack_ns").map(|h| h.count),
            Some(1)
        );
        assert_eq!(snap.counter("control.reconcile.runs"), Some(1));
        assert_eq!(snap.counter("control.reconcile.repushed"), Some(1));
        assert_eq!(snap.counter("control.reconcile.expired"), Some(1));
        assert_eq!(snap.counter("control.reconcile.unreachable"), Some(0));
    }

    #[test]
    fn autoscale_metrics_record() {
        let registry = Registry::new();
        let m = ControlMetrics::register(&registry);
        m.autoscale_polls.add(2);
        m.record_autoscale_adoption(Some(1_200), 85_000);
        m.record_autoscale_adoption(None, 40_000);
        m.autoscale_drained.inc();
        m.autoscale_woken.inc();
        m.autoscale_draining.set(1.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("control.autoscale.polls"), Some(2));
        assert_eq!(snap.counter("control.autoscale.adoptions"), Some(2));
        assert_eq!(snap.counter("control.autoscale.drained"), Some(1));
        assert_eq!(snap.counter("control.autoscale.woken"), Some(1));
        assert_eq!(snap.gauge("control.autoscale.draining"), Some(1.0));
        assert_eq!(
            snap.histogram("control.autoscale.detect_ms")
                .map(|h| h.count),
            Some(1),
            "detection latency only recorded when a drift window was open"
        );
        assert_eq!(
            snap.histogram("control.autoscale.decide_ns")
                .map(|h| h.count),
            Some(2)
        );
    }
}
