//! In-memory spans for the traced run.
//!
//! A span is `{id, parent, op, name, start_ns, end_ns}`; spans of one
//! operation (a batch, a generation, a transfer, a poll) share `op`.
//! Spans are recorded around the calls the benchmark makes into each
//! layer, kept in memory, and written out when the run ends. A layer's
//! self time is its spans' duration minus the part their children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::{out_dir, Report};

/// Handle of an open or closed span (index into the tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Parent span, if any.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Calls, total time and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their children cover.
    pub self_ns: u64,
}

/// Most spans written to a trace file; the totals cover every span.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// Records spans and counts from one thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op` under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Closes `span` now.
    pub fn end(&mut self, span: SpanId) {
        self.spans[span.0 as usize].end_ns = self.now_ns();
    }

    /// Times `work` as a child span of `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, work: impl FnOnce() -> T) -> T {
        let op = self.spans[parent.0 as usize].op;
        let id = self.begin(name, Some(parent), op);
        let out = work();
        self.end(id);
        out
    }

    /// Adds `n` to the count kept at boundary `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Appends a span whose ends were read as `Instant`s already — by
    /// another thread, or before it was known that a span was wanted.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name calls, total time and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Writes the trace as one JSON document: the per-layer totals, the
    /// counts, and the first `MAX_SPANS_WRITTEN` spans.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut doc = String::new();
        let _ = write!(
            doc,
            "{{\"workload\":\"{workload}\",\"spans_total\":{},\"layers\":{{",
            self.spans.len()
        );
        for (i, (name, t)) in self.layer_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                doc,
                "{sep}\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.calls, t.total_ns, t.self_ns
            );
        }
        doc.push_str("},\"counts\":{");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(doc, "{sep}\"{name}\":{n}");
        }
        doc.push_str("},\"spans\":[");
        for (id, s) in self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.0.to_string());
            let _ = write!(
                doc,
                "{sep}\n{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        doc.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(doc.as_bytes())
    }
}

impl Tracer {
    /// Ends a traced run: writes `out/trace_<workload>.json` and records
    /// the `trace.*` metrics, with the workload's headline rate from its
    /// timed part (`timed`) and its traced part (`traced`), and a note
    /// per layer.
    ///
    /// # Errors
    ///
    /// Returns the file-system error as text.
    pub fn report(
        &self,
        workload: &str,
        timed: f64,
        traced: f64,
        report: &mut Report,
    ) -> Result<(), String> {
        let path = out_dir().join(format!("trace_{workload}.json"));
        self.write_json(&path, workload)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.set("trace.spans", self.spans.len() as f64);
        report.set("trace.timed_ops_per_s", timed);
        report.set("trace.traced_ops_per_s", traced);
        report.set("trace.delta_pct", (traced - timed) / timed * 100.0);
        for (layer, t) in self.layer_times() {
            report.note(format!(
                "span {layer}: {} calls, self {:.2} us/call",
                t.calls,
                t.self_ns as f64 / t.calls.max(1) as f64 / 1e3
            ));
        }
        report.note(format!("trace written to {}", path.display()));
        Ok(())
    }
}

/// Self time of every span name: duration minus the part of the span's
/// interval that its child spans cover (children may overlap each other
/// when they come from concurrent threads, so coverage is a union).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    // Children of each parent, clipped to the parent's interval.
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter_map(|s| {
            let p = s.parent?;
            let parent = &spans[p.0 as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            (end > start).then_some((p.0, start, end))
        })
        .collect();
    children.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut open: Option<(u32, u64, u64)> = None;
    for (parent, start, end) in children {
        match &mut open {
            Some((p, _, hi)) if *p == parent && start <= *hi => *hi = (*hi).max(end),
            _ => {
                if let Some((p, lo, hi)) = open {
                    covered[p as usize] += hi - lo;
                }
                open = Some((parent, start, end));
            }
        }
    }
    if let Some((p, lo, hi)) = open {
        covered[p as usize] += hi - lo;
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += total;
        t.self_ns += total - covered[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent: parent.map(SpanId),
            op: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, "batch", 0, 100),
            span(Some(0), "recv", 10, 30),
            span(Some(0), "code", 30, 70),
            // Overlaps `code` (another thread): only 70..80 is new cover.
            span(Some(0), "send", 60, 80),
            // A grandchild never counts against the grandparent.
            span(Some(2), "kernel", 35, 45),
            // A child that outlives its parent is clipped to it.
            span(Some(0), "late", 95, 140),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["batch"].total_ns, 100);
        assert_eq!(t["batch"].self_ns, 100 - (70 + 5));
        assert_eq!(t["code"].self_ns, 30);
        assert_eq!(t["kernel"].self_ns, 10);
        assert_eq!(t["late"].total_ns, 45);
    }

    #[test]
    fn names_aggregate_across_operations() {
        let spans = [
            span(None, "poll", 0, 10),
            span(Some(0), "push", 2, 6),
            span(None, "poll", 10, 30),
            span(Some(2), "push", 12, 20),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["poll"],
            LayerTime {
                calls: 2,
                total_ns: 30,
                self_ns: 18
            }
        );
        assert_eq!(t["push"].calls, 2);
    }

    #[test]
    fn tracer_nests_and_counts() {
        let mut tr = Tracer::new();
        let batch = tr.begin("batch", None, 7);
        let got = tr.span("code", batch, || 41 + 1);
        tr.end(batch);
        tr.count("datagrams", 32);
        tr.count("datagrams", 1);
        assert_eq!(got, 42);
        assert_eq!(tr.spans()[1].op, 7);
        assert_eq!(tr.spans()[1].parent, Some(batch));
        assert_eq!(tr.counts["datagrams"], 33);
        let t = tr.layer_times();
        assert!(t["batch"].total_ns >= t["code"].total_ns);
    }
}
