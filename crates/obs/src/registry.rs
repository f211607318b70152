//! The metric registry and its snapshot model.
//!
//! A [`Registry`] is the rendezvous point between instrumented
//! subsystems and operators: subsystems register metrics once at
//! startup (the only place a lock is taken) and then record through
//! the returned handles lock-free; operators call
//! [`Registry::snapshot`] to get an owned, typed [`Snapshot`] that can
//! be rendered as JSON (for the `NC_STATS` control query and bench
//! reports) or as an aligned text table (for humans).

use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metric::{Counter, Gauge, MetricDesc, MetricKind};
use crate::trace::{TraceEvent, TraceRing};

/// Default trace-ring capacity for [`Registry::new`].
const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// The registry's cells, one list per handle type. Public only so
/// [`Cell`] can name it; not re-exported from the crate.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct Tables {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
}

impl Tables {
    fn descriptors(&self) -> impl Iterator<Item = MetricDesc> + '_ {
        let counters = self.counters.iter().map(Counter::desc);
        counters
            .chain(self.gauges.iter().map(Gauge::desc))
            .chain(self.histograms.iter().map(Histogram::desc))
    }
}

/// A metric handle type a [`Registry`] can create and find again by
/// name: [`Counter`], [`Gauge`] and [`Histogram`], nothing else. The
/// [`metrics!`](crate::metrics) tables name one of the three per row;
/// `KIND` is how a row's descriptor learns its kind from that type.
pub trait Cell: Clone {
    /// The kind a descriptor must carry to register as this handle.
    const KIND: MetricKind;
    /// The descriptor this handle was registered with.
    fn desc(&self) -> MetricDesc;
    #[doc(hidden)]
    fn create(desc: MetricDesc) -> Self;
    #[doc(hidden)]
    fn table(tables: &mut Tables) -> &mut Vec<Self>;
}

macro_rules! impl_cell {
    ($($handle:ident in $table:ident),+) => {$(
        impl Cell for $handle {
            const KIND: MetricKind = MetricKind::$handle;
            fn desc(&self) -> MetricDesc {
                self.core.desc
            }
            fn create(desc: MetricDesc) -> Self {
                $handle::new(desc)
            }
            fn table(tables: &mut Tables) -> &mut Vec<Self> {
                &mut tables.$table
            }
        }
    )+};
}
impl_cell!(Counter in counters, Gauge in gauges, Histogram in histograms);

/// A collection of registered metrics plus one trace ring.
///
/// Registration is idempotent by metric name: registering the same
/// name twice returns a handle to the same underlying cell, so
/// independent components can share a metric without coordination.
/// Registration takes a mutex; recording never does.
#[derive(Debug, Clone)]
pub struct Registry {
    tables: Arc<Mutex<Tables>>,
    trace: TraceRing,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry with the default trace capacity.
    pub fn new() -> Self {
        Registry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates an empty registry whose trace ring holds `capacity`
    /// events (rounded up to a power of two).
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Registry {
            tables: Arc::new(Mutex::new(Tables::default())),
            trace: TraceRing::with_capacity(capacity),
        }
    }

    /// Registers (or retrieves) the metric described by `desc` as the
    /// handle type `C` — what [`metrics!`](crate::metrics) bundles call
    /// once per row.
    ///
    /// # Panics
    ///
    /// Panics if `desc.kind` is not `C`'s kind, or if `desc.name` is
    /// already registered with a descriptor that differs in any field
    /// (kind, unit, owner or help): two declarations of one metric is a
    /// programming error, not a runtime state.
    pub fn register<C: Cell>(&self, desc: MetricDesc) -> C {
        assert_eq!(desc.kind, C::KIND, "{}: kind mismatch", desc.name);
        let mut t = self.tables.lock().expect("obs registry poisoned");
        if let Some(prior) = t.descriptors().find(|d| d.name == desc.name) {
            assert_eq!(
                prior, desc,
                "{}: registered as two different descriptors",
                desc.name
            );
        }
        let cells = C::table(&mut t);
        if let Some(cell) = cells.iter().find(|c| c.desc().name == desc.name) {
            return cell.clone();
        }
        let cell = C::create(desc);
        cells.push(cell.clone());
        cell
    }

    /// [`Registry::register`] for a counter.
    pub fn counter(&self, desc: MetricDesc) -> Counter {
        self.register(desc)
    }

    /// [`Registry::register`] for a gauge.
    pub fn gauge(&self, desc: MetricDesc) -> Gauge {
        self.register(desc)
    }

    /// [`Registry::register`] for a histogram.
    pub fn histogram(&self, desc: MetricDesc) -> Histogram {
        self.register(desc)
    }

    /// The registry's trace ring; clone it into producers that emit
    /// structured events.
    pub fn trace(&self) -> TraceRing {
        self.trace.clone()
    }

    /// Descriptors of every registered metric, sorted by name.
    pub fn descriptors(&self) -> Vec<MetricDesc> {
        let t = self.tables.lock().expect("obs registry poisoned");
        let mut all: Vec<MetricDesc> = t.descriptors().collect();
        all.sort_by_key(|d| d.name);
        all
    }

    /// Copies every metric and drains pending trace events into an
    /// owned [`Snapshot`]. Metrics are sorted by name so snapshots are
    /// deterministic and diffable.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.tables.lock().expect("obs registry poisoned");
        let mut counters: Vec<CounterValue> = t
            .counters
            .iter()
            .map(|c| CounterValue {
                desc: c.desc(),
                value: c.get(),
            })
            .collect();
        counters.sort_by_key(|c| c.desc.name);
        let mut gauges: Vec<GaugeValue> = t
            .gauges
            .iter()
            .map(|g| GaugeValue {
                desc: g.desc(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by_key(|g| g.desc.name);
        let mut histograms: Vec<HistogramValue> = t
            .histograms
            .iter()
            .map(|h| HistogramValue {
                desc: h.desc(),
                hist: h.snapshot(),
            })
            .collect();
        histograms.sort_by_key(|h| h.desc.name);
        drop(t);
        let mut events = Vec::new();
        self.trace.drain(&mut events);
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
            trace_dropped: self.trace.dropped(),
        }
    }
}

/// A counter's descriptor and value at snapshot time.
#[derive(Debug, Clone)]
pub struct CounterValue {
    /// The metric's static metadata.
    pub desc: MetricDesc,
    /// Value when the snapshot was taken.
    pub value: u64,
}

/// A gauge's descriptor and level at snapshot time.
#[derive(Debug, Clone)]
pub struct GaugeValue {
    /// The metric's static metadata.
    pub desc: MetricDesc,
    /// Level when the snapshot was taken.
    pub value: f64,
}

/// A histogram's descriptor and bucket state at snapshot time.
#[derive(Debug, Clone)]
pub struct HistogramValue {
    /// The metric's static metadata.
    pub desc: MetricDesc,
    /// Owned copy of the distribution.
    pub hist: HistogramSnapshot,
}

/// An owned, typed copy of everything a [`Registry`] knows: metric
/// values sorted by name plus the trace events drained at snapshot
/// time.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterValue>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeValue>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramValue>,
    /// Trace events drained by this snapshot (oldest first).
    pub events: Vec<TraceEvent>,
    /// Cumulative count of trace events lost to ring overflow.
    pub trace_dropped: u64,
}

fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Looks up a counter's value by metric name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.desc.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge's level by metric name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.desc.name == name)
            .map(|g| g.value)
    }

    /// Looks up a histogram by metric name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.desc.name == name)
            .map(|h| &h.hist)
    }

    /// Renders the snapshot as a single JSON object.
    ///
    /// Histograms are summarized (count/sum/min/max/mean/p50/p90/p99)
    /// rather than dumped bucket-by-bucket; the full buckets stay
    /// available on the typed model. The output is what the `NC_STATS`
    /// control query returns on the wire.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(c.desc.name, &mut s);
            s.push_str(&format!("\":{}", c.value));
        }
        s.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(g.desc.name, &mut s);
            s.push_str("\":");
            s.push_str(&json_f64(g.value));
        }
        s.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(h.desc.name, &mut s);
            let hs = &h.hist;
            s.push_str(&format!(
                "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                hs.count,
                hs.sum,
                hs.min,
                hs.max,
                json_f64(hs.mean()),
                hs.quantile(0.50),
                hs.quantile(0.90),
                hs.quantile(0.99),
            ));
        }
        s.push_str("},\"trace\":{\"dropped\":");
        s.push_str(&format!("{}", self.trace_dropped));
        s.push_str(",\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"seq\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                ev.seq,
                ev.kind.name(),
                ev.a,
                ev.b
            ));
        }
        s.push_str("]}}");
        s
    }

    /// Renders the snapshot as an aligned, human-readable text table.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(2048);
        let width = self
            .counters
            .iter()
            .map(|c| c.desc.name.len())
            .chain(self.gauges.iter().map(|g| g.desc.name.len()))
            .chain(self.histograms.iter().map(|h| h.desc.name.len()))
            .max()
            .unwrap_or(0);
        for c in &self.counters {
            s.push_str(&format!(
                "{:<width$}  {:>12} {}\n",
                c.desc.name, c.value, c.desc.unit
            ));
        }
        for g in &self.gauges {
            s.push_str(&format!(
                "{:<width$}  {:>12.3} {}\n",
                g.desc.name, g.value, g.desc.unit
            ));
        }
        for h in &self.histograms {
            let hs = &h.hist;
            s.push_str(&format!(
                "{:<width$}  count={} min={} p50={} p99={} max={} {}\n",
                h.desc.name,
                hs.count,
                hs.min,
                hs.quantile(0.5),
                hs.quantile(0.99),
                hs.max,
                h.desc.unit
            ));
        }
        if self.trace_dropped > 0 || !self.events.is_empty() {
            s.push_str(&format!(
                "trace: {} event(s), {} dropped\n",
                self.events.len(),
                self.trace_dropped
            ));
            for ev in &self.events {
                s.push_str(&format!(
                    "  [{}] {} a={} b={}\n",
                    ev.seq,
                    ev.kind.name(),
                    ev.a,
                    ev.b
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    const C: MetricDesc = MetricDesc {
        name: "z.count",
        kind: MetricKind::Counter,
        unit: "events",
        owner: "obs",
        help: "test ctr",
    };
    const G: MetricDesc = MetricDesc {
        name: "a.level",
        kind: MetricKind::Gauge,
        unit: "items",
        owner: "obs",
        help: "test gauge",
    };
    const H: MetricDesc = MetricDesc {
        name: "m.lat",
        kind: MetricKind::Histogram,
        unit: "ns",
        owner: "obs",
        help: "test hist",
    };

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let c1 = r.counter(C);
        let c2 = r.counter(C);
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        assert_eq!(r.descriptors().len(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_collision_panics() {
        let r = Registry::new();
        let _ = r.counter(C);
        let bad = MetricDesc {
            kind: MetricKind::Gauge,
            ..C
        };
        let _ = r.gauge(bad);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn redeclaring_a_name_with_another_unit_panics() {
        let r = Registry::new();
        let _ = r.counter(C);
        let _ = r.counter(MetricDesc {
            unit: "packets",
            ..C
        });
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter(C).add(7);
        r.gauge(G).set(1.5);
        r.histogram(H).record(100);
        r.trace().push(TraceKind::Custom, 1, 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("z.count"), Some(7));
        assert_eq!(snap.gauge("a.level"), Some(1.5));
        assert_eq!(snap.histogram("m.lat").map(|h| h.count), Some(1));
        assert_eq!(snap.events.len(), 1);
        let names: Vec<&str> = r.descriptors().iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["a.level", "m.lat", "z.count"]);
    }

    #[test]
    fn json_renders_and_balances() {
        let r = Registry::new();
        r.counter(C).inc();
        r.gauge(G).set(0.25);
        r.histogram(H).record(42);
        r.trace().push(TraceKind::Scaling, 1, 3);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"z.count\":1"));
        assert!(json.contains("\"a.level\":0.25"));
        assert!(json.contains("\"kind\":\"scaling\""));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn text_renders_all_sections() {
        let r = Registry::new();
        r.counter(C).inc();
        r.histogram(H).record(5);
        let text = r.snapshot().to_text();
        assert!(text.contains("z.count"));
        assert!(text.contains("count=1"));
    }
}
