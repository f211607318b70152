//! Metric tables: the one place a metric is declared.
//!
//! A [`metrics!`](crate::metrics) table row names the handle field, its
//! type, the metric's name, unit and meaning once; the struct, its
//! registration, its descriptor list and (through [`render_table`]) its
//! `OPERATIONS.md` rows all derive from that row.

use crate::metric::MetricDesc;

/// Declares a bundle of metric handles from one table.
///
/// Each row is `field: Handle = "name", "unit", "help";` where `Handle`
/// is `Counter`, `Gauge` or `Histogram`; the owning crate follows `in`.
/// The macro generates the struct (deriving `Debug` and `Clone`, `help`
/// as each field's rustdoc), `Bundle::DESCRIPTORS` (one
/// [`MetricDesc`] per row, in row order) and
/// `Bundle::register(&Registry)`. A bundle that needs state beside its
/// cells wraps the generated struct instead of extending the table.
///
/// # Examples
///
/// ```
/// ncvnf_obs::metrics! {
///     /// Socket counters of a demo node.
///     pub struct DemoMetrics in "demo" {
///         pub datagrams_in: Counter = "demo.datagrams_in", "datagrams", "Datagrams received";
///         pub queue_depth: Gauge = "demo.queue_depth", "packets", "Packets queued right now";
///     }
/// }
///
/// let registry = ncvnf_obs::Registry::new();
/// let m = DemoMetrics::register(&registry);
/// m.datagrams_in.inc();
/// assert_eq!(registry.snapshot().counter("demo.datagrams_in"), Some(1));
/// assert_eq!(DemoMetrics::DESCRIPTORS[1].kind, ncvnf_obs::MetricKind::Gauge);
/// assert_eq!(registry.descriptors(), DemoMetrics::DESCRIPTORS);
/// ```
#[macro_export]
macro_rules! metrics {
    ($(#[$meta:meta])* $vis:vis struct $bundle:ident in $owner:literal {
        $($fvis:vis $field:ident: $handle:ident = $name:literal, $unit:literal, $help:literal;)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $bundle {
            $(#[doc = $help] $fvis $field: $crate::$handle,)+
        }

        impl $bundle {
            /// One descriptor per table row, in row order.
            pub const DESCRIPTORS: &'static [$crate::MetricDesc] = &[$($crate::MetricDesc {
                name: $name,
                kind: <$crate::$handle as $crate::Cell>::KIND,
                unit: $unit,
                owner: $owner,
                help: $help,
            },)+];

            /// Registers (or retrieves) every metric of the table in
            /// `registry`.
            pub fn register(registry: &$crate::Registry) -> Self {
                let mut rows = Self::DESCRIPTORS.iter();
                $bundle {
                    $($field: registry.register(*rows.next().expect("one row per field")),)+
                }
            }
        }
    };
}

/// Renders descriptors as the Markdown metric table of `OPERATIONS.md`:
/// the header and one row per metric, sorted by name.
///
/// # Panics
///
/// Panics if two descriptors share a name: the tables passed in declare
/// one metric twice.
pub fn render_table(descriptors: &[MetricDesc]) -> String {
    let mut sorted = descriptors.to_vec();
    sorted.sort_by_key(|d| d.name);
    for pair in sorted.windows(2) {
        assert_ne!(pair[0].name, pair[1].name, "declared by two tables");
    }
    let mut table =
        String::from("| Metric | Kind | Unit | Crate | Meaning |\n|---|---|---|---|---|\n");
    for d in sorted {
        let kind = d.kind.name();
        table += &format!(
            "| `{}` | {kind} | {} | {} | {} |\n",
            d.name, d.unit, d.owner, d.help
        );
    }
    table
}
