//! OPERATIONS.md is the complete metric reference — enforced, not
//! aspirational.
//!
//! Registers every metrics bundle the workspace ships (relay node,
//! relay data path, recovery, rlnc codec, payload pool, dataplane VNF,
//! control plane) into one registry, then diffs the registered
//! descriptors against the metric table in `OPERATIONS.md`. A metric
//! added without a doc row — or a doc row whose kind/unit/crate drifts
//! from the code — fails this test, and the failure message prints the
//! exact rows the table must contain.

use std::path::Path;

use ncvnf_control::ControlMetrics;
use ncvnf_dataplane::VnfMetrics;
use ncvnf_obs::{MetricDesc, Registry};
use ncvnf_relay::{BatchMetrics, RelayNodeMetrics, TransferObs};

/// One registry holding every metric any ncvnf component can register.
fn full_registry() -> Registry {
    let registry = Registry::new();
    let _ = RelayNodeMetrics::register(&registry);
    let _ = BatchMetrics::register(&registry);
    // Recovery + rlnc codec + payload pool bundles.
    let _ = TransferObs::in_registry(&registry);
    let _ = VnfMetrics::register(&registry);
    let _ = ControlMetrics::register(&registry);
    registry
}

fn doc_row(d: &MetricDesc) -> String {
    format!(
        "| `{}` | {} | {} | {} | {} |",
        d.name,
        d.kind.name(),
        d.unit,
        d.owner,
        d.help
    )
}

/// Rows of the OPERATIONS.md metric table as `(name, kind, unit, owner)`.
fn parse_doc_table(doc: &str) -> Vec<(String, String, String, String)> {
    let mut rows = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        // Metric rows look like: | `relay.steps` | counter | steps | relay | ... |
        if !line.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 5 {
            continue;
        }
        let name = cells[0].trim_matches('`');
        rows.push((
            name.to_string(),
            cells[1].to_string(),
            cells[2].to_string(),
            cells[3].to_string(),
        ));
    }
    rows
}

#[test]
fn operations_doc_lists_every_registered_metric() {
    let registry = full_registry();
    let descriptors = registry.descriptors();
    assert!(
        descriptors.len() > 20,
        "every bundle registered ({} metrics)",
        descriptors.len()
    );

    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../OPERATIONS.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("OPERATIONS.md is part of the operator surface: {e}"));
    let documented = parse_doc_table(&doc);

    let canonical: Vec<String> = descriptors.iter().map(doc_row).collect();
    let mut problems = Vec::new();
    for d in &descriptors {
        match documented.iter().find(|(name, ..)| name == d.name) {
            None => problems.push(format!("missing from OPERATIONS.md: {}", d.name)),
            Some((_, kind, unit, owner)) => {
                if kind != d.kind.name() || unit != d.unit || owner != d.owner {
                    problems.push(format!(
                        "drifted in OPERATIONS.md: {} (doc says {kind}/{unit}/{owner}, \
                         code says {}/{}/{})",
                        d.name,
                        d.kind.name(),
                        d.unit,
                        d.owner
                    ));
                }
            }
        }
    }
    for (name, ..) in &documented {
        if !descriptors.iter().any(|d| d.name == name) {
            problems.push(format!("documented but never registered: {name}"));
        }
    }
    assert!(
        problems.is_empty(),
        "OPERATIONS.md and the registry disagree:\n  {}\n\n\
         canonical table rows:\n{}\n",
        problems.join("\n  "),
        canonical.join("\n")
    );
}
