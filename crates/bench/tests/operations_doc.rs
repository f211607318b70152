//! OPERATIONS.md's metric table is generated, not hand-kept.
//!
//! The table between the `metrics:begin` / `metrics:end` markers is
//! `ncvnf_obs::render_table` over every `metrics!` bundle the workspace
//! declares (relay node, relay data path, recovery, rlnc codec, payload
//! pool, dataplane VNF, control plane). This test renders it again
//! (`render_table` refuses a name declared twice across the workspace)
//! and compares byte for byte; on a mismatch it prints the block to
//! paste.

use std::path::Path;

use ncvnf_control::ControlCells;
use ncvnf_dataplane::VnfMetrics;
use ncvnf_obs::render_table;
use ncvnf_relay::{BatchCells, RecoveryCells, RelayNodeMetrics};
use ncvnf_rlnc::{PoolMetrics, RlncMetrics};

const BEGIN: &str = "<!-- metrics:begin -->\n";
const END: &str = "<!-- metrics:end -->\n";

#[test]
fn operations_doc_metric_table_is_the_rendered_tables() {
    let descriptors = [
        RelayNodeMetrics::DESCRIPTORS,
        BatchCells::DESCRIPTORS,
        RecoveryCells::DESCRIPTORS,
        RlncMetrics::DESCRIPTORS,
        PoolMetrics::DESCRIPTORS,
        VnfMetrics::DESCRIPTORS,
        ControlCells::DESCRIPTORS,
    ]
    .concat();

    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../OPERATIONS.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("OPERATIONS.md is part of the operator surface: {e}"));
    let block = doc
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(block, _)| block)
        .expect("OPERATIONS.md keeps its metric table between the two markers");

    let rendered = render_table(&descriptors);
    assert!(
        block == rendered,
        "OPERATIONS.md's metric table is stale; replace the lines between \
         the markers with:\n{rendered}"
    );
}
