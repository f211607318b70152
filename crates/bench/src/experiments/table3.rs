//! Table III — live forwarding-table update latency vs update percentage.
//!
//! The paper updates 20–100 % of a 10-entry forwarding table on a running
//! VNF and reports 78→311 ms (their path includes WAN signalling). Here
//! the update runs against a live loopback relay through the same daemon
//! logic, pushed the way the controller pushes (a fenced frame, timed to
//! its ACK); absolute numbers are far smaller, but latency must grow with
//! the update fraction. A second sweep with a large (2000-entry) table
//! makes the scaling visible above timer noise.

use std::time::{Duration, Instant};

use crate::report::{fmt, render_csv, render_table, ExperimentResult};
use ncvnf_control::signal::{Signal, VnfRoleWire};
use ncvnf_control::{ForwardingTable, SenderConfig, SignalSender};
use ncvnf_relay::{RelayConfig, RelayNode};
use ncvnf_rlnc::SessionId;

/// Update percentages swept.
pub const UPDATE_PCT: [usize; 5] = [20, 40, 60, 80, 100];

fn table_with(entries: usize, generation: usize) -> ForwardingTable {
    let mut t = ForwardingTable::new();
    for i in 0..entries {
        t.set(
            SessionId::new(i as u16),
            vec![format!(
                "127.0.0.1:{}",
                10000 + (generation * entries + i) % 50000
            )],
        );
    }
    t
}

/// Measures push→ACK time of table updates of increasing size.
fn sweep(entries: usize, repeats: usize) -> Vec<(usize, f64)> {
    let relay = RelayNode::spawn(RelayConfig::default()).expect("relay spawns");
    let mut sender = SignalSender::new(1, SenderConfig::default()).expect("bind");
    // Configure one session so the daemon is Running, and install the
    // base table.
    let base = table_with(entries, 0);
    relay
        .wire(&mut sender, SessionId::new(0), VnfRoleWire::Recoder, &base)
        .expect("relay configures");
    let mut push = |table: &ForwardingTable| {
        let sig = Signal::NcForwardTab {
            table: table.to_text(),
        };
        if let Err(e) = sender.push(relay.control_addr, &sig) {
            panic!("table update not applied: {e}");
        }
    };

    // One untimed push of the base table it already holds, so the first
    // timed point does not read the path's cold start.
    push(&base);

    let mut out = Vec::new();
    for (round, &pct) in UPDATE_PCT.iter().enumerate() {
        let changed = entries * pct / 100;
        let mut total = Duration::ZERO;
        for rep in 0..repeats {
            // Ship only the changed fraction (delta update): the update
            // cost scales with the entries that must be re-applied.
            let mut delta = ForwardingTable::new();
            for i in 0..changed {
                delta.set(
                    SessionId::new(i as u16),
                    vec![format!(
                        "127.0.0.1:{}",
                        20000 + (round * 1000 + rep * 100 + i) % 40000
                    )],
                );
            }
            let t0 = Instant::now();
            push(&delta);
            total += t0.elapsed();
            // Restore the base entries so every round changes the same
            // fraction (this delta is the same size; not timed).
            let mut restore = ForwardingTable::new();
            for i in 0..changed {
                restore.set(
                    SessionId::new(i as u16),
                    base.next_hops(SessionId::new(i as u16))
                        .expect("base entry")
                        .to_vec(),
                );
            }
            push(&restore);
        }
        out.push((pct, total.as_secs_f64() * 1000.0 / repeats as f64));
    }
    relay.shutdown();
    out
}

/// Runs both sweeps (10-entry paper-scale, 2000-entry stress).
pub fn run(quick: bool) -> ExperimentResult {
    let repeats = if quick { 3 } else { 10 };
    let small = sweep(10, repeats);
    let large = sweep(2000, repeats);
    let paper = [78.44, 145.82, 194.06, 264.82, 310.61];
    let mut rows = Vec::new();
    for (i, &pct) in UPDATE_PCT.iter().enumerate() {
        rows.push(vec![
            pct.to_string(),
            fmt(paper[i], 2),
            fmt(small[i].1, 3),
            fmt(large[i].1, 3),
        ]);
    }
    let headers = [
        "update_pct",
        "paper_ms_10_entries",
        "loopback_ms_10_entries",
        "loopback_ms_2000_entries",
    ];
    let rendered = render_table(&headers, &rows);
    ExperimentResult {
        id: "table3".into(),
        title: "Table III: live forwarding-table update latency".into(),
        rendered,
        csv: render_csv(&headers, &rows),
    }
}
