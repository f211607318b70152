//! Receives a coded stream, decodes it, and writes the recovered file.
//!
//! ```text
//! recv_file --out PATH --generations N [--session N] [--timeout-secs 60]
//! ```
//!
//! Prints its UDP address on startup; point the last relay (or
//! `send_file` directly) at it. It only listens: `send_file` transfers
//! best-effort, so there is nobody to send feedback to.

use std::time::Duration;

use ncvnf_relay::{RecoveryConfig, ReliableReceiver, TransferConfig, TransferObs};
use ncvnf_rlnc::{GenerationConfig, RedundancyPolicy, SessionId};

fn main() {
    let mut out = None;
    let mut generations = None;
    let mut session = 1u16;
    let mut timeout_secs = 60u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        match flag.as_str() {
            "--out" => out = Some(value),
            "--generations" => generations = Some(value.parse().expect("valid count")),
            "--session" => session = value.parse().expect("valid session id"),
            "--timeout-secs" => timeout_secs = value.parse().expect("valid timeout"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let (Some(out), Some(generations)) = (out, generations) else {
        eprintln!("usage: recv_file --out PATH --generations N");
        std::process::exit(2);
    };
    let config = TransferConfig {
        session: SessionId::new(session),
        generation: GenerationConfig::paper_default(),
        redundancy: RedundancyPolicy::NC0, // receiver-side: irrelevant
        rate_bps: 1.0,                     // receiver-side: irrelevant
        seed: 0,
    };
    let receiver = ReliableReceiver::spawn(
        &config,
        &RecoveryConfig::default(),
        generations,
        None,
        &TransferObs::new(),
    )
    .expect("bind receiver");
    println!("listening on {}", receiver.addr);
    match receiver.wait(Duration::from_secs(timeout_secs)) {
        Some(report) if !report.object.is_empty() => {
            std::fs::write(&out, &report.object).expect("write output");
            println!(
                "decoded {} bytes from {} packets in {:.2}s -> {}",
                report.object.len(),
                report.packets,
                report.elapsed.as_secs_f64(),
                out
            );
        }
        _ => {
            eprintln!("transfer did not complete within {timeout_secs}s");
            std::process::exit(1);
        }
    }
}
