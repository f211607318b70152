//! Real sockets: transfer a file through two live UDP coding relays on
//! loopback, configured over the control channel — a laptop-scale version
//! of the paper's EC2 deployment.
//!
//! Run with `cargo run --release --example file_transfer_loopback`.

use std::time::{Duration, Instant};

use ncvnf::relay::{reliable_chain, RecoveryConfig, TransferConfig};
use ncvnf::rlnc::{GenerationConfig, RedundancyPolicy, SessionId};

fn main() {
    let config = TransferConfig {
        session: SessionId::new(9),
        generation: GenerationConfig::paper_default(),
        redundancy: RedundancyPolicy::NC1,
        rate_bps: 150e6,
        seed: 2024,
    };
    let object: Vec<u8> = (0..4 << 20).map(|i| (i * 31 + 7) as u8).collect();
    println!(
        "transferring {} MiB through 2 coding relays on loopback at {} Mbps...",
        object.len() >> 20,
        config.rate_bps / 1e6
    );
    let t0 = Instant::now();
    let report = reliable_chain(
        &config,
        &RecoveryConfig::default(),
        &object,
        &[None, None],
        Duration::from_secs(60),
    )
    .expect("sockets work")
    .expect("transfer completes");
    let wall = t0.elapsed();
    let (source, report) = (report.source, report.receiver);
    assert_eq!(report.object, object, "byte-exact recovery");
    println!(
        "done: {} packets received ({} repair packets sent) in {:.2}s wall, {:.2}s receive window",
        report.packets,
        source.retransmit_packets,
        wall.as_secs_f64(),
        report.elapsed.as_secs_f64()
    );
    println!(
        "goodput: {:.1} Mbps",
        object.len() as f64 * 8.0 / report.elapsed.as_secs_f64() / 1e6
    );
}
