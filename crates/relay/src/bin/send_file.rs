//! Streams a file as coded generations to one or more next hops.
//!
//! ```text
//! send_file --file PATH --to ip:port [--to ip:port]...
//!           [--session N] [--rate-mbps 100] [--redundancy 1]
//! ```
//!
//! Pair with `relay_node` processes and a `recv_file` at the end. The
//! transfer is best-effort (`--redundancy` is all the loss protection):
//! the reliable protocol needs the receiver to know the sender's address,
//! which these two tools do not exchange.

use std::net::{SocketAddr, UdpSocket};

use ncvnf_relay::{send_object_reliable, RecoveryConfig, TransferConfig, TransferObs};
use ncvnf_rlnc::{GenerationConfig, ObjectEncoder, RedundancyPolicy, SessionId};

fn main() {
    let mut file = None;
    let mut to: Vec<SocketAddr> = Vec::new();
    let mut session = 1u16;
    let mut rate_mbps = 100.0f64;
    let mut redundancy = 1u32;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        match flag.as_str() {
            "--file" => file = Some(value),
            "--to" => to.push(value.parse().expect("valid ip:port")),
            "--session" => session = value.parse().expect("valid session id"),
            "--rate-mbps" => rate_mbps = value.parse().expect("valid rate"),
            "--redundancy" => redundancy = value.parse().expect("valid redundancy"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: send_file --file PATH --to ip:port [...]");
        std::process::exit(2);
    };
    if to.is_empty() {
        eprintln!("need at least one --to next hop");
        std::process::exit(2);
    }
    let object = std::fs::read(&file).expect("read input file");
    let config = TransferConfig {
        session: SessionId::new(session),
        generation: GenerationConfig::paper_default(),
        redundancy: RedundancyPolicy::new(redundancy),
        rate_bps: rate_mbps * 1e6,
        seed: std::process::id() as u64,
    };
    let generations = ObjectEncoder::new(config.generation, config.session, &object)
        .expect("valid object")
        .generations();
    println!(
        "sending {} bytes ({generations} generations) to {to:?} at {rate_mbps} Mbps (NC{redundancy})",
        object.len()
    );
    let best_effort = RecoveryConfig {
        max_retries: 0,
        ..RecoveryConfig::default()
    };
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sender");
    let t0 = std::time::Instant::now();
    let sent = send_object_reliable(
        &socket,
        &config,
        &best_effort,
        &object,
        &to,
        &TransferObs::new(),
    )
    .expect("transfer")
    .initial_packets;
    println!(
        "done: {sent} packets in {:.2}s; receiver needs {generations} decoded generations",
        t0.elapsed().as_secs_f64()
    );
    println!(
        "recv_file must be started with: --session {session} --generations {generations} --bytes {}",
        object.len()
    );
}
