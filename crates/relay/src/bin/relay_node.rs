//! Standalone coding-relay process: the deployable unit of the system.
//!
//! Binds a UDP data socket and a UDP control socket, prints both
//! addresses, and serves until killed. Configure it remotely with fenced
//! `NC_SETTINGS` / `NC_FORWARD_TAB` signals (see `ncvnf-control`), or
//! locally via flags, which it pushes to itself at controller epoch 0 (so
//! any journaled controller can take it over):
//!
//! ```text
//! relay_node [--data-port P] [--control-port P] [--session N]
//!            [--role recoder|decoder|forwarder] [--next-hop ip:port]...
//!            [--block-size 1460] [--generation-size 4] [--stats-secs 10]
//!            [--shards N] [--batch M]
//! ```
//!
//! `--shards N` splits the data path across N engine shards, each with
//! its own `SO_REUSEPORT` receive socket behind the one printed data
//! address; `--batch M` (up to 32) sets the messages per receive syscall
//! and the datagrams per flush (a `UDP_GRO` message may be a whole burst).
//!
//! A chain of these processes plus `send_file` / `recv_file` is a real
//! multi-process deployment of the paper's data plane.

use std::time::Duration;

use ncvnf_control::signal::VnfRoleWire;
use ncvnf_control::{ForwardingTable, SenderConfig, SignalSender};
use ncvnf_relay::{RelayConfig, RelayNode};
use ncvnf_rlnc::{GenerationConfig, SessionId};

struct Args {
    session: u16,
    role: VnfRoleWire,
    next_hops: Vec<String>,
    block_size: usize,
    generation_size: usize,
    stats_secs: u64,
    shards: usize,
    batch: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        session: 1,
        role: VnfRoleWire::Recoder,
        next_hops: Vec::new(),
        block_size: 1460,
        generation_size: 4,
        stats_secs: 10,
        shards: RelayConfig::default().shards,
        batch: RelayConfig::default().batch,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--session" => {
                args.session = value("--session")?.parse().map_err(|e| format!("{e}"))?
            }
            "--role" => {
                args.role = match value("--role")?.as_str() {
                    "recoder" => VnfRoleWire::Recoder,
                    "decoder" => VnfRoleWire::Decoder,
                    "forwarder" => VnfRoleWire::Forwarder,
                    other => return Err(format!("unknown role {other}")),
                }
            }
            "--next-hop" => args.next_hops.push(value("--next-hop")?),
            "--block-size" => {
                args.block_size = value("--block-size")?.parse().map_err(|e| format!("{e}"))?
            }
            "--generation-size" => {
                args.generation_size = value("--generation-size")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--stats-secs" => {
                args.stats_secs = value("--stats-secs")?.parse().map_err(|e| format!("{e}"))?
            }
            "--shards" => args.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--batch" => args.batch = value("--batch")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => {
                eprintln!("see module docs: relay_node --session N --role R --next-hop ip:port");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let generation = GenerationConfig::new(args.block_size, args.generation_size)
        .expect("valid generation layout");
    let relay = RelayNode::spawn(RelayConfig {
        generation,
        buffer_generations: 1024,
        seed: std::process::id() as u64,
        heartbeat: None,
        registry: None,
        shards: args.shards,
        batch: args.batch,
    })
    .expect("bind relay sockets");
    println!("relay data    {}", relay.data_addr);
    println!("relay control {}", relay.control_addr);
    println!("relay shards  {}", relay.handle().shards());

    // Self-configure over the control channel, exactly as the controller
    // would.
    let mut sender = SignalSender::new(0, SenderConfig::default()).expect("bind control client");
    let mut table = ForwardingTable::new();
    if !args.next_hops.is_empty() {
        table.set(SessionId::new(args.session), args.next_hops.clone());
    }
    relay
        .wire(&mut sender, SessionId::new(args.session), args.role, &table)
        .expect("configure over the control channel");
    if table.is_empty() {
        println!("no next hops configured; push NC_FORWARD_TAB to the control port");
    } else {
        println!(
            "session {} role {:?} -> {:?}",
            args.session, args.role, args.next_hops
        );
    }

    let handle = relay.handle();
    loop {
        std::thread::sleep(Duration::from_secs(args.stats_secs));
        let s = handle.stats();
        println!(
            "stats: in {} out {} signals {}",
            s.datagrams_in, s.datagrams_out, s.signals
        );
        // Full observability snapshot (same data an NC_STATS query on the
        // control port returns as JSON; see OPERATIONS.md).
        println!("{}", handle.snapshot().to_text());
    }
}
