//! Sharded relay runtime invariants (DESIGN.md §14).
//!
//! Three families of guarantees keep the sharded data path equivalent to
//! the single-engine relay it replaced:
//!
//! 1. **Placement** — [`shard_of`] is a pure function of `(session,
//!    generation)`: every packet of one generation lands on the same
//!    shard (a generation's decoder state is not splittable), while the
//!    generations of one session spread across shards (one heavy session
//!    can use more than one core). Pinned by proptest.
//! 2. **Reconfiguration** — a live table swap reaches *every* shard's
//!    route cache: under traffic that covers all four shards, no packet
//!    reaches the removed hop after the swap ACK plus a grace window.
//! 3. **Chaos determinism** — a pinned `NCVNF_CHAOS_SEED` reproduces the
//!    identical fault pattern whether datagrams move through
//!    [`FaultSocket`] one at a time or via `recv_batch`/`send_batch`:
//!    the four fault gates are drawn once per *wire* datagram in arrival
//!    order in both modes.

use std::collections::HashSet;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncvnf_control::signal::{FencedSignal, Signal, VnfRoleWire};
use ncvnf_control::ForwardingTable;
use ncvnf_relay::{
    shard_of, DatagramSocket, FaultConfig, FaultSocket, FaultStats, RecvBatch, RelayConfig,
    RelayNode, SendBatch, MAX_BATCH,
};
use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, SessionId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------- placement

proptest! {
    /// The shard map is total, in range, and deterministic: every packet
    /// of one `(session, generation)` resolves to the same shard no
    /// matter which ingress thread computes it.
    #[test]
    fn shard_of_is_deterministic_and_in_range(
        session in any::<u16>(),
        generation in any::<u64>(),
        shards in 1usize..=16,
    ) {
        let owner = shard_of(SessionId::new(session), generation, shards);
        prop_assert!(owner < shards);
        for _ in 0..4 {
            prop_assert_eq!(owner, shard_of(SessionId::new(session), generation, shards));
        }
    }

    /// Successive generations of a single session do not pile onto one
    /// shard: a lone heavy session still parallelizes.
    #[test]
    fn generations_of_one_session_spread_across_shards(session in any::<u16>()) {
        for shards in [2usize, 4, 8] {
            let hit: HashSet<usize> = (0..64u64)
                .map(|g| shard_of(SessionId::new(session), g, shards))
                .collect();
            prop_assert!(
                hit.len() > 1,
                "64 generations of session {} all hashed to one of {} shards",
                session, shards
            );
        }
    }

    /// A single shard degenerates to the unsharded relay: everything is
    /// shard 0.
    #[test]
    fn single_shard_owns_everything(session in any::<u16>(), generation in any::<u64>()) {
        prop_assert_eq!(shard_of(SessionId::new(session), generation, 1), 0);
    }
}

// ----------------------------------------------------------- reconfiguration

const SESSION: u16 = 7;

fn cfg() -> GenerationConfig {
    GenerationConfig::new(256, 4).unwrap()
}

/// A controller's control client for one relay, at epoch 1 with one
/// sequence counter: each signal goes out as the next fenced frame.
struct Control {
    socket: UdpSocket,
    seq: u64,
}

fn control_client() -> Control {
    let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    Control { socket, seq: 0 }
}

/// Sends a signal as the next fenced frame and returns the relay's reply.
fn signal_roundtrip(control: &mut Control, to: std::net::SocketAddr, sig: &Signal) -> String {
    control.seq += 1;
    let frame = FencedSignal {
        epoch: 1,
        seq: control.seq,
        signal: sig.clone(),
    };
    let mut ack = [0u8; 32];
    control.socket.send_to(&frame.to_bytes(), to).unwrap();
    let (n, _) = control.socket.recv_from(&mut ack).expect("relay replies");
    String::from_utf8_lossy(&ack[..n]).into_owned()
}

fn table_signal(hop: String) -> Signal {
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(SESSION), vec![hop]);
    Signal::NcForwardTab {
        table: table.to_text(),
    }
}

fn drain_for(sink: &UdpSocket, window: Duration) -> u64 {
    let mut buf = vec![0u8; 2048];
    let deadline = Instant::now() + window;
    let mut got = 0;
    while Instant::now() < deadline {
        if sink.recv_from(&mut buf).is_ok() {
            got += 1;
        }
    }
    got
}

/// A live table swap on a 4-shard relay reaches every shard's route
/// cache: traffic spanning generations owned by all four shards keeps
/// flowing to the new hop and never again reaches the removed one.
#[test]
fn four_shard_table_swap_under_traffic_reaches_every_shard() {
    const SHARDS: usize = 4;
    // The sender cycles one generation per shard (found by scanning the
    // shard map), so a shard with a stale RouteCache would necessarily
    // leak packets to the removed hop below.
    let mut picks: Vec<u64> = Vec::new();
    let mut owners_seen = [false; SHARDS];
    for g in 0..256u64 {
        let owner = shard_of(SessionId::new(SESSION), g, SHARDS);
        if !owners_seen[owner] {
            owners_seen[owner] = true;
            picks.push(g);
        }
    }
    assert_eq!(picks.len(), SHARDS, "traffic covers every shard");

    let relay = RelayNode::spawn(RelayConfig {
        generation: cfg(),
        buffer_generations: 64,
        seed: 21,
        heartbeat: None,
        registry: None,
        shards: SHARDS,
        ..RelayConfig::default()
    })
    .unwrap();
    let sink_a = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let sink_b = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    for s in [&sink_a, &sink_b] {
        s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    }

    let mut control = control_client();
    let settings = Signal::NcSettings {
        session: SessionId::new(SESSION),
        role: VnfRoleWire::Recoder,
        data_port: relay.data_addr.port(),
        block_size: 256,
        generation_size: 4,
        buffer_generations: 64,
    };
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &settings),
        "OK 1"
    );
    let hop_a = sink_a.local_addr().unwrap().to_string();
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &table_signal(hop_a)),
        "OK 2"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let stop = Arc::clone(&stop);
        let data_addr = relay.data_addr;
        std::thread::spawn(move || {
            let enc = GenerationEncoder::new(cfg(), &[0xC4; 1024]).unwrap();
            let mut rng = StdRng::seed_from_u64(13);
            let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..8 {
                    let generation = picks[i % picks.len()];
                    let pkt = enc.coded_packet(SessionId::new(SESSION), generation, &mut rng);
                    let _ = socket.send_to(&pkt.to_bytes(), data_addr);
                    i += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    assert!(
        drain_for(&sink_a, Duration::from_millis(200)) > 0,
        "traffic reaches hop A before the swap"
    );

    let hop_b = sink_b.local_addr().unwrap().to_string();
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &table_signal(hop_b)),
        "OK 3"
    );

    // Grace window for packets already routed / queued in A's buffer.
    drain_for(&sink_a, Duration::from_millis(200));

    let late_a = drain_for(&sink_a, Duration::from_millis(300));
    assert_eq!(
        late_a, 0,
        "no shard may route to the removed hop after the swap"
    );
    assert!(
        drain_for(&sink_b, Duration::from_millis(300)) > 0,
        "traffic reaches the new hop after the swap"
    );

    stop.store(true, Ordering::Relaxed);
    sender.join().unwrap();
    let handle = relay.handle();
    let stats = handle.stats();
    relay.shutdown();
    assert_eq!(stats.shards, SHARDS as u64);
    assert!(stats.batches > 0, "data moved through the batched loop");
    assert!(
        stats.cross_shard_packets > 0,
        "one ingress queue fed generations owned by other shards"
    );
    assert!(stats.datagrams_in > 0 && stats.datagrams_out > 0);
    assert_eq!(stats.rejected_signals, 0);
}

// -------------------------------------------------------- chaos determinism

fn chaos_seed() -> u64 {
    std::env::var("NCVNF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC405_2017)
}

const CHAOS_DATAGRAMS: u16 = 160;

fn payload(i: u16) -> [u8; 3] {
    [(i >> 8) as u8, i as u8, (i as u8).wrapping_mul(7)]
}

/// Sends the standard datagram sequence into a freshly wrapped ingress
/// fault socket, then receives everything either one datagram at a time
/// or via `recv_batch`, returning the delivered payloads in order plus
/// the final fault counters.
fn run_ingress_chaos(seed: u64, batched: bool) -> (Vec<Vec<u8>>, FaultStats) {
    let (sock, handle) = FaultSocket::bind_loopback(
        FaultConfig::new(seed)
            .with_drop(0.2)
            .with_duplicate(0.15)
            .with_reorder(0.2)
            .with_directions(true, false),
    )
    .unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let sender = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let to = sock.local_addr().unwrap();
    for i in 0..CHAOS_DATAGRAMS {
        sender.send_to(&payload(i), to).unwrap();
    }
    // Let every datagram land in the receive queue before draining, so
    // neither mode observes a mid-stream timeout (which releases the
    // reorder stash early and would make the comparison timing-
    // dependent rather than seed-dependent).
    std::thread::sleep(Duration::from_millis(50));

    let mut got = Vec::new();
    if batched {
        let mut batch = RecvBatch::new(MAX_BATCH, 64);
        while sock.recv_batch(&mut batch).is_ok() {
            for (bytes, _src) in batch.iter() {
                got.push(bytes.to_vec());
            }
        }
    } else {
        let mut buf = [0u8; 64];
        while let Ok((n, _)) = sock.recv_from(&mut buf) {
            got.push(buf[..n].to_vec());
        }
    }
    (got, handle.stats())
}

/// The pinned chaos seed reproduces the identical ingress fault pattern
/// batched and unbatched: same delivered payloads in the same order,
/// same drop/duplicate/reorder counters.
#[test]
fn ingress_chaos_is_identical_batched_and_unbatched() {
    let seed = chaos_seed();
    let (unbatched, stats_u) = run_ingress_chaos(seed, false);
    let (batched, stats_b) = run_ingress_chaos(seed, true);
    assert_eq!(
        stats_u, stats_b,
        "fault counters diverge between modes (seed {seed:#x})"
    );
    assert_eq!(
        unbatched, batched,
        "delivered sequence diverges between modes (seed {seed:#x})"
    );
    // The comparison only means something if every pathology fired.
    assert!(stats_u.dropped > 0, "seed produced no drops");
    assert!(stats_u.duplicated > 0, "seed produced no duplicates");
    assert!(stats_u.reordered > 0, "seed produced no reorders");
    // `delivered` counts originals; duplicate copies and released
    // reorder stashes arrive on top of it.
    assert_eq!(
        stats_u.delivered + stats_u.duplicated + stats_u.reordered,
        unbatched.len() as u64,
        "every delivered datagram was observed"
    );
}

/// Egress: flushing a `SendBatch` through a `FaultSocket` draws the same
/// per-datagram gates as a `send_to` loop — same arrivals at the sink,
/// same counters.
#[test]
fn egress_chaos_is_identical_batched_and_unbatched() {
    let seed = chaos_seed();
    let run = |batched: bool| -> (Vec<Vec<u8>>, FaultStats) {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let (sock, handle) = FaultSocket::bind_loopback(
            FaultConfig::new(seed)
                .with_drop(0.2)
                .with_duplicate(0.15)
                .with_reorder(0.2)
                .with_directions(false, true),
        )
        .unwrap();
        let to = sink.local_addr().unwrap();
        if batched {
            let mut out = SendBatch::new();
            for i in 0..CHAOS_DATAGRAMS {
                out.push_bytes(&payload(i), &[to]);
                if out.len() == MAX_BATCH {
                    sock.send_batch(&out).unwrap();
                    out.clear();
                }
            }
            if !out.is_empty() {
                sock.send_batch(&out).unwrap();
            }
        } else {
            for i in 0..CHAOS_DATAGRAMS {
                sock.send_to(&payload(i), to).unwrap();
            }
        }
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        while let Ok((n, _)) = sink.recv_from(&mut buf) {
            got.push(buf[..n].to_vec());
        }
        (got, handle.stats())
    };
    let (unbatched, stats_u) = run(false);
    let (batched, stats_b) = run(true);
    assert_eq!(stats_u, stats_b, "egress counters diverge (seed {seed:#x})");
    assert_eq!(unbatched, batched, "arrivals diverge (seed {seed:#x})");
    assert!(stats_u.dropped > 0 && stats_u.duplicated > 0 && stats_u.reordered > 0);
}
