//! Overload experiments: graceful degradation when offered load exceeds
//! what the relay will admit.
//!
//! The admission regime is provisioned over the live control channel
//! (`NC_QUOTA`), then the data socket is flooded well past quota. Three
//! invariants must hold:
//!
//! 1. control-plane traffic is *never* shed — fenced table swaps keep
//!    returning `OK` and wake feedback frames are all classified,
//!    because dispatch sorts them out before admission runs;
//! 2. in-quota sessions keep ≥ 90% goodput through the flood;
//! 3. a reliable transfer sharing the relay with a flood still delivers
//!    its object byte-identically.
//!
//! The flood seed is pinned (override with `NCVNF_CHAOS_SEED`) so CI
//! failures replay exactly.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncvnf_control::signal::{FencedSignal, Signal, VnfRoleWire};
use ncvnf_control::ForwardingTable;
use ncvnf_dataplane::Feedback;
use ncvnf_relay::{
    send_object_reliable, RecoveryConfig, RelayConfig, RelayNode, ReliableReceiver, TransferConfig,
    TransferObs,
};
use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, ObjectEncoder, SessionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chaos_seed() -> u64 {
    std::env::var("NCVNF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC405_2017)
}

fn cfg() -> GenerationConfig {
    GenerationConfig::new(256, 4).unwrap()
}

/// A controller's control client for one relay, at epoch 1 with one
/// sequence counter. Each signal goes out as a single fenced datagram,
/// one attempt and no retransmission, so a shed control frame would show
/// as a missing reply instead of being hidden by a retry.
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

/// Sends `signal` as the next fenced frame; returns the relay's reply.
fn signal_roundtrip(control: &mut Control, to: std::net::SocketAddr, signal: &Signal) -> String {
    control.seq += 1;
    let frame = FencedSignal {
        epoch: 1,
        seq: control.seq,
        signal: signal.clone(),
    };
    let mut ack = [0u8; 64];
    control.socket.send_to(&frame.to_bytes(), to).unwrap();
    let (n, _) = control.socket.recv_from(&mut ack).expect("relay replies");
    String::from_utf8_lossy(&ack[..n]).into_owned()
}

fn quota_signal(session: u16, rate_pps: u32, burst: u32, priority: u8) -> Signal {
    Signal::NcQuota {
        session: SessionId::new(session),
        rate_pps,
        burst,
        priority,
    }
}

/// Spawns a thread that floods `data_addr` with coded datagrams for
/// `session` until `stop` flips, counting what it offered.
fn flood(
    data_addr: std::net::SocketAddr,
    session: u16,
    seed: u64,
    pace: Duration,
    stop: &Arc<AtomicBool>,
    sent: &Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    let stop = Arc::clone(stop);
    let sent = Arc::clone(sent);
    std::thread::spawn(move || {
        let enc = GenerationEncoder::new(cfg(), &[0xF1; 1024]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let mut generation = 0u64;
        while !stop.load(Ordering::Relaxed) {
            for _ in 0..16 {
                let pkt = enc.coded_packet(SessionId::new(session), generation, &mut rng);
                if socket.send_to(&pkt.to_bytes(), data_addr).is_ok() {
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            }
            generation += 1;
            std::thread::sleep(pace);
        }
    })
}

/// Regression for the shedding boundary: a flood that drives heavy
/// quota shedding must not cost a single control-plane frame. Fenced
/// table swaps stay `OK`-acknowledged (and fence state advances), and
/// every wake feedback frame on the data socket is classified rather
/// than shed — dispatch runs before admission.
#[test]
fn control_plane_survives_quota_flood_unharmed() {
    let seed = chaos_seed();
    let relay = RelayNode::spawn(RelayConfig {
        generation: cfg(),
        buffer_generations: 64,
        seed: 41,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .unwrap();
    let mut control = control_client();

    // Tight bucket for the flooding session: 200 pps against a flood
    // offering two orders of magnitude more.
    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &quota_signal(99, 200, 32, 200)
        ),
        "OK 1"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let offered = Arc::new(AtomicU64::new(0));
    let flooder = flood(
        relay.data_addr,
        99,
        seed ^ 0xF100D,
        Duration::from_micros(300),
        &stop,
        &offered,
    );

    // Control plane under fire: fenced table swaps, one per 50ms.
    let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let hop = sink.local_addr().unwrap().to_string();
    for _ in 0..8 {
        let mut table = ForwardingTable::new();
        table.set(SessionId::new(7), vec![hop.clone()]);
        let swap = Signal::NcForwardTab {
            table: table.to_text(),
        };
        let ack = signal_roundtrip(&mut control, relay.control_addr, &swap);
        let seq = control.seq;
        assert_eq!(
            ack,
            format!("OK {seq}"),
            "fenced swap {seq} applied mid-flood"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Wake frames on the *data* socket: classified as feedback before
    // admission, so the flood cannot shed them.
    let waker = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    const WAKES: u64 = 25;
    for _ in 0..WAKES {
        let frame = Feedback::wake(3, SessionId::new(99)).to_bytes();
        waker.send_to(&frame, relay.data_addr).unwrap();
        std::thread::sleep(Duration::from_millis(4));
    }

    stop.store(true, Ordering::Relaxed);
    flooder.join().unwrap();

    // Wait for the relay to drain its ingress queue, then hold it to
    // the invariants.
    let handle = relay.handle();
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().feedback_frames < WAKES && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.stats();
    relay.shutdown();

    assert!(
        stats.shed_quota > 100,
        "the flood genuinely exceeded quota: {stats:?}"
    );
    assert_eq!(
        stats.feedback_frames, WAKES,
        "every wake frame classified, none shed: {stats:?}"
    );
    assert_eq!(stats.rejected_signals, 0, "control channel clean");
    assert_eq!(stats.stale_epoch_rejected, 0);
    assert!(
        stats.congestion_frames > 0,
        "shed sources were told to back off: {stats:?}"
    );
    assert!(
        stats.datagrams_in > stats.datagrams_out,
        "shedding reduced egress below ingress"
    );
}

/// The fair-share claim: with an explicit generous quota, a paced
/// in-quota session keeps ≥ 90% goodput through the relay while an
/// unprovisioned flood (capped by the session-0 default bucket) is shed
/// around it.
#[test]
fn in_quota_session_keeps_goodput_through_flood() {
    let seed = chaos_seed();
    let relay = RelayNode::spawn(RelayConfig {
        generation: cfg(),
        buffer_generations: 64,
        seed: 43,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .unwrap();
    let mut control = control_client();

    // Session 0 = default bucket: unknown sessions get 300 pps, shed
    // first (priority 200). Session 21 is provisioned far above its
    // offered rate and sheds last (priority 0).
    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &quota_signal(0, 300, 32, 200)
        ),
        "OK 1"
    );
    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &quota_signal(21, 50_000, 1024, 0)
        ),
        "OK 2"
    );

    let settings = Signal::NcSettings {
        session: SessionId::new(21),
        role: VnfRoleWire::Recoder,
        data_port: relay.data_addr.port(),
        block_size: 256,
        generation_size: 4,
        buffer_generations: 64,
    };
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &settings),
        "OK 3"
    );
    let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    sink.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut table = ForwardingTable::new();
    table.set(
        SessionId::new(21),
        vec![sink.local_addr().unwrap().to_string()],
    );
    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &Signal::NcForwardTab {
                table: table.to_text()
            }
        ),
        "OK 4"
    );

    // The flood: unprovisioned session, offered well past the default
    // bucket (~4x and beyond).
    let stop = Arc::new(AtomicBool::new(false));
    let flood_offered = Arc::new(AtomicU64::new(0));
    let flooder = flood(
        relay.data_addr,
        77,
        seed ^ 0xBEEF,
        Duration::from_micros(500),
        &stop,
        &flood_offered,
    );

    // Drain the next hop concurrently — a test-side kernel buffer
    // overflow must not masquerade as relay shedding.
    let delivered = Arc::new(AtomicU64::new(0));
    let drain_stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let delivered = Arc::clone(&delivered);
        let drain_stop = Arc::clone(&drain_stop);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 2048];
            while !drain_stop.load(Ordering::Relaxed) {
                if sink.recv_from(&mut buf).is_ok() {
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    // The in-quota sender: paced bursts of one generation each, well
    // inside its 50k pps quota.
    let enc = GenerationEncoder::new(cfg(), &[0x21; 1024]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x60D);
    let sender = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let mut in_quota_sent = 0u64;
    for generation in 0..300u64 {
        for _ in 0..4 {
            let pkt = enc.coded_packet(SessionId::new(21), generation, &mut rng);
            sender.send_to(&pkt.to_bytes(), relay.data_addr).unwrap();
            in_quota_sent += 1;
        }
        std::thread::sleep(Duration::from_micros(800));
    }

    // Let in-flight packets reach the sink, then stop counting.
    std::thread::sleep(Duration::from_millis(300));
    drain_stop.store(true, Ordering::Relaxed);
    drainer.join().unwrap();
    let delivered = delivered.load(Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    flooder.join().unwrap();
    let handle = relay.handle();
    let stats = handle.stats();
    relay.shutdown();

    let goodput = delivered as f64 / in_quota_sent as f64;
    assert!(
        goodput >= 0.90,
        "in-quota goodput held: {delivered}/{in_quota_sent} = {goodput:.3} ({stats:?})"
    );
    let flood_total = flood_offered.load(Ordering::Relaxed);
    assert!(
        stats.shed_quota > flood_total / 2,
        "the flood was mostly shed: {} offered, {} shed",
        flood_total,
        stats.shed_quota
    );
}

/// End-to-end acceptance: a reliable transfer whose relay is being
/// flooded at the same time still delivers byte-identically — the
/// feedback protocol and the admission regime compose.
#[test]
fn reliable_transfer_survives_background_flood() {
    let seed = chaos_seed().wrapping_add(2);
    let relay = RelayNode::spawn(RelayConfig {
        generation: cfg(),
        buffer_generations: 64,
        seed: 47,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .unwrap();
    let mut control = control_client();

    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &quota_signal(0, 250, 32, 200)
        ),
        "OK 1"
    );
    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &quota_signal(12, 50_000, 1024, 0)
        ),
        "OK 2"
    );
    let settings = Signal::NcSettings {
        session: SessionId::new(12),
        role: VnfRoleWire::Recoder,
        data_port: relay.data_addr.port(),
        block_size: 256,
        generation_size: 4,
        buffer_generations: 64,
    };
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &settings),
        "OK 3"
    );

    let config = TransferConfig {
        session: SessionId::new(12),
        generation: cfg(),
        redundancy: ncvnf_rlnc::RedundancyPolicy::NC0,
        rate_bps: 50e6,
        seed,
    };
    let recovery = RecoveryConfig {
        decode_timeout: Duration::from_millis(40),
        nack_interval: Duration::from_millis(40),
        backoff_base: Duration::from_millis(15),
        max_retries: 12,
        ..RecoveryConfig::default()
    };
    let object: Vec<u8> = (0..24 * 1024u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    let encoder = ObjectEncoder::new(config.generation, config.session, &object).unwrap();

    let source_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let obs = TransferObs::new();
    let receiver = ReliableReceiver::spawn(
        &config,
        &recovery,
        encoder.generations(),
        source_socket.local_addr().unwrap(),
        &obs,
    )
    .unwrap();
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(12), vec![receiver.addr.to_string()]);
    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &Signal::NcForwardTab {
                table: table.to_text()
            }
        ),
        "OK 4"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let flood_offered = Arc::new(AtomicU64::new(0));
    let flooder = flood(
        relay.data_addr,
        88,
        seed ^ 0xF,
        Duration::from_micros(500),
        &stop,
        &flood_offered,
    );

    let hops = [relay.data_addr];
    let stats =
        send_object_reliable(&source_socket, &config, &recovery, &object, &hops, &obs).unwrap();
    let report = receiver
        .wait(Duration::from_secs(60))
        .expect("transfer completes despite the flood");
    stop.store(true, Ordering::Relaxed);
    flooder.join().unwrap();
    let handle = relay.handle();
    let relay_stats = handle.stats();
    relay.shutdown();

    assert_eq!(report.object, object, "byte-identical through the flood");
    assert_eq!(stats.unrecovered, 0, "no generation abandoned");
    assert!(
        relay_stats.shed_quota > 0,
        "the flood was being shed while the transfer ran: {relay_stats:?}"
    );
}
