//! Live control-plane reconfiguration of a running relay.
//!
//! Covers the Table III scenario end to end: a forwarding-table swap is
//! applied to a relay *while data is flowing through it*, and the control
//! channel distinguishes applied signals (`OK`) from rejected ones
//! (`ERR`).

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncvnf_control::signal::{FencedSignal, Signal, VnfRoleWire};
use ncvnf_control::ForwardingTable;
use ncvnf_relay::{RelayConfig, RelayNode};
use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, SessionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Number of packets received on `sink` during `window`.
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

/// Swapping the forwarding table under live traffic: after the swap ACK
/// (plus a grace window for packets already in flight), the removed hop
/// goes silent, the new hop receives traffic, and shutdown completes
/// without deadlock.
#[test]
fn table_swap_under_live_traffic_redirects_cleanly() {
    let relay = RelayNode::spawn(RelayConfig {
        generation: cfg(),
        buffer_generations: 64,
        seed: 3,
        heartbeat: None,
        registry: None,
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

    // Live traffic: a sender thread streams coded packets at the relay for
    // the whole test.
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let sender = {
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&sent);
        let data_addr = relay.data_addr;
        std::thread::spawn(move || {
            let enc = GenerationEncoder::new(cfg(), &[0xAB; 1024]).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            let mut generation = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..8 {
                    let pkt = enc.coded_packet(SessionId::new(SESSION), generation, &mut rng);
                    let _ = socket.send_to(&pkt.to_bytes(), data_addr);
                    sent.fetch_add(1, Ordering::Relaxed);
                }
                generation += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    assert!(
        drain_for(&sink_a, Duration::from_millis(200)) > 0,
        "traffic reaches hop A before the swap"
    );

    // Swap A → B while the sender keeps going.
    let hop_b = sink_b.local_addr().unwrap().to_string();
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &table_signal(hop_b)),
        "OK 3"
    );

    // Grace window: packets the data thread had already routed (plus any
    // queued in A's socket buffer) may still arrive.
    drain_for(&sink_a, Duration::from_millis(200));

    let late_a = drain_for(&sink_a, Duration::from_millis(300));
    assert_eq!(late_a, 0, "no packet reaches the removed hop after swap");
    assert!(
        drain_for(&sink_b, Duration::from_millis(300)) > 0,
        "traffic reaches the new hop after the swap"
    );

    stop.store(true, Ordering::Relaxed);
    sender.join().unwrap();
    let handle = relay.handle();
    let stats = handle.stats();
    relay.shutdown(); // must not deadlock with traffic recently in flight
    assert!(stats.datagrams_in > 0);
    assert!(stats.datagrams_out > 0);
    assert_eq!(handle.stats().rejected_signals, 0);
}

/// The control channel replies `ERR` (not `OK`) both for frames that do
/// not decode and for well-formed `NC_FORWARD_TAB` signals whose table is
/// rejected — and keeps serving afterwards.
#[test]
fn rejected_signals_get_err_replies() {
    let relay = RelayNode::spawn(RelayConfig::default()).unwrap();
    let mut control = control_client();

    // Garbage frame: undecodable. The reply names the reason.
    let mut ack = [0u8; 16];
    control
        .socket
        .send_to(b"\xEE junk", relay.control_addr)
        .unwrap();
    let (n, _) = control
        .socket
        .recv_from(&mut ack)
        .expect("relay replies to junk");
    assert_eq!(&ack[..n], b"ERR bad-frame");

    // Valid frame, invalid table text: daemon rejects the swap.
    let bad_table = Signal::NcForwardTab {
        table: "bogus line\n".into(),
    };
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &bad_table),
        "ERR bad-table 1"
    );

    // The relay still applies good signals afterwards.
    assert_eq!(
        signal_roundtrip(
            &mut control,
            relay.control_addr,
            &table_signal("127.0.0.1:9999".into())
        ),
        "OK 2"
    );

    let handle = relay.handle();
    let stats = handle.stats();
    relay.shutdown();
    assert_eq!(stats.rejected_signals, 2);
    assert_eq!(stats.signals, 2, "decodable frames are counted");
}

/// A retransmitted rejected frame — what a sender resends after losing
/// the reply — is answered as the first was, not ACKed as applied.
#[test]
fn a_resent_rejected_frame_is_rejected_again() {
    let relay = RelayNode::spawn(RelayConfig::default()).unwrap();
    let control = control_client();
    let bad_table = FencedSignal {
        epoch: 1,
        seq: 1,
        signal: Signal::NcForwardTab {
            table: "garbage".into(),
        },
    }
    .to_bytes();
    let mut ack = [0u8; 32];
    for attempt in 0..2 {
        control
            .socket
            .send_to(&bad_table, relay.control_addr)
            .unwrap();
        let (n, _) = control.socket.recv_from(&mut ack).expect("relay replies");
        assert_eq!(&ack[..n], b"ERR bad-table 1", "attempt {attempt}");
    }
    let handle = relay.handle();
    let stats = handle.stats();
    assert!(handle.table_text().is_empty());
    relay.shutdown();
    assert_eq!(stats.duplicate_signals, 1);
    assert_eq!(stats.rejected_signals, 2);
}

/// A rejected table swap must leave the previous routes fully in force:
/// traffic flowing through the relay keeps reaching the old hop while
/// and after the bad swap is refused.
#[test]
fn rejected_table_swap_preserves_routes_under_traffic() {
    let relay = RelayNode::spawn(RelayConfig {
        generation: cfg(),
        buffer_generations: 64,
        seed: 9,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .unwrap();
    let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    sink.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();

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
    let hop = sink.local_addr().unwrap().to_string();
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &table_signal(hop)),
        "OK 2"
    );
    let handle = relay.handle();
    let good_table = handle.table_text();

    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let stop = Arc::clone(&stop);
        let data_addr = relay.data_addr;
        std::thread::spawn(move || {
            let enc = GenerationEncoder::new(cfg(), &[0x5A; 1024]).unwrap();
            let mut rng = StdRng::seed_from_u64(17);
            let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            let mut generation = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..8 {
                    let pkt = enc.coded_packet(SessionId::new(SESSION), generation, &mut rng);
                    let _ = socket.send_to(&pkt.to_bytes(), data_addr);
                }
                generation += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    assert!(
        drain_for(&sink, Duration::from_millis(200)) > 0,
        "traffic flows before the bad swap"
    );

    // A malformed table is refused mid-stream…
    let bad_table = Signal::NcForwardTab {
        table: "session notanumber 127.0.0.1:1\n".into(),
    };
    assert_eq!(
        signal_roundtrip(&mut control, relay.control_addr, &bad_table),
        "ERR bad-table 3"
    );

    // …and the old routes stay in force: the hop keeps receiving.
    assert!(
        drain_for(&sink, Duration::from_millis(300)) > 0,
        "old RouteCache survives a rejected swap"
    );
    assert_eq!(
        handle.table_text(),
        good_table,
        "authoritative table is untouched by the rejected swap"
    );

    stop.store(true, Ordering::Relaxed);
    sender.join().unwrap();
    let stats = handle.stats();
    relay.shutdown();
    assert_eq!(stats.rejected_signals, 1);
    assert!(stats.datagrams_out > 0);
}
