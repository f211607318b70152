//! The live data loop at its socket boundary: a burst that arrives as one
//! `UDP_GRO` message and leaves fanned out to two next hops (the flush
//! `send_batch` coalesces per destination), such a burst relayed in
//! flushes of at most `RelayConfig::batch`, a relay on caller-provided
//! sockets that never asks for GRO, the two edges of the receive
//! entries, and the poll before the data thread parks under a dense
//! ping-pong.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncvnf_control::signal::VnfRoleWire;
use ncvnf_control::{ForwardingTable, SenderConfig, SignalSender};
use ncvnf_relay::{
    DatagramSocket, FaultConfig, FaultSocket, RelayConfig, RelayHandle, RelayNode, SendBatch,
};
use ncvnf_rlnc::{
    GenerationConfig, ObjectDecoder, ObjectEncoder, PacketView, SessionId, NC_MAGIC, NC_VERSION,
};
use rand::{rngs::StdRng, SeedableRng};

const SESSION: u16 = 21;

fn socket() -> (UdpSocket, SocketAddr) {
    let s = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let addr = s.local_addr().unwrap();
    (s, addr)
}

/// One shard, so a batch is coded in arrival order and the egress order
/// is checkable.
fn one_shard(layout: GenerationConfig) -> RelayConfig {
    RelayConfig {
        generation: layout,
        shards: 1,
        ..RelayConfig::default()
    }
}

/// A spawned one-shard recoder for `layout`, wired to `next_hops`.
fn recoder(layout: GenerationConfig, next_hops: &[SocketAddr]) -> RelayNode {
    let relay = RelayNode::spawn(one_shard(layout)).unwrap();
    wire(&relay, next_hops);
    relay
}

/// Configures `relay` as a recoder of [`SESSION`] towards `next_hops`.
fn wire(relay: &RelayNode, next_hops: &[SocketAddr]) {
    let mut table = ForwardingTable::new();
    let hops = next_hops.iter().map(ToString::to_string).collect();
    table.set(SessionId::new(SESSION), hops);
    let mut sender = SignalSender::new(0, SenderConfig::default()).unwrap();
    relay
        .wire(
            &mut sender,
            SessionId::new(SESSION),
            VnfRoleWire::Recoder,
            &table,
        )
        .unwrap();
}

/// Polls `read` until it returns `want` (the data thread publishes its
/// counters after the batch, not before the datagram leaves).
fn wait_for(handle: &RelayHandle, read: impl Fn(&RelayHandle) -> u64, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while read(handle) != want {
        assert!(Instant::now() < deadline, "counter never reached {want}");
        std::thread::yield_now();
    }
}

#[test]
fn a_burst_to_two_next_hops_reaches_each_decodable_and_in_order() {
    let layout = GenerationConfig::new(1460, 4).unwrap();
    let (sink_a, a) = socket();
    let (sink_b, b) = socket();
    let relay = recoder(layout, &[a, b]);

    // 8 generations x 4 coded packets: one 32-datagram flush.
    let object: Vec<u8> = (0..8 * layout.generation_payload() - 8)
        .map(|i| (i * 13 % 251) as u8)
        .collect();
    let enc = ObjectEncoder::new(layout, SessionId::new(SESSION), &object).unwrap();
    assert_eq!(enc.generations(), 8);
    let mut rng = StdRng::seed_from_u64(0x0FF1_0AD5);
    let mut burst = SendBatch::new();
    for generation in 0..8 {
        for _ in 0..4 {
            let packet = enc.coded_packet(generation, &mut rng);
            burst.push_wire(|out| packet.write_into(out), &[relay.data_addr]);
        }
    }
    let (tx, _) = socket();
    assert_eq!(tx.send_batch(&burst).unwrap(), 32);

    for sink in [&sink_a, &sink_b] {
        let mut decoder = ObjectDecoder::new(layout, 8);
        let mut buf = vec![0u8; 2048];
        let mut last = 0;
        for _ in 0..32 {
            let (n, from) = sink
                .recv_from(&mut buf)
                .expect("a relayed datagram per input");
            assert_eq!(from, relay.data_addr);
            let view = PacketView::parse(&buf[..n], 4).unwrap();
            assert!(view.generation() >= last, "generations out of order");
            last = view.generation();
            decoder.receive_view(view).unwrap();
        }
        assert_eq!(decoder.into_object().unwrap(), object);
    }

    let handle = relay.handle();
    wait_for(&handle, |h| h.stats().datagrams_out, 64);
    let snapshot = handle.snapshot();
    let coalesced = snapshot.counter("relay.egress_coalesced").unwrap();
    let refused = snapshot.counter("relay.egress_refused").unwrap();
    assert!(
        coalesced > 0 || refused > 0,
        "a 32-datagram flush per hop left neither coalesced nor refused"
    );
    // The burst left `tx` as one UDP_SEGMENT message; the relay's data
    // socket took it whole.
    let ingress = snapshot.counter("relay.ingress_coalesced").unwrap();
    if !ncvnf_sysnet::enable_gro(&socket().0) {
        eprintln!("skipped the ingress check: this kernel refuses UDP_GRO");
    } else {
        assert_eq!(snapshot.gauge("relay.ingress_gro"), Some(1.0));
        if refused == 0 {
            assert_eq!(ingress, 32, "the burst arrived as one coalesced message");
            assert!(ingress as f64 / handle.stats().datagrams_in as f64 >= 0.9);
        }
    }
    assert_eq!(handle.stats().io_errors, 0);
    relay.shutdown();
}

#[test]
fn a_coalesced_burst_is_relayed_in_flushes_of_at_most_batch() {
    let layout = GenerationConfig::new(64, 4).unwrap();
    let (sink, sink_addr) = socket();
    let relay = RelayNode::spawn(RelayConfig {
        batch: 8,
        ..one_shard(layout)
    })
    .unwrap();
    wire(&relay, &[sink_addr]);
    let enc = ObjectEncoder::new(layout, SessionId::new(SESSION), &[7; 8 * 256]).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let mut burst = SendBatch::new();
    for i in 0..32 {
        let packet = enc.coded_packet(i / 4, &mut rng);
        burst.push_wire(|out| packet.write_into(out), &[relay.data_addr]);
    }
    let (tx, _) = socket();
    assert_eq!(tx.send_batch(&burst).unwrap(), 32);
    let mut buf = [0u8; 2048];
    for _ in 0..32 {
        sink.recv_from(&mut buf)
            .expect("a relayed datagram per input");
    }
    let handle = relay.handle();
    wait_for(&handle, |h| h.stats().datagrams_out, 32);
    let snapshot = handle.snapshot();
    let fill = snapshot.histogram("relay.batch_fill").unwrap();
    assert!(fill.max <= 8, "a flush of {} datagrams", fill.max);
    if snapshot.counter("relay.ingress_coalesced") == Some(32) {
        assert_eq!(handle.stats().batches, 4, "one receive, four flushes");
    }
    relay.shutdown();
}

#[test]
fn a_relay_on_caller_sockets_does_not_take_gro() {
    let (data, _) = socket();
    let (data, _) = FaultSocket::wrap(data, FaultConfig::new(1));
    let (control, _) = socket();
    let relay = RelayNode::spawn_with(RelayConfig::default(), data, control).unwrap();
    let snapshot = relay.handle().snapshot();
    assert_eq!(snapshot.gauge("relay.ingress_gro"), Some(0.0));
    assert_eq!(snapshot.counter("relay.ingress_coalesced"), Some(0));
    relay.shutdown();
}

/// A coded datagram of generation 0 at generation size 4 (only the
/// first coefficient non-zero, so it is a valid combination whatever
/// the payload) with `payload_len` payload bytes.
fn coded_datagram(payload_len: usize) -> Vec<u8> {
    let mut wire = vec![NC_MAGIC, NC_VERSION];
    wire.extend_from_slice(&SESSION.to_be_bytes());
    wire.extend_from_slice(&0u32.to_be_bytes());
    wire.extend_from_slice(&[1, 0, 0, 0]);
    wire.resize(wire.len() + payload_len, 0x5A);
    wire
}

#[test]
fn receive_slots_hold_the_largest_valid_datagram_and_not_a_byte_more() {
    let layout = GenerationConfig::new(1460, 4).unwrap();
    // Spawned (64 KiB entries where the kernel takes UDP_GRO) and on a
    // caller's plain socket (entries one byte past the largest valid
    // datagram).
    let on_caller_socket =
        |layout| RelayNode::spawn_with(one_shard(layout), socket().0, socket().0);
    for relay in [
        RelayNode::spawn(one_shard(layout)),
        on_caller_socket(layout),
    ] {
        let relay = relay.unwrap();
        let (sink, sink_addr) = socket();
        wire(&relay, &[sink_addr]);
        let handle = relay.handle();
        let (tx, _) = socket();
        let mut buf = vec![0u8; 4096];

        // The largest datagram the layout makes valid: a coded packet.
        let largest = coded_datagram(layout.block_size());
        assert_eq!(largest.len(), layout.packet_len());
        tx.send_to(&largest, relay.data_addr).unwrap();
        let (n, _) = sink.recv_from(&mut buf).expect("relayed, not truncated");
        let view = PacketView::parse(&buf[..n], 4).unwrap();
        assert_eq!(view.payload(), &largest[largest.len() - 1460..]);
        assert_eq!(handle.vnf_stats().malformed, 0);

        // One byte more fills a plain slot exactly; far more is cut to
        // the same length, or arrives whole in a GRO entry. None is a
        // length the layout accepts.
        for (i, extra) in [1, 4000].into_iter().enumerate() {
            let oversize = coded_datagram(layout.block_size() + extra);
            tx.send_to(&oversize, relay.data_addr).unwrap();
            wait_for(&handle, |h| h.vnf_stats().malformed, i as u64 + 1);
        }
        assert_eq!(handle.stats().datagrams_in, 3);
        assert_eq!(handle.stats().datagrams_out, 1);
        relay.shutdown();
    }
}

/// Dense ping-pong — one datagram in flight, the next sent as the last
/// comes back — keeps the data thread polling between trips; a pause
/// the poll budget cannot bridge ends in a park; and a shutdown in the
/// middle of the exchange returns as promptly as one from idle.
#[test]
fn a_relay_under_dense_ping_pong_parks_when_it_pauses_and_shuts_down_promptly() {
    let layout = GenerationConfig::new(64, 4).unwrap();
    let (peer, peer_addr) = socket();
    let relay = recoder(layout, &[peer_addr]);
    let handle = relay.handle();
    let to = relay.data_addr;
    let datagram = coded_datagram(layout.block_size());
    let mut buf = [0u8; 2048];
    // Rounds of trips, each ended by a pause: a round whose trips come
    // within the budget of each other ends in a park. One is enough.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().parks == 0 {
        assert!(Instant::now() < deadline, "no poll phase ever ran out");
        for _ in 0..200 {
            peer.send_to(&datagram, to).unwrap();
            peer.recv_from(&mut buf)
                .expect("one relayed datagram per trip");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(handle.stats().io_errors, 0);

    peer.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let pinger = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            while !stop.load(Ordering::Relaxed) {
                peer.send_to(&datagram, to).unwrap();
                let _ = peer.recv_from(&mut buf);
            }
        })
    };
    let trips = handle.stats().datagrams_in;
    wait_until(|| handle.stats().datagrams_in >= trips + 100);
    let started = Instant::now();
    relay.shutdown();
    let took = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    pinger.join().unwrap();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
}

/// Waits (at most 2 s) for `done`.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() {
        assert!(Instant::now() < deadline, "never happened");
        std::thread::yield_now();
    }
}
