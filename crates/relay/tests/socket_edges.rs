//! The live data loop at its socket boundary: a burst fanned out to two
//! next hops (the flush `send_batch` coalesces per destination), and the
//! two edges of the layout-sized receive slots.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use ncvnf_control::signal::VnfRoleWire;
use ncvnf_control::ForwardingTable;
use ncvnf_relay::{DatagramSocket, RelayConfig, RelayHandle, RelayNode, SendBatch};
use ncvnf_rlnc::{
    CodedPacket, GenerationConfig, ObjectDecoder, ObjectEncoder, PacketView, SessionId,
    NC_KIND_WINDOW, NC_MAGIC,
};
use rand::{rngs::StdRng, SeedableRng};

const SESSION: u16 = 21;

fn socket() -> (UdpSocket, SocketAddr) {
    let s = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let addr = s.local_addr().unwrap();
    (s, addr)
}

/// A one-shard recoder for `layout`, wired to `next_hops`. One shard, so
/// a batch is coded in arrival order and the egress order is checkable.
fn recoder(layout: GenerationConfig, next_hops: &[SocketAddr]) -> RelayNode {
    let relay = RelayNode::spawn(RelayConfig {
        generation: layout,
        shards: 1,
        ..RelayConfig::default()
    })
    .unwrap();
    let mut table = ForwardingTable::new();
    let hops = next_hops.iter().map(ToString::to_string).collect();
    table.set(SessionId::new(SESSION), hops);
    let (control, _) = socket();
    relay
        .wire(
            &control,
            SessionId::new(SESSION),
            VnfRoleWire::Recoder,
            &table,
        )
        .unwrap();
    relay
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
    assert_eq!(handle.stats().io_errors, 0);
    relay.shutdown();
}

/// A windowed datagram of `width` coefficients (only the first non-zero,
/// so any width is a valid combination of one symbol) and `payload_len`
/// payload bytes.
fn windowed_datagram(width: u8, payload_len: usize) -> Vec<u8> {
    let mut wire = vec![NC_MAGIC, NC_KIND_WINDOW];
    wire.extend_from_slice(&SESSION.to_be_bytes());
    wire.extend_from_slice(&0u64.to_be_bytes());
    wire.push(width);
    wire.push(1);
    wire.resize(wire.len() + usize::from(width) - 1, 0);
    wire.resize(wire.len() + payload_len, 0x5A);
    wire
}

#[test]
fn receive_slots_hold_the_largest_valid_datagram_and_not_a_byte_more() {
    let layout = GenerationConfig::new(1460, 4).unwrap();
    let (sink, sink_addr) = socket();
    let relay = recoder(layout, &[sink_addr]);
    let handle = relay.handle();
    let (tx, _) = socket();
    let mut buf = vec![0u8; 4096];

    // The largest datagram the layout makes valid: full window width.
    let largest = windowed_datagram(255, layout.block_size());
    assert_eq!(
        largest.len(),
        CodedPacket::WINDOW_FIXED_LEN + CodedPacket::MAX_WIDTH + layout.block_size()
    );
    tx.send_to(&largest, relay.data_addr).unwrap();
    let (n, _) = sink.recv_from(&mut buf).expect("relayed, not truncated");
    let view = PacketView::parse(&buf[..n], 4).unwrap();
    assert_eq!(view.payload(), &largest[largest.len() - 1460..]);
    assert_eq!(handle.vnf_stats().malformed, 0);

    // One byte more fills the slot exactly; far more is cut to the same
    // length. Neither is a length the layout accepts.
    for (i, extra) in [1, 4000].into_iter().enumerate() {
        let oversize = windowed_datagram(255, layout.block_size() + extra);
        tx.send_to(&oversize, relay.data_addr).unwrap();
        wait_for(&handle, |h| h.vnf_stats().malformed, i as u64 + 1);
    }
    assert_eq!(handle.stats().datagrams_in, 3);
    assert_eq!(handle.stats().datagrams_out, 1);
    relay.shutdown();
}
