//! Real-socket integration: coded transfers through live UDP relays.

use std::time::{Duration, Instant};

use ncvnf_control::signal::{Signal, VnfRoleWire};
use ncvnf_control::{ForwardingTable, SenderConfig, SignalSender};
use ncvnf_relay::{
    reliable_chain, RecoveryConfig, RelayConfig, RelayNode, ReliableChainReport, TransferConfig,
};
use ncvnf_rlnc::{GenerationConfig, RedundancyPolicy, SessionId};

fn small_cfg() -> TransferConfig {
    TransferConfig {
        session: SessionId::new(5),
        generation: GenerationConfig::new(1460, 4).unwrap(),
        redundancy: RedundancyPolicy::NC1,
        rate_bps: 80e6,
        seed: 42,
    }
}

/// A best-effort transfer (zero retries: NC1 is all the protection)
/// through `n_relays` clean relays.
fn best_effort_chain(cfg: &TransferConfig, object: &[u8], n_relays: usize) -> ReliableChainReport {
    let best_effort = RecoveryConfig {
        max_retries: 0,
        ..RecoveryConfig::default()
    };
    let report = reliable_chain(
        cfg,
        &best_effort,
        object,
        &vec![None; n_relays],
        Duration::from_secs(30),
    )
    .unwrap()
    .expect("transfer completes");
    // Best-effort end to end: the source waited on nothing and the
    // receiver had nobody to talk to.
    assert_eq!(report.source.unrecovered, 0);
    assert_eq!(report.source.retransmit_packets, 0);
    assert_eq!(report.receiver.stats.acks_sent, 0);
    assert_eq!(report.receiver.stats.nacks_sent, 0);
    report
}

#[test]
fn direct_transfer_recovers_object() {
    let cfg = small_cfg();
    let object: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let report = best_effort_chain(&cfg, &object, 0);
    assert_eq!(report.receiver.object, object);
    // Every generation (4 x 1460 B blocks, 8 B of framing) reached full
    // rank: 4 innovative packets each, so at least one per source block.
    let decoded = report.snapshot.counter("rlnc.decode.generations").unwrap();
    assert_eq!(decoded, (object.len() as u64 + 8).div_ceil(4 * 1460));
    let blocks = object.len() as u64 / 1460;
    assert!(decoded * 4 >= blocks && report.receiver.packets >= decoded * 4);
    // NC1 on the wire: five packets per generation, each sent once.
    assert_eq!(report.source.initial_packets, decoded * 5);
}

#[test]
fn two_relay_chain_recovers_object() {
    let cfg = small_cfg();
    let object: Vec<u8> = (0..150_000u32).map(|i| (i * 7 % 256) as u8).collect();
    let report = best_effort_chain(&cfg, &object, 2);
    assert_eq!(report.receiver.object, object);
    assert_eq!(report.relays.len(), 2);
    assert!(report.relays.iter().all(|r| r.datagrams_in > 0));
}

#[test]
fn relay_cold_start_is_fast() {
    // §V-C-5: starting a coding function on a warm VM took ≈376 ms on
    // EC2; our in-process spawn must be far below that.
    let t0 = Instant::now();
    let relay = RelayNode::spawn(RelayConfig::default()).unwrap();
    let startup = t0.elapsed();
    relay.shutdown();
    assert!(
        startup < Duration::from_millis(376),
        "relay spawn took {startup:?}"
    );
}

#[test]
fn live_forwarding_table_update_acks() {
    let relay = RelayNode::spawn(RelayConfig::default()).unwrap();
    let mut control = SignalSender::new(1, SenderConfig::default()).unwrap();
    let settings = Signal::NcSettings {
        session: SessionId::new(1),
        role: VnfRoleWire::Recoder,
        data_port: relay.data_addr.port(),
        block_size: 1460,
        generation_size: 4,
        buffer_generations: 1024,
    };
    control.push(relay.control_addr, &settings).unwrap();

    let mut table = ForwardingTable::new();
    table.set(SessionId::new(1), vec!["127.0.0.1:9999".into()]);
    let sig = Signal::NcForwardTab {
        table: table.to_text(),
    };
    let t0 = Instant::now();
    control.push(relay.control_addr, &sig).unwrap();
    let update = t0.elapsed();
    let handle = relay.handle();
    assert!(handle.table_text().contains("127.0.0.1:9999"));
    assert_eq!(handle.stats().signals, 2);
    relay.shutdown();
    // Loopback update round trip should be well under the paper's 78 ms.
    assert!(update < Duration::from_millis(78), "update took {update:?}");
}

#[test]
fn decoder_relay_delivers_plain_chunks() {
    use ncvnf_dataplane::DecodedChunk;
    use ncvnf_rlnc::ObjectEncoder;
    use rand::{rngs::StdRng, SeedableRng};

    let cfg = GenerationConfig::new(1460, 4).unwrap();
    let relay = RelayNode::spawn(RelayConfig {
        generation: cfg,
        buffer_generations: 64,
        seed: 1,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    })
    .unwrap();
    // A plain sink for decoded chunks.
    let sink = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    sink.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Configure the relay as a decoder pointing at the sink.
    let mut control = SignalSender::new(1, SenderConfig::default()).unwrap();
    let settings = Signal::NcSettings {
        session: SessionId::new(2),
        role: VnfRoleWire::Decoder,
        data_port: relay.data_addr.port(),
        block_size: 1460,
        generation_size: 4,
        buffer_generations: 64,
    };
    control.push(relay.control_addr, &settings).unwrap();
    let mut table = ForwardingTable::new();
    table.set(
        SessionId::new(2),
        vec![sink.local_addr().unwrap().to_string()],
    );
    let sig = Signal::NcForwardTab {
        table: table.to_text(),
    };
    control.push(relay.control_addr, &sig).unwrap();

    // Send coded packets of one generation straight at the decoder.
    let object: Vec<u8> = (0..4000u32).map(|i| (i % 253) as u8).collect();
    let enc = ObjectEncoder::new(cfg, SessionId::new(2), &object).unwrap();
    assert_eq!(enc.generations(), 1);
    let sender = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..8 {
        let pkt = enc.coded_packet(0, &mut rng);
        sender.send_to(&pkt.to_bytes(), relay.data_addr).unwrap();
    }
    // The decoder should emit 4 plain chunks reassembling the generation.
    let mut chunks = Vec::new();
    let mut buf = vec![0u8; 4096];
    while chunks.len() < 4 {
        let (n, _) = sink.recv_from(&mut buf).expect("decoded chunk arrives");
        if let Some(c) = DecodedChunk::from_bytes(&buf[..n]) {
            chunks.push(c);
        }
    }
    chunks.sort_by_key(|c| c.index);
    let mut payload = Vec::new();
    for c in &chunks {
        payload.extend_from_slice(&c.payload);
    }
    // Framing: 8-byte length prefix + object + padding.
    let len = u64::from_be_bytes(payload[..8].try_into().unwrap()) as usize;
    assert_eq!(len, object.len());
    assert_eq!(&payload[8..8 + len], &object[..]);
    relay.shutdown();
}
