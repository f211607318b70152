//! Crash-safe controller, live smoke run (DESIGN.md §13).
//!
//! `ncvnf-control`'s `crash_every_byte` crashes the controller at every
//! journal byte and push index against an in-memory fleet. This test runs
//! the same story once over real sockets: a journaled, fenced wiring of a
//! source → R0 → R1 → receiver chain; a crash after a v2 table for R0 is
//! journaled but before it is sent, leaving a torn frame at the journal's
//! tail; a restart that truncates the tail, fences itself one epoch up and
//! reconciles (R0 re-pushed, R1 re-adopted); a zombie push under the dead
//! epoch and a duplicate of the re-push, neither applied (asserted by the
//! relay's counters); and a reliable transfer that completes
//! byte-identically across all of it.

use std::fs::OpenOptions;
use std::io::Write;
use std::net::UdpSocket;
use std::path::PathBuf;
use std::time::Duration;

use ncvnf_control::signal::{FencedSignal, Signal, VnfRoleWire};
use ncvnf_control::{
    reconcile, ControlMetrics, ControlRecord, ForwardingTable, Journal, SenderConfig, SignalSender,
};
use ncvnf_obs::Registry;
use ncvnf_relay::{
    send_object_reliable, RecoveryConfig, RelayConfig, RelayNode, ReliableReceiver, TransferConfig,
    TransferObs,
};
use ncvnf_rlnc::{GenerationConfig, ObjectEncoder, RedundancyPolicy, SessionId};

const SESSION: u16 = 31;

fn transfer_config() -> TransferConfig {
    TransferConfig {
        session: SessionId::new(SESSION),
        generation: GenerationConfig::new(256, 4).unwrap(),
        redundancy: RedundancyPolicy::NC0,
        // Slow enough that the restart lands mid-transfer.
        rate_bps: 400e3,
        seed: 0xC4A5,
    }
}

fn relay_config(node_id: u32) -> RelayConfig {
    RelayConfig {
        generation: transfer_config().generation,
        buffer_generations: 256,
        seed: 0xBEEF + node_id as u64,
        ..RelayConfig::default()
    }
}

fn settings_for(relay: &RelayNode) -> Signal {
    let gen = transfer_config().generation;
    Signal::NcSettings {
        session: SessionId::new(SESSION),
        role: VnfRoleWire::Recoder,
        data_port: relay.data_addr.port(),
        block_size: gen.block_size() as u32,
        generation_size: gen.blocks_per_generation() as u32,
        buffer_generations: 256,
    }
}

fn table_text(session: u16, hop: &str) -> String {
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(session), vec![hop.to_string()]);
    table.to_text()
}

fn temp_journal() -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("ncvnf-controller-crash-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn controller_crash_recovers_from_journal_and_reconciles() {
    let r0 = RelayNode::spawn(relay_config(0)).unwrap();
    let r1 = RelayNode::spawn(relay_config(1)).unwrap();

    let config = transfer_config();
    let object: Vec<u8> = (0..20 * 1024u32)
        .map(|i| (i.wrapping_mul(41)) as u8)
        .collect();
    let encoder = ObjectEncoder::new(config.generation, config.session, &object).unwrap();
    let source_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let recovery = RecoveryConfig {
        decode_timeout: Duration::from_millis(50),
        nack_interval: Duration::from_millis(50),
        backoff_base: Duration::from_millis(25),
        max_retries: 10,
        idle_timeout: Duration::from_secs(5),
        ..RecoveryConfig::default()
    };
    let obs = TransferObs::new();
    let receiver = ReliableReceiver::spawn(
        &config,
        &recovery,
        encoder.generations(),
        source_socket.local_addr().unwrap(),
        &obs,
    )
    .unwrap();

    // ---- Incarnation 1: every record journaled before its push. ----
    let journal_path = temp_journal();
    let (mut journal, state0, _) = Journal::open(&journal_path).unwrap();
    let epoch1 = state0.next_epoch();
    journal
        .log(&ControlRecord::EpochStarted { epoch: epoch1 })
        .unwrap();
    let mut sender1 = SignalSender::new(epoch1, SenderConfig::default()).unwrap();
    let hops = [r1.data_addr, receiver.addr];
    for (node, relay) in [(0u32, &r0), (1u32, &r1)] {
        let table = table_text(SESSION, &hops[node as usize].to_string());
        journal
            .log(&ControlRecord::VnfLaunched {
                node,
                data_center: "dc-east".into(),
                control_addr: relay.control_addr.to_string(),
            })
            .unwrap();
        sender1
            .push(relay.control_addr, &settings_for(relay))
            .unwrap();
        journal
            .log(&ControlRecord::TablePushed {
                node,
                epoch: epoch1,
                seq: sender1.next_seq(relay.control_addr),
                table: table.clone(),
            })
            .unwrap();
        sender1
            .push(relay.control_addr, &Signal::NcForwardTab { table })
            .unwrap();
    }

    let transfer = {
        let config = config.clone();
        let object = object.clone();
        let first_hop = r0.data_addr;
        let obs = obs.clone();
        std::thread::spawn(move || {
            send_object_reliable(
                &source_socket,
                &config,
                &recovery,
                &object,
                &[first_hop],
                &obs,
            )
            .expect("source runs")
        })
    };

    // ---- The crash: a v2 delta for R0 is durable but never sent, and
    // the power cut leaves a torn frame (a header promising 64 bytes,
    // followed by 4). ----
    journal
        .log(&ControlRecord::TablePushed {
            node: 0,
            epoch: epoch1,
            seq: sender1.next_seq(r0.control_addr),
            table: table_text(99, "127.0.0.1:9"),
        })
        .unwrap();
    drop(journal);
    OpenOptions::new()
        .append(true)
        .open(&journal_path)
        .unwrap()
        .write_all(&[0, 0, 0, 64, 0xDE, 0xAD, 0xBE, 0xEF])
        .unwrap();

    // ---- Incarnation 2: truncate, replay, fence, reconcile. ----
    let (mut journal2, state, replay) = Journal::open(&journal_path).unwrap();
    assert!(replay.torn_tail, "the torn tail was detected");
    assert_eq!(replay.truncated_bytes, 8, "exactly the partial frame went");
    assert_eq!(replay.records, 6, "every committed record replayed");
    let epoch2 = state.next_epoch();
    assert_eq!(epoch2, 2, "fenced one above everything journaled");
    journal2
        .log(&ControlRecord::EpochStarted { epoch: epoch2 })
        .unwrap();
    let mut sender2 = SignalSender::new(epoch2, SenderConfig::default()).unwrap();
    let registry = Registry::new();
    let metrics = ControlMetrics::register(&registry);
    let report = reconcile(&mut sender2, &state, 0.0, Some(&metrics));
    assert_eq!(report.plan.readopt, vec![1], "R1 matched its belief");
    assert_eq!(report.repushed_ok, 1, "the interrupted push landed");
    let counts = registry.snapshot();
    assert_eq!(counts.counter("control.reconcile.readopted"), Some(1));
    assert_eq!(counts.counter("control.reconcile.repushed"), Some(1));
    assert!(
        r0.handle().table_text().contains("session 99"),
        "R0 holds the journaled v2 entry"
    );

    // ---- The zombie's push bounces; a duplicate of the re-push is
    // ACKed. Neither is applied. ----
    let probe = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let hostile = |epoch, seq| FencedSignal {
        epoch,
        seq,
        signal: Signal::NcForwardTab {
            table: table_text(SESSION, "10.0.0.1:1"),
        },
    };
    let mut ack = [0u8; 64];
    for (frame, reply) in [
        (hostile(epoch1, 50), &b"ERR stale-epoch 50"[..]),
        (hostile(epoch2, 1), &b"OK 1"[..]),
    ] {
        probe.send_to(&frame.to_bytes(), r0.control_addr).unwrap();
        let (n, _) = probe.recv_from(&mut ack).unwrap();
        assert_eq!(&ack[..n], reply);
    }
    let snap = r0.handle().snapshot();
    assert_eq!(snap.counter("relay.stale_epoch_rejected"), Some(1));
    assert_eq!(snap.counter("relay.duplicate_signals"), Some(1));
    assert!(!r0.handle().table_text().contains("10.0.0.1"));

    // ---- The transfer never noticed. ----
    let source_stats = transfer.join().expect("source thread");
    let delivered = receiver
        .wait(Duration::from_secs(60))
        .expect("transfer completes across the controller restart");
    assert_eq!(delivered.object, object, "byte-identical after recovery");
    assert_eq!(source_stats.unrecovered, 0);

    r0.shutdown();
    r1.shutdown();
    let _ = std::fs::remove_file(&journal_path);
}
