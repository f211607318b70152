//! Crash-safe controller, live smoke run (DESIGN.md §13).
//!
//! `ncvnf-control`'s `crash_every_byte` crashes the controller at every
//! journal byte and push index against an in-memory fleet. This test runs
//! the same story once over real sockets: an `Autoscaler` starts on an
//! empty journal and arms a source → R0 → R1 → receiver chain; a crash
//! after a v2 table for R0 is journaled but before it is sent, leaving a
//! torn frame at the journal's tail; a restart through the same start
//! entry that truncates the tail, fences every relay one epoch up and
//! reconciles (R0 gets its interrupted table, R1 its believed one); a
//! zombie push under the dead epoch at each relay and a duplicate of the
//! re-push, none applied (asserted by the relays' counters); and a
//! reliable transfer that completes byte-identically across all of it.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::net::UdpSocket;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ncvnf_control::signal::{FencedSignal, Signal, VnfRoleWire};
use ncvnf_control::{
    AutoscaleConfig, Autoscaler, ControlMetrics, ControlRecord, ForwardingTable, Journal,
    RelayTarget, SenderConfig, SignalSender,
};
use ncvnf_deploy::{
    Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
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

/// An autoscaler over src → dc-0 (R0) → dc-1 (R1) → rx, on the journal at
/// `wal`. Returns it with what the journal replayed.
fn autoscaler(
    wal: &Path,
    relays: [&RelayNode; 2],
    rx: std::net::SocketAddr,
) -> (
    Autoscaler,
    ncvnf_control::ControllerState,
    ncvnf_control::ReplayReport,
) {
    let mut b = TopologyBuilder::new();
    let spec = VnfSpec {
        bin_bps: 10e6,
        bout_bps: 10e6,
        coding_bps: 10e6,
    };
    let dcs = [b.data_center("dc-0", spec), b.data_center("dc-1", spec)];
    let s = b.source("src", 1e6);
    let t = b.receiver("rx", 1e6);
    b.link(s, dcs[0], 5.0)
        .link(dcs[0], dcs[1], 5.0)
        .link(dcs[1], t, 5.0);
    let params = ScalingParams {
        alpha: 20e3,
        rho1: 0.25,
        tau1_secs: 1.0,
        rho2: 0.25,
        tau2_secs: 1.0,
        pool_tau_secs: 600.0,
        launch_latency_secs: 0.0,
    };
    let mut controller = ScalingController::new(b.build(), Planner::new(), params);
    controller
        .handle(
            ScalingEvent::SessionJoin(SessionSpec::elastic(
                SessionId::new(SESSION),
                s,
                vec![t],
                200.0,
            )),
            0.0,
        )
        .unwrap();
    let targets = (0..2)
        .map(|i| RelayTarget {
            node: i as u32,
            dc: dcs[i],
            control_addr: relays[i].control_addr,
            role: VnfRoleWire::Recoder,
            settings: vec![settings_for(relays[i])],
        })
        .collect();
    let data_addrs = HashMap::from([
        (dcs[0], relays[0].data_addr.to_string()),
        (dcs[1], relays[1].data_addr.to_string()),
        (t, rx.to_string()),
    ]);
    let (journal, state, replay) = Journal::open(wal).unwrap();
    let auto = Autoscaler::new(
        controller,
        journal,
        targets,
        data_addrs,
        AutoscaleConfig::default(),
    );
    (auto, state, replay)
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

    // ---- Incarnation 1: the start entry on an empty journal. ----
    let journal_path = temp_journal();
    let (mut auto1, state0, _) = autoscaler(&journal_path, [&r0, &r1], receiver.addr);
    let epoch1 = state0.next_epoch();
    let mut sender1 = SignalSender::new(epoch1, SenderConfig::default()).unwrap();
    auto1.start(&mut sender1, &state0, 0.0).unwrap();
    drop(auto1);
    assert_eq!(
        r0.handle().table_text(),
        table_text(SESSION, &r1.data_addr.to_string()),
        "R0 forwards to R1"
    );

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
    let (mut journal, _, _) = Journal::open(&journal_path).unwrap();
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

    // ---- Incarnation 2: open (truncate, replay), a link one epoch up,
    // the same start entry. ----
    let (auto2, state, replay) = autoscaler(&journal_path, [&r0, &r1], receiver.addr);
    assert!(replay.torn_tail, "the torn tail was detected");
    assert_eq!(replay.truncated_bytes, 8, "exactly the partial frame went");
    assert_eq!(replay.records, 7, "every committed record replayed");
    let epoch2 = state.next_epoch();
    assert_eq!(epoch2, 2, "fenced one above everything journaled");
    let registry = Registry::new();
    let mut auto2 = auto2.with_metrics(ControlMetrics::register(&registry));
    let mut sender2 = SignalSender::new(epoch2, SenderConfig::default()).unwrap();
    let report = auto2.start(&mut sender2, &state, 0.0).unwrap();
    assert_eq!(report.repushed_ok, 2, "both relays pushed under epoch 2");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("control.reconcile.repushed"), Some(2));
    assert_eq!(
        snap.counter("control.journal.replayed"),
        Some(7),
        "the open's replay reached the registry"
    );
    assert_eq!(snap.counter("control.journal.torn_tails"), Some(1));
    assert!(
        r0.handle().table_text().contains("session 99"),
        "R0 holds the journaled v2 entry"
    );
    for relay in [&r0, &r1] {
        assert_eq!(
            relay.handle().snapshot().gauge("relay.ctrl_epoch"),
            Some(2.0),
            "every relay fenced at the new epoch"
        );
    }

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
    for (relay, frame, reply) in [
        (&r0, hostile(epoch1, 50), &b"ERR stale-epoch 50"[..]),
        (&r0, hostile(epoch2, 1), &b"OK 1"[..]),
        (&r1, hostile(epoch1, 50), &b"ERR stale-epoch 50"[..]),
    ] {
        probe
            .send_to(&frame.to_bytes(), relay.control_addr)
            .unwrap();
        let (n, _) = probe.recv_from(&mut ack).unwrap();
        assert_eq!(&ack[..n], reply);
    }
    let snap = r0.handle().snapshot();
    assert_eq!(snap.counter("relay.stale_epoch_rejected"), Some(1));
    assert_eq!(snap.counter("relay.duplicate_signals"), Some(1));
    let snap = r1.handle().snapshot();
    assert_eq!(snap.counter("relay.stale_epoch_rejected"), Some(1));
    for relay in [&r0, &r1] {
        assert!(!relay.handle().table_text().contains("10.0.0.1"));
    }

    // ---- The transfer never noticed. ----
    let source_stats = transfer.join().expect("source thread");
    let delivered = receiver
        .wait(Duration::from_secs(60))
        .expect("transfer completes across the controller restart");
    assert_eq!(delivered.object, object, "byte-identical after recovery");
    assert_eq!(source_stats.unrecovered, 0);

    drop(auto2);
    r0.shutdown();
    r1.shutdown();
    let _ = std::fs::remove_file(&journal_path);
}
