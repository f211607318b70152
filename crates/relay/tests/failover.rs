//! Failover inside the poll loop: killing a relay mid-transfer must be
//! detected by the autoscaler's own `NC_STATS` sweep, planned around and
//! survived.
//!
//! Topology (diamond): source → R0 (dc-a) → {R1 (dc-b) | R2 (dc-c)} →
//! receiver. dc-b's nominal capability beats dc-c's, so the first plan
//! routes through R1 and R2 carries nothing. The real `Autoscaler`
//! starts the fleet over a real `SignalSender` and polls it; nothing else
//! watches the relays. Mid-transfer R1 is shut down (both sockets). Each
//! sweep then waits out one retry budget for it; on the second
//! unanswered sweep R1 is lost, dc-b's capability goes to zero and the
//! re-solve is journaled and pushed downstream first: R2's table, then
//! R0's, which names R2. The reliable transfer's NACK/repair loop refills
//! whatever died with R1, and the object decodes byte-identically. The
//! kill → R0's table ACKed time is printed.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ncvnf_control::{
    AutoscaleConfig, Autoscaler, ControlMetrics, Journal, RelayTarget, SenderConfig, Signal,
    SignalSender, VnfRoleWire,
};
use ncvnf_deploy::{
    Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
};
use ncvnf_obs::{Registry, TraceKind};
use ncvnf_relay::{
    send_object_reliable, RecoveryConfig, RelayConfig, RelayNode, ReliableReceiver, TransferConfig,
    TransferObs,
};
use ncvnf_rlnc::{GenerationConfig, ObjectEncoder, RedundancyPolicy, SessionId};

const SESSION: u16 = 21;
/// Pause between polls: the sweep itself is the clock that matters.
const POLL_EVERY: Duration = Duration::from_millis(100);

fn transfer_config() -> TransferConfig {
    TransferConfig {
        session: SessionId::new(SESSION),
        generation: GenerationConfig::new(256, 4).unwrap(),
        redundancy: RedundancyPolicy::NC0,
        // Slow enough that the initial pass spans the kill comfortably.
        rate_bps: 400e3,
        seed: 0xFA11,
    }
}

fn relay_config(node_id: u32) -> RelayConfig {
    RelayConfig {
        generation: transfer_config().generation,
        buffer_generations: 256,
        seed: 0xD00D + node_id as u64,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    }
}

fn settings_for(relay: &RelayNode) -> Vec<Signal> {
    let gen = transfer_config().generation;
    vec![Signal::NcSettings {
        session: SessionId::new(SESSION),
        role: VnfRoleWire::Recoder,
        data_port: relay.data_addr.port(),
        block_size: gen.block_size() as u32,
        generation_size: gen.blocks_per_generation() as u32,
        buffer_generations: 256,
    }]
}

fn temp_wal() -> PathBuf {
    let path = std::env::temp_dir().join(format!("ncvnf-failover-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The diamond with one 1 Mbps session. A ρ1 of 1 keeps drift out of
/// the picture (a capability estimate never moves by 100 %): the only
/// adoption this controller makes is the loss.
fn build_controller() -> (ScalingController, [ncvnf_flowgraph::NodeId; 4]) {
    let mut b = TopologyBuilder::new();
    let relay_spec = |bps: f64| VnfSpec {
        bin_bps: bps,
        bout_bps: bps,
        coding_bps: 10e6,
    };
    let dc_a = b.data_center("dc-a", relay_spec(2e6));
    let dc_b = b.data_center("dc-b", relay_spec(1e6));
    let dc_c = b.data_center("dc-c", relay_spec(0.6e6));
    let s = b.source("src", 1e6);
    let t = b.receiver("rx", 1e6);
    b.link(s, dc_a, 5.0)
        .link(dc_a, dc_b, 5.0)
        .link(dc_a, dc_c, 5.0)
        .link(dc_b, t, 5.0)
        .link(dc_c, t, 5.0);
    let params = ScalingParams {
        alpha: 20e3,
        rho1: 1.0,
        tau1_secs: 0.8,
        rho2: 1.0,
        tau2_secs: 0.8,
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
    (controller, [dc_a, dc_b, dc_c, t])
}

#[test]
fn relay_death_is_detected_and_routed_around_mid_transfer() {
    let r0 = RelayNode::spawn(relay_config(0)).unwrap();
    let r1 = RelayNode::spawn(relay_config(1)).unwrap();
    let r2 = RelayNode::spawn(relay_config(2)).unwrap();

    let config = transfer_config();
    let object: Vec<u8> = (0..20 * 1024u32)
        .map(|i| (i.wrapping_mul(37)) as u8)
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

    // The controller: the real autoscaler on an empty journal, started
    // once; its sweep is the only thing that watches the relays.
    let wal = temp_wal();
    let (controller, [dc_a, dc_b, dc_c, t]) = build_controller();
    let (journal, state, _) = Journal::open(&wal).unwrap();
    let targets = [(0, dc_a, &r0), (1, dc_b, &r1), (2, dc_c, &r2)]
        .into_iter()
        .map(|(node, dc, relay)| RelayTarget {
            node,
            dc,
            control_addr: relay.control_addr,
            role: VnfRoleWire::Recoder,
            settings: settings_for(relay),
        })
        .collect();
    let data_addrs = HashMap::from([
        (dc_a, r0.data_addr.to_string()),
        (dc_b, r1.data_addr.to_string()),
        (dc_c, r2.data_addr.to_string()),
        (t, receiver.addr.to_string()),
    ]);
    let config_loop = AutoscaleConfig {
        min_rel_change: 1.0,
        telemetry_window: 3,
        idle_tau_secs: 600.0,
        drain_tau_secs: 600,
    };
    let registry = Registry::new();
    let mut auto = Autoscaler::new(controller, journal, targets, data_addrs, config_loop)
        .with_metrics(ControlMetrics::register(&registry));
    let mut sender = SignalSender::new(state.next_epoch(), SenderConfig::default()).unwrap();
    let t0 = Instant::now();
    auto.start(&mut sender, &state, 0.0).unwrap();
    let r1_hop = r1.data_addr.to_string();
    let r2_hop = r2.data_addr.to_string();
    assert!(
        r0.handle().table_text().contains(&r1_hop),
        "the first plan routes through the stronger dc-b"
    );

    // Stream in the background; the kill lands mid-initial-pass.
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

    // Polls before the kill: everyone answers, nothing is lost.
    let (started, mut polls) = (Instant::now(), 0u64);
    while started.elapsed() < Duration::from_millis(400) {
        let report = auto.poll(&mut sender, t0.elapsed().as_secs_f64()).unwrap();
        assert_eq!(report.unreachable, 0, "{report:?}");
        polls += 1;
        std::thread::sleep(POLL_EVERY);
    }
    assert!(r1.handle().stats().datagrams_in > 0, "traffic flows via R1");

    let killed_at = Instant::now();
    r1.shutdown(); // both sockets close: the sweep goes unanswered
    let mut misses = 0;
    let failover = loop {
        assert!(
            killed_at.elapsed() < Duration::from_secs(10),
            "R1 was never lost"
        );
        let report = auto.poll(&mut sender, t0.elapsed().as_secs_f64()).unwrap();
        assert_eq!(report.unreachable, 1, "{report:?}");
        (misses, polls) = (misses + 1, polls + 1);
        if !report.lost.is_empty() {
            assert_eq!(report.lost, vec![1]);
            assert!(report.adopted, "the loss re-plans: {report:?}");
            break killed_at.elapsed();
        }
        std::thread::sleep(POLL_EVERY);
    };
    assert_eq!(misses, 2, "lost on the second unanswered sweep");
    println!(
        "failover time (kill -> R0's rerouted table acked): {:.1} ms",
        failover.as_secs_f64() * 1e3
    );
    // Two sweeps of one retry budget each, the pauses between polls and
    // the pushes.
    assert!(
        failover < Duration::from_secs(5),
        "failover took {failover:?}"
    );
    let table = r0.handle().table_text();
    assert!(
        table.contains(&r2_hop) && !table.contains(&r1_hop),
        "R0 names R2, not the dead R1: {table}"
    );
    assert!(
        r2.handle()
            .table_text()
            .contains(&receiver.addr.to_string()),
        "R2 was armed before R0 forwarded to it"
    );

    let source_stats = transfer.join().expect("source thread");
    let report = receiver
        .wait(Duration::from_secs(60))
        .expect("transfer completes through the rerouted path");
    assert_eq!(report.object, object, "byte-identical after failover");
    assert_eq!(source_stats.unrecovered, 0, "every generation closed out");
    assert!(
        source_stats.retransmit_packets > 0,
        "the dead window forced retransmissions: {source_stats:?}"
    );
    assert!(
        report.stats.nacks_sent > 0,
        "receiver NACKed the dark window"
    );
    assert!(
        r2.handle().stats().datagrams_in > 0,
        "R2 took over the flow"
    );

    // The registry holds the episode: one loss, traced, and no return.
    let csnap = registry.snapshot();
    assert_eq!(csnap.counter("control.autoscale.lost"), Some(1));
    assert_eq!(csnap.counter("control.autoscale.returned"), Some(0));
    assert!(csnap
        .events
        .iter()
        .any(|e| e.kind == TraceKind::Liveness && (e.a, e.b) == (1, 1)));

    // R0's own registry saw every sweep, timed both table swaps (the
    // start and the reroute) and traced them.
    let r0_snap = r0.handle().snapshot();
    assert!(r0_snap.counter("relay.signals").unwrap() >= polls);
    assert_eq!(r0_snap.histogram("relay.table_swap_ns").unwrap().count, 2);
    assert!(r0_snap
        .events
        .iter()
        .any(|e| e.kind == TraceKind::TableSwap));
    drop(auto);
    r0.shutdown();
    r2.shutdown();
    let _ = std::fs::remove_file(&wal);
}
