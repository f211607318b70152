//! End-to-end closed-loop chaos test: a live bandwidth collapse must be
//! *measured* (NC_STATS counter deltas), *decided* (ρ/τ hysteresis) and
//! *actuated* (re-placed and re-routed) by the autoscaler while a
//! reliable transfer is in flight — then the controller is killed in the
//! middle of the actuation and a restarted incarnation must finish the
//! job from the journal alone.
//!
//! Topology (diamond): source → R0 (dc-A) → {R1 (dc-B) | R2 (dc-C)} →
//! receiver. dc-B's nominal capability beats dc-C's, so the initial plan
//! deterministically routes through R1; R2 is armed but carries no flow.
//! R1's data socket is chaos-wrapped, and mid-transfer the fault handle
//! blackholes it. The autoscaler's capability estimates for dc-B collapse
//! (frozen counters → ratio floor), survive τ1, and the controller
//! re-plans through dc-C.
//!
//! The actuation is then killed half-way: the link wrapper lets exactly
//! one push out and fails the next, after the autoscaler journaled both.
//! Tables go downstream first, so the push that lands arms R2 and the one
//! cut off is R0's reroute toward it: no relay ever forwards to an
//! unarmed one. The restarted incarnation opens the WAL, builds its
//! sender one epoch up and calls the same start entry, which pushes every
//! relay its believed table under the new epoch — R0's
//! journaled-but-never-delivered reroute included — and the transfer
//! completes byte-identically. A zombie push under the dead epoch is
//! fenced off.
//!
//! Finally the loop winds the idle fleet to zero (scale-to-zero) and a
//! single stray datagram at a drained relay produces a data-plane wake
//! frame that re-arms everything.
//!
//! The fault seed is pinned (override with `NCVNF_CHAOS_SEED`) so CI
//! failures replay exactly.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ncvnf_control::{
    AutoscaleConfig, AutoscaleError, Autoscaler, ControlLink, DaemonState, FencedSignal,
    ForwardingTable, Journal, NodeStatus, RelayTarget, SendError, SendReceipt, SenderConfig,
    Signal, SignalSender, VnfRoleWire,
};
use ncvnf_dataplane::{Feedback, FeedbackKind};
use ncvnf_deploy::{
    Planner, ScalingController, ScalingEvent, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
};
use ncvnf_relay::{
    send_object_reliable, FaultConfig, FaultSocket, HeartbeatConfig, RecoveryConfig, RelayConfig,
    RelayNode, ReliableReceiver, TransferConfig, TransferObs,
};
use ncvnf_rlnc::{GenerationConfig, ObjectEncoder, RedundancyPolicy, SessionId};

const SESSION: u16 = 33;
const HEARTBEAT_EVERY: Duration = Duration::from_millis(50);

fn chaos_seed() -> u64 {
    std::env::var("NCVNF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC405_2017)
}

fn temp_wal() -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("ncvnf-autoscale-drift-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn transfer_config() -> TransferConfig {
    TransferConfig {
        session: SessionId::new(SESSION),
        generation: GenerationConfig::new(256, 4).unwrap(),
        redundancy: RedundancyPolicy::NC0,
        // Slow enough that the collapse lands mid-initial-pass.
        rate_bps: 400e3,
        seed: chaos_seed(),
    }
}

fn relay_config(node_id: u32, monitor: SocketAddr) -> RelayConfig {
    RelayConfig {
        generation: transfer_config().generation,
        buffer_generations: 256,
        seed: 0xD1F7 + node_id as u64,
        heartbeat: Some(HeartbeatConfig {
            monitor,
            interval: HEARTBEAT_EVERY,
            node_id,
        }),
        registry: None,
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

/// Fresh controller over the diamond. dc-B's spec dominates dc-C's so
/// the λ-maximizing plan provably routes the (source-capped) 1 Mbps
/// session through B; C only enters once B's belief collapses.
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
        rho1: 0.25,
        tau1_secs: 0.8,
        rho2: 0.25,
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

/// Passes a fixed number of pushes through to the real sender, then
/// fails every further one *without sending* — the controller process
/// "dies" between actuation steps, after the journal writes landed.
struct CrashAfterLink<'a> {
    inner: &'a mut SignalSender,
    budget: u32,
}

impl ControlLink for CrashAfterLink<'_> {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn next_seq(&self, to: SocketAddr) -> u64 {
        self.inner.next_seq(to)
    }

    fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
        if self.budget == 0 {
            return Err(SendError::Timeout { attempts: 0 });
        }
        self.budget -= 1;
        self.inner.push(to, signal)
    }

    fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
        self.inner.query_stats(to)
    }
}

#[test]
fn bandwidth_collapse_is_rerouted_live_and_survives_controller_crash() {
    let wal = temp_wal();
    let monitor_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    monitor_socket
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let monitor_addr = monitor_socket.local_addr().unwrap();

    // R1 (the initially-preferred hop) gets a chaos-wrapped data socket.
    let r0 = RelayNode::spawn(relay_config(0, monitor_addr)).unwrap();
    let r1 = {
        let data = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let control = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let (faulty, handle) = FaultSocket::wrap(data, FaultConfig::new(chaos_seed()));
        (
            RelayNode::spawn_with(relay_config(1, monitor_addr), faulty, control).unwrap(),
            handle,
        )
    };
    let (r1, r1_faults) = r1;
    let r2 = RelayNode::spawn(relay_config(2, monitor_addr)).unwrap();

    let config = transfer_config();
    // 64 KiB at 400 kbps ≈ 1.3 s of initial pass: the collapse (after
    // the ~0.6 s warm-up) lands squarely mid-transfer.
    let object: Vec<u8> = (0..64 * 1024u32)
        .map(|i| (i.wrapping_mul(41)) as u8)
        .collect();
    let encoder = ObjectEncoder::new(config.generation, config.session, &object).unwrap();

    let source_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let recovery = RecoveryConfig {
        decode_timeout: Duration::from_millis(100),
        nack_interval: Duration::from_millis(100),
        backoff_base: Duration::from_millis(50),
        max_retries: 40,
        idle_timeout: Duration::from_secs(15),
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

    // ---- Incarnation 1: the start entry on an empty WAL, epoch 1. ----
    let (controller, [dc_a, dc_b, dc_c, t]) = build_controller();
    let (journal, state0, _) = Journal::open(&wal).unwrap();
    assert_eq!(state0.nodes.len(), 0, "fresh WAL");
    let targets = vec![
        RelayTarget {
            node: 0,
            dc: dc_a,
            control_addr: r0.control_addr,
            role: VnfRoleWire::Recoder,
            settings: vec![settings_for(&r0)],
        },
        RelayTarget {
            node: 1,
            dc: dc_b,
            control_addr: r1.control_addr,
            role: VnfRoleWire::Recoder,
            settings: vec![settings_for(&r1)],
        },
        RelayTarget {
            node: 2,
            dc: dc_c,
            control_addr: r2.control_addr,
            role: VnfRoleWire::Recoder,
            settings: vec![settings_for(&r2)],
        },
    ];
    let mut data_addrs = HashMap::new();
    data_addrs.insert(dc_a, r0.data_addr.to_string());
    data_addrs.insert(dc_b, r1.data_addr.to_string());
    data_addrs.insert(dc_c, r2.data_addr.to_string());
    data_addrs.insert(t, receiver.addr.to_string());
    let drift_cfg = AutoscaleConfig {
        min_rel_change: 0.1,
        telemetry_window: 3,
        idle_tau_secs: 60.0, // nothing drains during the drift phase
        drain_tau_secs: 600,
    };
    let mut sender1 = SignalSender::new(state0.next_epoch(), SenderConfig::default()).unwrap();
    let mut auto1 = Autoscaler::new(
        controller,
        journal,
        targets.clone(),
        data_addrs.clone(),
        drift_cfg,
    );
    let t0 = Instant::now();
    auto1.start(&mut sender1, &state0, 0.0).unwrap();
    assert!(
        r0.handle().table_text().contains(&r1.data_addr.to_string()),
        "initial plan routes through the stronger dc-B"
    );

    // Stream in the background; the collapse lands mid-initial-pass.
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

    // Warm-up polls establish per-relay throughput baselines.
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(150));
        auto1
            .poll(&mut sender1, t0.elapsed().as_secs_f64())
            .expect("warm-up poll");
    }
    assert!(r1.handle().stats().datagrams_in > 0, "traffic flows via R1");

    // ---- Collapse dc-B and let the loop detect + re-place + re-route,
    // crashing the controller after exactly one actuation push. ----
    r1_faults.crash();
    let crashed_at = Instant::now();
    let mut link = CrashAfterLink {
        inner: &mut sender1,
        budget: 1,
    };
    let detect_to_actuate = loop {
        assert!(
            crashed_at.elapsed() < Duration::from_secs(15),
            "collapse was never adopted"
        );
        std::thread::sleep(Duration::from_millis(120));
        match auto1.poll(&mut link, t0.elapsed().as_secs_f64()) {
            Ok(_) => {}
            Err(AutoscaleError::Send(_)) => break crashed_at.elapsed(),
            Err(e) => panic!("unexpected autoscaler error: {e}"),
        }
    };
    println!(
        "collapse -> adoption + first table live: {:.1} ms",
        detect_to_actuate.as_secs_f64() * 1e3
    );
    assert!(
        detect_to_actuate < Duration::from_secs(5),
        "detection window blown: {detect_to_actuate:?}"
    );
    // The one budgeted push armed R2 (downstream first); R0's reroute
    // toward it was the push the "crash" cut off.
    assert!(
        r2.handle()
            .table_text()
            .contains(&receiver.addr.to_string()),
        "R2 holds its table before anything forwards to it"
    );
    assert!(
        r0.handle().table_text().contains(&r1.data_addr.to_string()),
        "R0's reroute never left the dead controller"
    );

    // ---- Incarnation 2: open the WAL, a sender one epoch up, start.
    // Scale-to-zero runs later on this incarnation, with a short idle τ.
    drop(auto1); // the dead controller's journal handle flushes + closes
    let (journal2, state, replay) = Journal::open(&wal).unwrap();
    assert!(!replay.torn_tail, "clean shutdown of the journal");
    assert!(state.scale_decisions >= 1, "the adoption was journaled");
    assert!(
        state.nodes[&0]
            .table
            .to_text()
            .contains(&r2.data_addr.to_string()),
        "WAL holds R0's journaled-but-undelivered reroute"
    );
    assert!(
        state.nodes[&2]
            .table
            .to_text()
            .contains(&receiver.addr.to_string()),
        "WAL holds R2's table"
    );
    let (controller2, _) = build_controller();
    let idle_cfg = AutoscaleConfig {
        min_rel_change: 0.1,
        telemetry_window: 3,
        idle_tau_secs: 1.0,
        drain_tau_secs: 60,
    };
    let mut auto2 = Autoscaler::new(controller2, journal2, targets, data_addrs, idle_cfg);
    let mut sender2 = SignalSender::new(state.next_epoch(), SenderConfig::default()).unwrap();
    let report = auto2
        .start(&mut sender2, &state, t0.elapsed().as_secs_f64())
        .unwrap();
    assert!(report.repush_failures.is_empty(), "{report:?}");
    assert_eq!(
        report.repushed_ok, 3,
        "every reachable relay ACKed its table under epoch 2: {report:?}"
    );
    for relay in [&r0, &r1, &r2] {
        assert_eq!(
            relay.handle().snapshot().gauge("relay.ctrl_epoch"),
            Some(2.0)
        );
    }
    assert!(
        r0.handle().table_text().contains(&r2.data_addr.to_string()),
        "R0 now holds its missing reroute toward dc-C"
    );

    // A zombie push from the dead incarnation is fenced off: R2 has
    // seen epoch 2 (the reconciliation repush), so an epoch-1 straggler
    // trying to point it back at the dead hop bounces.
    {
        let zombie = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        zombie
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut table = ForwardingTable::new();
        table.set(SessionId::new(SESSION), vec![r1.data_addr.to_string()]);
        let sig = FencedSignal {
            epoch: 1,
            seq: 999,
            signal: Signal::NcForwardTab {
                table: table.to_text(),
            },
        };
        let mut buf = [0u8; 64];
        zombie.send_to(&sig.to_bytes(), r2.control_addr).unwrap();
        let (n, _) = zombie.recv_from(&mut buf).expect("R2 replies");
        assert!(
            buf[..n].starts_with(b"ERR stale-epoch"),
            "zombie accepted: {:?}",
            String::from_utf8_lossy(&buf[..n])
        );
    }

    // The transfer drains through the healed dc-C path, byte-identical.
    let source_stats = transfer.join().expect("source thread");
    let delivered = receiver
        .wait(Duration::from_secs(60))
        .expect("transfer completes through the rerouted path");
    assert_eq!(delivered.object, object, "byte-identical after reroute");
    assert_eq!(source_stats.unrecovered, 0, "every generation closed out");
    assert!(
        r2.handle().stats().datagrams_in > 0,
        "dc-C actually carried the flow"
    );

    // ---- Scale-to-zero: the idle fleet winds down... ----
    let mut drained: HashSet<u32> = HashSet::new();
    let wind_down = Instant::now();
    while drained.len() < 3 {
        assert!(
            wind_down.elapsed() < Duration::from_secs(20),
            "fleet never wound down; drained so far: {drained:?}"
        );
        std::thread::sleep(Duration::from_millis(200));
        let report = auto2
            .poll(&mut sender2, t0.elapsed().as_secs_f64())
            .expect("idle poll");
        drained.extend(report.drained);
    }
    assert_eq!(auto2.draining(), vec![0, 1, 2]);
    assert!(matches!(r0.handle().daemon_state(), DaemonState::Draining));
    assert!(matches!(r2.handle().daemon_state(), DaemonState::Draining));

    // ---- ...and the first stray packet wakes it back up. ----
    let probe = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    probe.send_to(&[0u8; 32], r0.data_addr).unwrap();
    let woke_deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 64];
    loop {
        assert!(
            Instant::now() < woke_deadline,
            "no wake frame reached the monitor"
        );
        let Ok((n, _)) = monitor_socket.recv_from(&mut buf) else {
            continue;
        };
        let Ok(fb) = Feedback::from_bytes(&buf[..n]) else {
            continue;
        };
        if fb.kind == FeedbackKind::Wake && fb.node_id() == 0 {
            break;
        }
    }
    let woken = auto2.wake(&mut sender2).expect("wake actuates");
    // The fresh controller plans through dc-B, where R0's table names
    // R1: R1 and R2 (no table) name nobody and are re-armed in the first
    // wave, by node id, and R0 in the second.
    assert_eq!(
        woken,
        vec![1, 2, 0],
        "whole fleet re-armed downstream first"
    );
    assert!(matches!(r0.handle().daemon_state(), DaemonState::Running));
    assert!(matches!(r2.handle().daemon_state(), DaemonState::Running));
    assert!(
        r0.handle()
            .snapshot()
            .counter("relay.wake_signals")
            .unwrap_or(0)
            >= 1,
        "R0 counted its wake frame"
    );

    // The WAL tells the whole story to the *next* incarnation.
    drop(auto2);
    let (_journal3, state3, _) = Journal::open(&wal).unwrap();
    assert!(state3.scale_decisions >= 1);
    for node in [0u32, 1, 2] {
        assert!(
            matches!(state3.nodes[&node].status, NodeStatus::Active),
            "node {node} active after wake"
        );
    }

    r0.shutdown();
    r1.shutdown();
    r2.shutdown();
    let _ = std::fs::remove_file(&wal);
}
