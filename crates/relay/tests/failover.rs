//! Liveness failover: killing a relay mid-transfer must be detected via
//! missed heartbeats, rerouted around, and survived.
//!
//! Topology: source → R0 → R1 → receiver, with a pre-configured standby
//! R2. All three relays beacon heartbeats (feedback kind 3) at a monitor
//! every 25 ms. Mid-transfer R1 is killed; the monitor's
//! `LivenessTracker` escalates it Suspect → Dead on silence, computes
//! the failover delta with `ncvnf_control::failover::reroute_table`
//! (R0: replace the dead R1 hop with R2) and pushes the new
//! `NC_FORWARD_TAB` to R0. The reliable transfer's NACK/retransmit loop
//! then refills whatever died with R1, and the object decodes
//! byte-identically. The kill → table-acked failover time is reported.

use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ncvnf_control::failover::reroute_table;
use ncvnf_control::liveness::{LivenessConfig, LivenessEvent, LivenessTracker};
use ncvnf_control::signal::{Signal, VnfRoleWire};
use ncvnf_control::{ControlMetrics, ForwardingTable, SenderConfig, SignalSender};
use ncvnf_dataplane::{Feedback, FeedbackKind};
use ncvnf_obs::Registry;
use ncvnf_relay::{
    send_object_reliable, HeartbeatConfig, RecoveryConfig, RelayConfig, RelayNode,
    ReliableReceiver, TransferConfig, TransferObs,
};
use ncvnf_rlnc::{GenerationConfig, ObjectEncoder, RedundancyPolicy, SessionId};

const SESSION: u16 = 21;
const HEARTBEAT_EVERY: Duration = Duration::from_millis(25);

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

fn relay_config(node_id: u32, monitor: SocketAddr) -> RelayConfig {
    RelayConfig {
        generation: transfer_config().generation,
        buffer_generations: 256,
        seed: 0xD00D + node_id as u64,
        heartbeat: Some(HeartbeatConfig {
            monitor,
            interval: HEARTBEAT_EVERY,
            node_id,
        }),
        registry: None,
        ..RelayConfig::default()
    }
}

/// Pushes a fenced signal and asserts the relay applied it.
fn configure(sender: &mut SignalSender, to: SocketAddr, sig: &Signal) {
    sender.push(to, sig).expect("signal applied");
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

fn table_to(hop: SocketAddr) -> Signal {
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(SESSION), vec![hop.to_string()]);
    Signal::NcForwardTab {
        table: table.to_text(),
    }
}

#[derive(Default)]
struct MonitorState {
    /// Instant the kill happened (set by the main thread).
    killed_at: Option<Instant>,
    /// Kill → failover-table-acked latency.
    failover: Option<Duration>,
    /// Every node the tracker ever declared dead.
    deaths: Vec<u32>,
}

#[test]
fn relay_death_is_detected_and_routed_around_mid_transfer() {
    let monitor_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    monitor_socket
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let monitor_addr = monitor_socket.local_addr().unwrap();

    let r0 = RelayNode::spawn(relay_config(0, monitor_addr)).unwrap();
    let r1 = RelayNode::spawn(relay_config(1, monitor_addr)).unwrap();
    let r2 = RelayNode::spawn(relay_config(2, monitor_addr)).unwrap();

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

    // Wire the mesh: R0 → R1 → receiver, standby R2 → receiver. The
    // monitor later pushes through the same sender, so each relay sees
    // one sequence counter.
    let mut sender = SignalSender::new(1, SenderConfig::default()).unwrap();
    configure(&mut sender, r0.control_addr, &settings_for(&r0));
    configure(&mut sender, r0.control_addr, &table_to(r1.data_addr));
    configure(&mut sender, r1.control_addr, &settings_for(&r1));
    configure(&mut sender, r1.control_addr, &table_to(receiver.addr));
    configure(&mut sender, r2.control_addr, &settings_for(&r2));
    configure(&mut sender, r2.control_addr, &table_to(receiver.addr));

    // The monitor: heartbeats → liveness tracker → failover push. Its
    // liveness transitions and table-push latency go through the
    // control-plane metrics bundle, so the test can assert on the
    // registry snapshot instead of ad-hoc counters.
    let controller_registry = Registry::new();
    let state = Arc::new(Mutex::new(MonitorState::default()));
    let r0_handle = r0.handle();
    let monitor = {
        let state = Arc::clone(&state);
        let metrics = ControlMetrics::register(&controller_registry);
        let r0_handle = r0_handle.clone();
        let r0_control = r0.control_addr;
        let dead_hop = r1.data_addr.to_string();
        let replacement = r2.data_addr.to_string();
        std::thread::spawn(move || {
            let mut tracker = LivenessTracker::new(LivenessConfig {
                suspect_after: 3 * HEARTBEAT_EVERY,
                dead_after: 6 * HEARTBEAT_EVERY,
            });
            let mut buf = [0u8; 64];
            loop {
                if let Ok((n, _)) = monitor_socket.recv_from(&mut buf) {
                    if let Ok(fb) = Feedback::from_bytes(&buf[..n]) {
                        if fb.kind == FeedbackKind::Heartbeat {
                            tracker.heartbeat(fb.node_id(), Instant::now());
                        }
                    }
                }
                for ev in tracker.poll(Instant::now()) {
                    metrics.record_liveness_event(&ev);
                    let LivenessEvent::Died(node) = ev else {
                        continue;
                    };
                    let mut st = state.lock();
                    st.deaths.push(node);
                    if node != 1 || st.failover.is_some() {
                        continue;
                    }
                    let killed_at = st.killed_at;
                    drop(st);
                    // Reroute R0 around the corpse and push the delta.
                    let current = ForwardingTable::parse(&r0_handle.table_text())
                        .expect("relay table parses");
                    let delta = reroute_table(&current, &dead_hop, &replacement)
                        .expect("R0 pointed at the dead relay");
                    let sig = Signal::NcForwardTab {
                        table: delta.to_text(),
                    };
                    let push_started = Instant::now();
                    sender
                        .push(r0_control, &sig)
                        .expect("R0 acks failover table");
                    metrics
                        .table_push_ns
                        .record(push_started.elapsed().as_nanos() as u64);
                    let mut st = state.lock();
                    st.failover = Some(killed_at.map_or(Duration::ZERO, |t| t.elapsed()));
                    return; // failover done; monitor's job is over
                }
                // Transfer (and test) end well before this safety stop.
                if state
                    .lock()
                    .killed_at
                    .is_some_and(|t| t.elapsed() > Duration::from_secs(20))
                {
                    return;
                }
            }
        })
    };

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

    std::thread::sleep(Duration::from_millis(400));
    // Heartbeats flowed before the kill.
    assert!(r1.handle().stats().heartbeats_sent > 0, "R1 beaconed");
    state.lock().killed_at = Some(Instant::now());
    r1.shutdown(); // heartbeats stop, data path goes dark

    let source_stats = transfer.join().expect("source thread");
    let report = receiver
        .wait(Duration::from_secs(60))
        .expect("transfer completes through the rerouted path");
    monitor.join().expect("monitor thread");

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

    let st = state.lock();
    assert!(st.deaths.contains(&1), "tracker declared R1 dead");
    assert!(!st.deaths.contains(&0), "R0 never suspected dead");
    assert!(!st.deaths.contains(&2), "R2 never suspected dead");
    let failover = st.failover.expect("failover executed");
    drop(st);
    println!(
        "failover time (kill -> rerouted table acked): {:.1} ms",
        failover.as_secs_f64() * 1e3
    );
    // Detection is bounded by dead_after (150 ms) plus poll/push slack.
    assert!(
        failover < Duration::from_secs(5),
        "failover took {failover:?}"
    );

    // R2 carried traffic only after the failover.
    assert!(
        r2.handle().stats().datagrams_in > 0,
        "standby took over the flow"
    );

    // The controller's registry recorded the whole episode: the death,
    // at least one suspicion, and the timed failover-table push.
    let csnap = controller_registry.snapshot();
    assert!(csnap.counter("control.liveness.died").unwrap() >= 1);
    assert!(csnap.counter("control.liveness.suspected").unwrap() >= 1);
    assert_eq!(csnap.histogram("control.table_push_ns").unwrap().count, 1);

    // R0's own registry timed both table swaps (initial wiring + the
    // failover push) and traced them.
    let r0_snap = r0_handle.snapshot();
    assert_eq!(r0_snap.histogram("relay.table_swap_ns").unwrap().count, 2);
    assert!(r0_snap
        .events
        .iter()
        .any(|e| e.kind == ncvnf_obs::TraceKind::TableSwap));
    r0.shutdown();
    r2.shutdown();
}
