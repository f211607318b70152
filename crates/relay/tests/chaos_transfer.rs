//! Chaos experiment: a multi-hop reliable transfer through relays whose
//! sockets drop, duplicate and reorder datagrams on every hop.
//!
//! This is the repo's netem stand-in for the paper's loss experiments
//! (Figs. 8–9): with 10% seeded loss (+ duplication and reordering) on
//! each of the three hops, the feedback protocol — NACKs on evidence of
//! loss, fresh-combination retransmissions gated on the measured round
//! trip, redundancy sized from the estimated erasure rate — must still
//! deliver the object byte-identically.
//!
//! The fault seed is pinned (override with `NCVNF_CHAOS_SEED`) so CI
//! failures replay exactly.

use std::net::UdpSocket;
use std::time::Duration;

use ncvnf_control::signal::VnfRoleWire;
use ncvnf_control::ForwardingTable;
use ncvnf_relay::{
    reliable_chain, send_window_reliable, FaultConfig, FaultSocket, RecoveryConfig, RelayConfig,
    RelayNode, ReliableReceiver, TransferConfig, TransferObs,
};
use ncvnf_rlnc::window::WindowConfig;
use ncvnf_rlnc::{GenerationConfig, RedundancyPolicy, SessionId};

fn chaos_seed() -> u64 {
    std::env::var("NCVNF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC405_2017)
}

/// Source → R1 → R2 → receiver with seeded faults on every hop:
/// R1 perturbs both its ingress (hop 1) and egress (hop 2), R2 its
/// egress (hop 3). The transfer must complete byte-identically, the
/// recovery counters must show the protocol actually worked, and no
/// loop may panic.
#[test]
fn seeded_chaos_on_every_hop_still_delivers_byte_identical() {
    let seed = chaos_seed();
    let config = TransferConfig {
        session: SessionId::new(12),
        generation: GenerationConfig::new(256, 4).unwrap(),
        redundancy: RedundancyPolicy::NC0,
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
    let object: Vec<u8> = (0..32 * 1024u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();

    let faults = [
        // R1: ingress covers the source→R1 hop, egress the R1→R2 hop.
        Some(
            FaultConfig::new(seed ^ 0x1)
                .with_drop(0.10)
                .with_duplicate(0.05)
                .with_reorder(0.05)
                .with_directions(true, true),
        ),
        // R2: egress covers the R2→receiver hop (its ingress is hop 2,
        // already perturbed by R1's egress).
        Some(
            FaultConfig::new(seed ^ 0x2)
                .with_drop(0.10)
                .with_duplicate(0.05)
                .with_reorder(0.05)
                .with_directions(false, true),
        ),
    ];

    let report = reliable_chain(
        &config,
        &recovery,
        &object,
        &faults,
        Duration::from_secs(60),
    )
    .expect("chain runs")
    .expect("transfer completes despite chaos");

    assert_eq!(report.receiver.object, object, "byte-identical object");

    // The pathologies genuinely fired on every faulted socket…
    for (i, fs) in report.faults.iter().enumerate() {
        let fs = fs.expect("both relays are faulted");
        assert!(fs.dropped > 0, "relay {i} dropped packets: {fs:?}");
        assert!(fs.duplicated > 0, "relay {i} duplicated packets: {fs:?}");
        assert!(fs.reordered > 0, "relay {i} reordered packets: {fs:?}");
    }

    // …and recovery did real work to beat them.
    assert!(
        report.receiver.stats.nacks_sent > 0,
        "receiver NACKed stalled generations: {:?}",
        report.receiver.stats
    );
    assert!(
        report.source.retransmit_packets > 0,
        "source retransmitted fresh combinations: {:?}",
        report.source
    );
    assert!(report.source.nacks_received > 0, "NACKs reached the source");
    assert!(
        report.source.generations_recovered > 0,
        "recovered generations are counted"
    );
    assert_eq!(report.source.unrecovered, 0, "nothing was abandoned");

    // Relays survived the abuse without choking on feedback or signals.
    for (i, rs) in report.relays.iter().enumerate() {
        assert!(
            rs.datagrams_in > 0 && rs.datagrams_out > 0,
            "relay {i} flowed"
        );
        assert_eq!(rs.rejected_signals, 0, "relay {i} control plane clean");
    }

    // The endpoint registry snapshot is the same source of truth the
    // typed stats came from — the numbers must agree, and the repair
    // work must have left trace events behind.
    let snap = &report.snapshot;
    assert_eq!(
        snap.counter("recovery.nacks_sent"),
        Some(report.receiver.stats.nacks_sent)
    );
    assert_eq!(
        snap.counter("recovery.retransmit_packets"),
        Some(report.source.retransmit_packets)
    );
    assert!(snap.counter("rlnc.decode.generations").unwrap() > 0);
    assert!(snap.histogram("recovery.backoff_ns").unwrap().count > 0);
    assert!(
        snap.events
            .iter()
            .any(|e| e.kind == ncvnf_obs::TraceKind::RepairBurst),
        "repair bursts were traced"
    );
    assert!(
        snap.events
            .iter()
            .any(|e| e.kind == ncvnf_obs::TraceKind::GenerationDecoded),
        "decoded generations were traced"
    );
}

/// Under sustained loss the source must *measure* it: 20 % dropped on
/// the relay's way in and again on its way out is 36 % end to end, and
/// the erasure estimate the source publishes must land near that. The
/// redundancy it buys goes only where a round trip is exposed — the
/// repair rounds after the last fresh generation — and shows up as the
/// peak.
#[test]
fn adaptive_redundancy_rises_under_chaos() {
    let seed = chaos_seed().wrapping_add(1);
    let config = TransferConfig {
        session: SessionId::new(13),
        generation: GenerationConfig::new(128, 4).unwrap(),
        redundancy: RedundancyPolicy::NC0,
        rate_bps: 50e6,
        seed,
    };
    let recovery = RecoveryConfig {
        decode_timeout: Duration::from_millis(30),
        nack_interval: Duration::from_millis(30),
        backoff_base: Duration::from_millis(10),
        max_retries: 12,
        ..RecoveryConfig::default()
    };
    let object: Vec<u8> = (0..24 * 1024u32).map(|i| (i * 31) as u8).collect();
    let faults = [Some(
        FaultConfig::new(seed)
            .with_drop(0.20)
            .with_directions(true, true),
    )];

    let report = reliable_chain(
        &config,
        &recovery,
        &object,
        &faults,
        Duration::from_secs(60),
    )
    .expect("chain runs")
    .expect("transfer completes");

    assert_eq!(report.receiver.object, object);
    assert_eq!(report.source.unrecovered, 0);
    // 48 generations of 4 packets: the estimate's standard error is
    // about 3.5 points, the band five of them wide either side.
    let estimate = report
        .snapshot
        .gauge("recovery.loss_estimate")
        .expect("gauge registered");
    assert!(
        (0.18..=0.54).contains(&estimate),
        "estimated {estimate:.3} on a path that drops 36 %: {:?}",
        report.source
    );
    assert!(
        report.source.peak_extra > 0,
        "post-pass repair bursts carried a margin: {:?}",
        report.source
    );
    // The peak is also published as a registry gauge.
    let peak = report
        .snapshot
        .gauge("rlnc.redundancy.peak_extra")
        .expect("gauge registered");
    assert!(peak > 0.0, "peak redundancy gauge rose: {peak}");
}

/// The benchmark's operating point, with duplication and reordering on
/// top: 1 MiB of MTU-sized blocks at the configured 200 Mbit/s, where no
/// pacing gap hides what the source does between generations. The source
/// must keep up with its own schedule while repairs interleave, and do it
/// without flooding the wire.
#[test]
fn full_rate_megabyte_survives_chaos_within_its_wire_budget() {
    let seed = chaos_seed().wrapping_add(2);
    let config = TransferConfig {
        session: SessionId::new(14),
        generation: GenerationConfig::new(1460, 4).unwrap(),
        redundancy: RedundancyPolicy::NC0,
        rate_bps: 200e6,
        seed,
    };
    let object: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect();
    let faults = [Some(
        FaultConfig::new(seed)
            .with_drop(0.10)
            .with_duplicate(0.05)
            .with_reorder(0.05)
            .with_directions(true, true),
    )];

    let report = reliable_chain(
        &config,
        &RecoveryConfig::default(),
        &object,
        &faults,
        Duration::from_secs(60),
    )
    .expect("chain runs")
    .expect("transfer completes despite chaos");

    assert_eq!(report.receiver.object, object, "byte-identical object");
    assert_eq!(report.source.unrecovered, 0, "nothing was abandoned");
    let fs = report.faults[0].expect("the relay is faulted");
    assert!(
        fs.dropped > 0 && fs.duplicated > 0 && fs.reordered > 0,
        "every pathology fired: {fs:?}"
    );
    // 19 % end-to-end loss needs 1 / (1 - 0.19) = 1.23x; duplicates and
    // reordering provoke a few repairs nobody needed on top. This count
    // is the regression gate on the recovery protocol's wire cost.
    let wire = report.source.initial_packets + report.source.retransmit_packets;
    let blocks = object.len().div_ceil(1460) as u64;
    let delay = report.snapshot.histogram("recovery.nack_delay_ns").unwrap();
    let nack_delay = Duration::from_nanos(delay.quantile(0.5));
    let estimate = report.snapshot.gauge("recovery.loss_estimate").unwrap();
    println!(
        "generational: {wire} packets for {blocks} blocks = {:.3}x in {:?}; \
         NACK delay p50 {nack_delay:?}, loss estimate {estimate:.3}",
        wire as f64 / blocks as f64,
        report.receiver.elapsed
    );
    assert!(
        wire * 100 <= blocks * 145,
        "{wire} packets for {blocks} source blocks is over 1.45x: {:?}",
        report.source
    );
    // The receiver asked on evidence, not on its timer.
    assert!(
        nack_delay < RecoveryConfig::default().decode_timeout / 4,
        "median NACK delay {nack_delay:?}"
    );
}

/// The same operating point over the sliding-window framing: systematic
/// symbols, cumulative acks, repair bursts over the live window, through
/// a relay that drops 10 % each way. It had never been put through this
/// path; its wire cost is printed beside the generational one's.
#[test]
fn windowed_megabyte_survives_a_lossy_relay() {
    let seed = chaos_seed().wrapping_add(3);
    let config = TransferConfig {
        session: SessionId::new(15),
        generation: GenerationConfig::new(1460, 4).unwrap(),
        redundancy: RedundancyPolicy::NC0,
        rate_bps: 200e6,
        seed,
    };
    // The relay recodes over its default 32-symbol window and hears no
    // acks here (feedback goes straight to the source), so the source's
    // window must not outgrow it.
    let window = WindowConfig::new(1460, 32).unwrap();
    let recovery = RecoveryConfig::default();
    let data: Vec<u8> = (0..718 * 1460u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
        .collect();
    let symbols = (data.len() / 1460) as u64;

    let source = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let obs = TransferObs::new();
    let receiver = ReliableReceiver::spawn_window(
        &config,
        window,
        &recovery,
        symbols,
        source.local_addr().unwrap(),
        &obs,
    )
    .unwrap();
    let fault = FaultConfig::new(seed)
        .with_drop(0.10)
        .with_directions(true, true);
    let (data_socket, faults) = FaultSocket::bind_loopback(fault).unwrap();
    let control_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let relay_config = RelayConfig {
        generation: config.generation,
        heartbeat: None,
        registry: None,
        ..RelayConfig::default()
    };
    let relay = RelayNode::spawn_with(relay_config, data_socket, control_socket).unwrap();
    let control = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    control
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut table = ForwardingTable::new();
    table.set(config.session, vec![receiver.addr.to_string()]);
    relay
        .wire(&control, config.session, VnfRoleWire::Recoder, &table)
        .unwrap();

    let hops = [relay.data_addr];
    let stats =
        send_window_reliable(&source, &config, window, &recovery, &data, &hops, &obs).unwrap();
    let report = receiver
        .wait(Duration::from_secs(60))
        .expect("stream completes");
    relay.shutdown();

    assert_eq!(report.object, data, "byte-identical in-order delivery");
    assert_eq!(stats.unrecovered, 0, "every symbol acknowledged");
    assert!(faults.stats().dropped > 0, "faults actually fired");
    assert!(report.stats.nacks_sent > 0 && stats.retransmit_packets > 0);
    let wire = stats.initial_packets + stats.retransmit_packets;
    println!(
        "windowed: {wire} packets for {symbols} symbols = {:.3}x in {:?}, {} NACKs, {} rounds",
        wire as f64 / symbols as f64,
        report.elapsed,
        report.stats.nacks_sent,
        stats.retransmit_rounds
    );
    // A gap is asked for when a symbol beyond the cursor shows it, not
    // when the source's window has filled and the stream has stalled for
    // `decode_timeout`.
    let delay = obs.snapshot();
    let delay = delay.histogram("recovery.nack_delay_ns").unwrap();
    let median = Duration::from_nanos(delay.quantile(0.5));
    assert!(
        median < recovery.decode_timeout / 4,
        "median NACK delay {median:?}"
    );
}
