//! Chaos experiment: a multi-hop reliable transfer through relays whose
//! sockets drop, duplicate and reorder datagrams on every hop.
//!
//! This is the repo's netem stand-in for the paper's loss experiments
//! (Figs. 8–9): with 10% seeded loss (+ duplication and reordering) on
//! each of the three hops, the feedback protocol — NACKs on decode
//! stalls, fresh-combination retransmissions with bounded backoff, AIMD
//! redundancy — must still deliver the object byte-identically.
//!
//! The fault seed is pinned (override with `NCVNF_CHAOS_SEED`) so CI
//! failures replay exactly.

use std::time::Duration;

use ncvnf_relay::{reliable_chain, FaultConfig, RecoveryConfig, TransferConfig};
use ncvnf_rlnc::{AimdConfig, GenerationConfig, RedundancyPolicy, SessionId};

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
        aimd: AimdConfig::default(),
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

/// Under sustained loss the AIMD controller must actually raise the
/// redundancy above its floor (and report the peak), so the source
/// front-loads extra combinations instead of relying on round trips.
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
    assert!(
        report.source.peak_extra > 0,
        "AIMD redundancy rose above the NC0 floor: {:?}",
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
    let wire = report.source.initial_packets + report.source.retransmit_packets;
    let blocks = object.len().div_ceil(1460) as u64;
    assert!(
        wire * 10 <= blocks * 22,
        "{wire} packets for {blocks} source blocks is over 2.2x: {:?}",
        report.source
    );
}
