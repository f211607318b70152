//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`] written to a file; a test holds the two equal.

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20170605;

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// Why it exists, with its loop shape and in-flight count.
    pub why: &'static str,
}

/// The five workloads, in `--workload all` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "relay_mtu",
        why: "Live 1-shard RelayNode on loopback, g=4 x 1460 B (paper default): syscalls, copies, wake-ups and coding all count. Closed loop: 64 datagrams in flight (2 bursts of 32), then 1 for RTT.",
    },
    Workload {
        name: "relay_small",
        why: "Same relay, 64 B blocks: per-packet cost is everything and GF work nil, so lock, syscall and dispatch changes show here first, kernel-tier changes not at all. Closed loop: 64, then 1 in flight.",
    },
    Workload {
        name: "codec_g32",
        why: "One thread, no sockets: encode -> wire -> CodingVnf recode -> wire -> decode -> compare, g=32 x 1460 B. GF kernel and elimination do the work; socket changes must not show. Closed loop, 1 in flight.",
    },
    Workload {
        name: "transfer_lossy",
        why: "Reliable 1 MiB transfers through a relay whose socket drops 10 % each way: NACK timers, pacing and retransmission dominate, data-path speed barely matters. Closed loop, 1 transfer in flight.",
    },
    Workload {
        name: "control_react",
        why: "Autoscaler on 2 live relays, NC_STATS scripted 100 % <-> 30 %: observe -> decide -> fsync -> push. Counts the controller thread's CPU time, not its wait on the shared disk. Closed loop, 1 poll.",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees, gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them, so
/// each is defined per workload (README, "End-to-end metrics"). The
/// bounds are the contract's maximum except where ten-run spreads on
/// this host stayed under a third of a tighter one (README,
/// "Repeatability on this host").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_overhead_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, measured in the traced run; no bound. Which
/// end-to-end metric each should move, on which workload, is in the
/// README's per-layer table.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; its prefix is the layer (`crate[.module]`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn rung(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics. Ladder rungs (one public call timed on
/// seed-derived inputs) are measured in every traced run; metrics
/// observed on a workload itself (`relay.node.*`, `relay.recovery.*`,
/// `relay.chaos.*`, `control.autoscale.*`) read 0 on the workloads that
/// do not execute that layer.
pub const PER_LAYER: [PerLayer; 69] = [
    rung("gf256.bulk.mul_add_1460.gbps", "GB/s", Higher),
    rung("gf256.bulk.mul_1460.gbps", "GB/s", Higher),
    rung("gf256.bulk.mul_add_64.ns_per_call", "ns", Lower),
    rung("gf256.bulk.scalar.mul_add_1460.gbps", "GB/s", Higher),
    rung("gf256.bulk.swar.mul_add_1460.gbps", "GB/s", Higher),
    rung("gf256.bulk.ssse3.mul_add_1460.gbps", "GB/s", Higher),
    rung("gf256.bulk.avx2.mul_add_1460.gbps", "GB/s", Higher),
    rung("gf256.bulk.gfni.mul_add_1460.gbps", "GB/s", Higher),
    rung("rlnc.encode.ns_per_packet.g4", "ns", Lower),
    rung("rlnc.encode.ns_per_packet.g32", "ns", Lower),
    rung("rlnc.recode.ns_per_packet.g4", "ns", Lower),
    rung("rlnc.recode.ns_per_packet.g32", "ns", Lower),
    rung("rlnc.decode.ns_per_packet.g4", "ns", Lower),
    rung("rlnc.decode.ns_per_packet.g32", "ns", Lower),
    rung("rlnc.decode.finish.us_per_generation.g4", "us", Lower),
    rung("rlnc.decode.finish.us_per_generation.g32", "us", Lower),
    rung("rlnc.decode.innovative_ratio.g4", "ratio", Higher),
    rung("rlnc.decode.innovative_ratio.g32", "ratio", Higher),
    rung("rlnc.header.parse.ns_per_packet", "ns", Lower),
    rung("rlnc.header.serialize.ns_per_packet", "ns", Lower),
    rung("rlnc.pool.hit_ratio", "ratio", Higher),
    rung("dataplane.vnf.recode_wire_1460.ns_per_packet", "ns", Lower),
    rung("dataplane.vnf.recode_wire_64.ns_per_packet", "ns", Lower),
    rung("dataplane.vnf.forward_wire.ns_per_packet", "ns", Lower),
    rung("dataplane.vnf.emitted_per_in", "ratio", Lower),
    rung("dataplane.vnf.evictions_per_kpkt", "count", Lower),
    rung("relay.engine.batch_1460.ns_per_packet", "ns", Lower),
    rung("relay.engine.batch_64.ns_per_packet", "ns", Lower),
    rung("relay.engine.step.ns_per_packet", "ns", Lower),
    rung("relay.engine.queued_per_in", "ratio", Lower),
    rung("relay.socket.send_batch_1460.ns_per_packet", "ns", Lower),
    rung("relay.socket.send_batch_64.ns_per_packet", "ns", Lower),
    rung("relay.socket.recv_batch_1460.ns_per_packet", "ns", Lower),
    rung("relay.socket.recv_batch_64.ns_per_packet", "ns", Lower),
    rung("relay.socket.send_to_1460.ns_per_packet", "ns", Lower),
    rung("relay.socket.send_to_64.ns_per_packet", "ns", Lower),
    rung("relay.socket.recv_from_1460.ns_per_packet", "ns", Lower),
    rung("relay.socket.recv_from_64.ns_per_packet", "ns", Lower),
    rung("relay.node.batch_fill", "count", Higher),
    rung("relay.node.out_per_in", "ratio", Lower),
    rung("relay.node.shed_total", "count", Lower),
    rung("relay.node.io_errors", "count", Lower),
    rung("relay.node.batch_ns_p50", "ns", Lower),
    rung("relay.node.hop_rtt_p99_us", "us", Lower),
    rung("relay.node.burst_transit_p50_us", "us", Lower),
    rung("relay.node.residual.ns_per_packet", "ns", Lower),
    rung("relay.recovery.send_call.ms_p50", "ms", Lower),
    rung("relay.recovery.ms_per_generation", "ms", Lower),
    rung("relay.recovery.retransmit_packets", "count", Lower),
    rung("relay.recovery.retransmit_rounds", "count", Lower),
    rung("relay.recovery.nacks_sent", "count", Lower),
    rung("relay.recovery.unrecovered", "count", Lower),
    rung("relay.recovery.peak_extra", "count", Lower),
    rung("relay.chaos.dropped_ratio", "ratio", Lower),
    rung("control.sender.query_stats.us_p50", "us", Lower),
    rung("control.journal.append.ns_per_record", "ns", Lower),
    rung("control.journal.commit.us_p50", "us", Lower),
    rung("control.journal.replay.records_per_s", "1/s", Higher),
    rung("control.sender.push.us_p50", "us", Lower),
    rung("control.autoscale.steady_poll.us_p50", "us", Lower),
    rung("control.autoscale.polls_to_adopt", "count", Lower),
    rung("control.autoscale.react_p50_us", "us", Lower),
    rung("control.autoscale.react_p99_us", "us", Lower),
    rung("control.reconcile.us_p50", "us", Lower),
    rung("deploy.scaling.handle.us_p50", "us", Lower),
    rung("trace.spans", "count", Higher),
    rung("trace.delta_pct", "%", Lower),
    rung("trace.timed_ops_per_s", "1/s", Higher),
    rung("trace.traced_ops_per_s", "1/s", Higher),
];

/// Unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"ncbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"ncbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
