//! Fig. 7 — butterfly throughput over time: NC vs non-NC vs direct TCP.
//!
//! The paper: rerouting through the relays beats direct connections;
//! enabling coding pushes throughput to ≈ the Ford–Fulkerson bound of
//! 69.9 Mbps while non-NC relays sit in between and direct TCP lags.

use crate::butterfly::{
    routing_capacity_mbps, run_for, theoretical_capacity_mbps, ButterflyParams, LINK_BPS,
};
use crate::report::{fmt, render_csv, render_table, ExperimentResult};
use ncvnf_netsim::tcp::{TcpReceiver, TcpSender, TCP_PORT};
use ncvnf_netsim::{Addr, LinkConfig, SimDuration, SimNodeId, SimTime, Simulator};

/// Direct-TCP baseline: two independent TCP transfers on the direct
/// links; the session rate is the minimum of the two receivers' goodput
/// series (per 1-second bins, Mbps).
pub fn direct_tcp_series(secs: u64, bytes_per_receiver: u64) -> Vec<f64> {
    let mut sim = Simulator::new(9);
    let s1 = sim.add_node(
        "V1a",
        TcpSender::new(Addr::new(SimNodeId(2), TCP_PORT), bytes_per_receiver),
    );
    let s2 = sim.add_node(
        "V1b",
        TcpSender::new(Addr::new(SimNodeId(3), TCP_PORT), bytes_per_receiver),
    );
    let r1 = sim.add_node("O2", TcpReceiver::new(SimDuration::from_secs(1)));
    let r2 = sim.add_node("C2", TcpReceiver::new(SimDuration::from_secs(1)));
    // BDP-scale buffers for the TCP path (34.95 Mbps x ~91 ms RTT ≈
    // 400 KB): TCP needs the classic bandwidth-delay product of queueing
    // to absorb slow-start bursts, unlike the coded path where drops of
    // interchangeable packets are harmless.
    let link = |ms: f64| {
        LinkConfig::new(LINK_BPS, SimDuration::from_secs_f64(ms / 1000.0))
            .with_queue_bytes(512 * 1024)
    };
    sim.add_link(s1, r1, link(45.44));
    sim.add_link(r1, s1, link(45.44));
    sim.add_link(s2, r2, link(38.51));
    sim.add_link(r2, s2, link(38.51));
    sim.run_until(SimTime::from_secs(secs));
    let a = sim.node_as::<TcpReceiver>(r1).expect("rx1").series().mbps();
    let b = sim.node_as::<TcpReceiver>(r2).expect("rx2").series().mbps();
    (0..secs as usize)
        .map(|i| {
            let x = a.get(i).map(|&(_, v)| v).unwrap_or(0.0);
            let y = b.get(i).map(|&(_, v)| v).unwrap_or(0.0);
            x.min(y)
        })
        .collect()
}

/// Runs all three transports and renders the timeline.
pub fn run(quick: bool) -> ExperimentResult {
    let secs = if quick { 10 } else { 40 };
    // Size the object to outlast the measurement window (~70 Mbps x secs).
    let object = 11_000_000 * secs as usize;

    let nc = run_for(
        &ButterflyParams {
            object_len: object,
            ..Default::default()
        },
        secs,
    );
    let plain = run_for(
        &ButterflyParams {
            object_len: object,
            coding: false,
            systematic_source: true,
            ..Default::default()
        },
        secs,
    );
    let tcp = direct_tcp_series(secs, object as u64 / 2);

    let cap = theoretical_capacity_mbps(LINK_BPS);
    let bins = secs as usize;
    let mut rows = Vec::with_capacity(bins);
    for i in 0..bins {
        rows.push(vec![
            (i + 1).to_string(),
            fmt(*nc.throughput_series_mbps.get(i).unwrap_or(&0.0), 2),
            fmt(*plain.throughput_series_mbps.get(i).unwrap_or(&0.0), 2),
            fmt(*tcp.get(i).unwrap_or(&0.0), 2),
        ]);
    }
    let headers = ["time_s", "nc_mbps", "non_nc_mbps", "direct_tcp_mbps"];
    let mut rendered = String::new();
    rendered.push_str(&format!(
        "theoretical maximum (Ford-Fulkerson): {} Mbps; routing-only bound (Steiner packing): {} Mbps\n",
        fmt(cap, 1),
        fmt(routing_capacity_mbps(LINK_BPS), 1)
    ));
    rendered.push_str(&render_table(&headers, &rows));
    let tcp_mean = if bins > 2 {
        tcp[2..].iter().sum::<f64>() / (bins - 2) as f64
    } else {
        0.0
    };
    rendered.push_str(&format!(
        "\nsteady means: NC {} | non-NC {} | direct TCP {} (Mbps); paper: NC ~65-70 > non-NC > TCP\n",
        fmt(nc.steady_mbps, 2),
        fmt(plain.steady_mbps, 2),
        fmt(tcp_mean, 2),
    ));
    ExperimentResult {
        id: "fig7".into(),
        title: "Fig. 7: butterfly throughput over time (NC / non-NC / direct TCP)".into(),
        rendered,
        csv: render_csv(&headers, &rows),
    }
}
