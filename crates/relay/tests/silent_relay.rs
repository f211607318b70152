//! A poll waits once, however many relays are silent.
//!
//! `Autoscaler::poll` sends every relay's `NC_STATS` query at once through
//! a real `SignalSender`. A relay that never answers costs its exchange the
//! whole retry budget: five 150 ms ACK windows plus 25 + 50 + 100 + 200 ms
//! of backoff, 1,125 ms. Four loopback targets — live relays, and bound
//! sockets that never answer — are polled once with one and then two of
//! them silent. Each poll must end within one budget plus a margin and
//! must have heard every live relay. A sender that waits on one relay at
//! a time takes one budget per silent relay (≈ 2.25 s for two).

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ncvnf_control::{
    AutoscaleConfig, Autoscaler, Journal, RelayTarget, SenderConfig, SignalSender, VnfRoleWire,
};
use ncvnf_deploy::{Planner, ScalingController, ScalingParams, TopologyBuilder, VnfSpec};
use ncvnf_relay::{RelayConfig, RelayNode};

/// What one silent relay costs an exchange.
const BUDGET: Duration = Duration::from_millis(1125);
/// Slack for a loaded test host. Under half a budget, so a poll that
/// waits out two silent relays one after the other fails.
const MARGIN: Duration = Duration::from_millis(500);

/// An autoscaler over one data center per address, one target on each,
/// and its journal's path.
fn autoscaler(addrs: &[SocketAddr], tag: usize) -> (Autoscaler, PathBuf) {
    let spec = VnfSpec {
        bin_bps: 920e6,
        bout_bps: 920e6,
        coding_bps: 1000e6,
    };
    let mut b = TopologyBuilder::new();
    let dcs: Vec<_> = (0..addrs.len())
        .map(|i| b.data_center(format!("dc-{i}"), spec))
        .collect();
    let s = b.source("src", 400e6);
    let r = b.receiver("rx", 400e6);
    for &dc in &dcs {
        b.link(s, dc, 5.0).link(dc, r, 5.0);
    }
    let params = ScalingParams {
        alpha: 20e6,
        rho1: 0.05,
        tau1_secs: 2.0,
        rho2: 0.05,
        tau2_secs: 2.0,
        pool_tau_secs: 60.0,
        launch_latency_secs: 0.0,
    };
    let controller = ScalingController::new(b.build(), Planner::new(), params);
    let wal = std::env::temp_dir().join(format!(
        "ncvnf-silent-relay-{tag}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wal);
    let (journal, _, _) = Journal::open(&wal).unwrap();
    let config = AutoscaleConfig::default();
    let targets = addrs
        .iter()
        .zip(&dcs)
        .enumerate()
        .map(|(node, (&control_addr, &dc))| RelayTarget {
            node: node as u32,
            dc,
            control_addr,
            role: VnfRoleWire::Recoder,
            settings: Vec::new(),
        })
        .collect();
    let auto = Autoscaler::new(controller, journal, targets, HashMap::new(), config);
    (auto, wal)
}

#[test]
fn a_poll_waits_once_however_many_relays_are_silent() {
    let relays: Vec<RelayNode> = (0..3)
        .map(|_| RelayNode::spawn(RelayConfig::default()).unwrap())
        .collect();
    let silent: Vec<UdpSocket> = (0..2)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)).unwrap())
        .collect();
    for quiet in [1, 2] {
        let live = 4 - quiet;
        let mut addrs: Vec<SocketAddr> = relays[..live].iter().map(|r| r.control_addr).collect();
        addrs.extend(silent[..quiet].iter().map(|s| s.local_addr().unwrap()));
        let (mut auto, wal) = autoscaler(&addrs, quiet);
        let mut sender = SignalSender::new(1, SenderConfig::default()).unwrap();
        let started = Instant::now();
        let report = auto.poll(&mut sender, 1.0).unwrap();
        let wall = started.elapsed();
        drop(auto);
        let _ = std::fs::remove_file(wal);
        println!(
            "silent_relay: {quiet} of 4 silent: poll {:.0} ms, {} polled, {} unreachable",
            wall.as_secs_f64() * 1e3,
            report.polled,
            report.unreachable
        );
        assert_eq!(report.polled, live as u32, "every live relay is heard");
        assert_eq!(report.unreachable, quiet as u32);
        assert!(
            wall < BUDGET + MARGIN,
            "{quiet} silent relays cost the poll {wall:?}: more than one {BUDGET:?} budget"
        );
    }
    for relay in relays {
        relay.shutdown();
    }
}
