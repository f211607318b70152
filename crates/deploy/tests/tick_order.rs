//! Changes that fall due in one `ScalingController::tick` apply in key
//! order, so every controller fed the same events ends in the same state.

use ncvnf_deploy::{
    Deployment, Planner, ScalingController, ScalingParams, SessionSpec, TopologyBuilder, VnfSpec,
};
use ncvnf_flowgraph::NodeId;
use ncvnf_rlnc::SessionId;

fn spec(bps: f64) -> VnfSpec {
    VnfSpec {
        bin_bps: bps,
        bout_bps: bps,
        coding_bps: bps,
    }
}

/// src → dc-a → dc-b → rx, one elastic session, 4 VNFs at each hop. A
/// rise at dc-a adopted before a fall at dc-b passes through a plan with
/// 3 + 4 VNFs; the other order passes through 4 + 8, and the pools and
/// `history` record which one ran.
fn controller() -> (ScalingController, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let dc_a = b.data_center("dc-a", spec(100e6));
    let dc_b = b.data_center("dc-b", spec(100e6));
    let s = b.source("src", 400e6);
    let r = b.receiver("rx", 400e6);
    b.link(s, dc_a, 5.0)
        .link(dc_a, dc_b, 5.0)
        .link(dc_b, r, 5.0);
    let params = ScalingParams {
        alpha: 20e6,
        rho1: 0.05,
        tau1_secs: 60.0,
        rho2: 0.05,
        tau2_secs: 60.0,
        pool_tau_secs: 120.0,
        launch_latency_secs: 0.0,
    };
    let mut c = ScalingController::new(b.build(), Planner::new(), params);
    c.session_join(
        SessionSpec::elastic(SessionId::new(1), s, vec![r], 200.0),
        0.0,
    )
    .unwrap();
    (c, dc_a, dc_b)
}

/// VNF counts by data center, then rate bits.
fn figures(dep: &Deployment) -> (Vec<(NodeId, u64)>, Vec<u64>) {
    let mut vnfs: Vec<_> = dep.vnfs.iter().map(|(&dc, &n)| (dc, n)).collect();
    vnfs.sort_unstable();
    (vnfs, dep.rates.iter().map(|r| r.to_bits()).collect())
}

#[test]
fn changes_due_in_one_tick_apply_in_key_order() {
    let runs: Vec<_> = (0..32)
        .map(|_| {
            let (mut c, dc_a, dc_b) = controller();
            for now in [0.0, 40.0, 70.0] {
                c.observe_bandwidth(dc_a, spec(150e6), now);
                c.observe_bandwidth(dc_b, spec(50e6), now);
            }
            c.tick(80.0).unwrap();
            assert_eq!(c.topology().vnf_spec(dc_a), spec(150e6));
            assert_eq!(c.topology().vnf_spec(dc_b), spec(50e6));
            (figures(c.deployment().unwrap()), c.history().to_vec())
        })
        .collect();
    // dc-a comes first: the rise is adopted with 3 + 4 VNFs active, then
    // the fall, whose 4 new VNFs serve from the tick's pool pass on. The
    // other order records 0, 8, 11, 11.
    let (_, history) = &runs[0];
    let active: Vec<u64> = history.iter().map(|s| s.active_vnfs).collect();
    assert_eq!(active, [0, 7, 7, 11], "history {history:?}");
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "controller {i} ended elsewhere");
    }
}
