//! Alg. 1's kept-program re-solve returns bit for bit what a fresh
//! `Planner::plan` returns on the changed topology, and both match
//! digests captured from `Planner::plan` before the controller kept its
//! programs: a change to the order of arithmetic anywhere in the planner
//! fails here.

use ncvnf_deploy::presets::random_workload;
use ncvnf_deploy::{
    Deployment, KeptProgram, NodeKind, Planner, ScalingController, ScalingParams, Topology, VnfSpec,
};
use ncvnf_flowgraph::NodeId;

const ALPHA: f64 = 20e6;

/// Capability changes applied in turn: (data-center index, factor on
/// B_in and B_out, factor on C).
const STEPS: [(usize, f64, f64); 8] = [
    (0, 0.5, 1.0),
    (2, 0.7, 0.8),
    (0, 1.3, 1.0),
    (4, 0.4, 0.4),
    (1, 1.5, 1.2),
    (2, 0.9, 1.0),
    (5, 0.6, 1.0),
    (4, 2.0, 2.0),
];

/// (seed of `random_workload(3, 920e6, 150.0, seed)`, digest of the
/// fresh plans over `STEPS`).
const PLAN_DIGESTS: [(u64, u64); 4] = [
    (3, 17892483714594917195),
    (11, 1704282840508521804),
    (29, 3695463520474743370),
    (2017, 17500643940190382382),
];

/// (seed, digest of the controller's deployments and history over
/// `STEPS`).
const CONTROLLER_DIGESTS: [(u64, u64); 4] = [
    (3, 11979429829207970966),
    (11, 10373719662113233130),
    (29, 2695041787008681686),
    (2017, 1453418999762769868),
];

/// 64-bit FNV-1a, folded one word at a time.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, words: impl IntoIterator<Item = u64>) {
        for word in words {
            for byte in word.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// Every figure of a deployment in a fixed order: VNF counts by data
/// center, session rates, then each session's edge rates by edge.
fn words(dep: &Deployment) -> Vec<u64> {
    let mut out = Vec::new();
    let mut vnfs: Vec<_> = dep.vnfs.iter().map(|(n, &c)| (n.0 as u64, c)).collect();
    vnfs.sort_unstable();
    for (n, c) in vnfs {
        out.extend([n, c]);
    }
    out.extend(dep.rates.iter().map(|r| r.to_bits()));
    for ef in &dep.edge_rates {
        let mut edges: Vec<_> = ef.iter().map(|(e, r)| (e.0 as u64, r.to_bits())).collect();
        edges.sort_unstable();
        out.push(edges.len() as u64);
        for (e, r) in edges {
            out.extend([e, r]);
        }
    }
    out
}

fn scaled(topo: &Topology, dc: NodeId, factor: f64, coding_factor: f64) -> VnfSpec {
    let s = topo.vnf_spec(dc);
    VnfSpec {
        bin_bps: s.bin_bps * factor,
        bout_bps: s.bout_bps * factor,
        coding_bps: s.coding_bps * coding_factor,
    }
}

#[test]
fn kept_resolve_is_bit_identical_to_a_fresh_plan() {
    let planner = Planner::new();
    for (seed, want) in PLAN_DIGESTS {
        let w = random_workload(3, 920e6, 150.0, seed);
        let mut topo = w.topology;
        let dcs = topo.data_centers();
        let mut kept = KeptProgram::new(&planner, &topo, &w.sessions, ALPHA).unwrap();
        let mut digest = Digest::new();
        for (i, factor, coding_factor) in STEPS {
            let spec = scaled(&topo, dcs[i], factor, coding_factor);
            topo.kinds[dcs[i].0] = NodeKind::DataCenter { vnf: spec };
            kept.set_vnf_spec(dcs[i], &spec);
            let fresh = planner.plan(&topo, &w.sessions, ALPHA).unwrap();
            let resolved = kept.plan().unwrap();
            assert_eq!(words(&resolved), words(&fresh), "seed {seed}, step {i}");
            digest.fold(words(&fresh));
        }
        assert_eq!(digest.0, want, "seed {seed}: a planned figure moved");
    }
}

/// The controller's Alg. 1 path, one change per tick: every adopted
/// deployment and every snapshot after the from-scratch `replan`.
#[test]
fn controller_resolves_match_their_digests() {
    let params = ScalingParams {
        alpha: ALPHA,
        rho1: 0.05,
        tau1_secs: 60.0,
        rho2: 0.05,
        tau2_secs: 60.0,
        pool_tau_secs: 120.0,
        launch_latency_secs: 0.0,
    };
    for (seed, want) in CONTROLLER_DIGESTS {
        let w = random_workload(3, 920e6, 150.0, seed);
        let dcs = w.topology.data_centers();
        let mut c = ScalingController::new(w.topology, Planner::new(), params);
        for s in w.sessions {
            c.session_join(s, 0.0).unwrap();
        }
        // Joins plan against residual capacity; replan makes the start
        // a from-scratch plan over all three sessions.
        c.replan(0.0).unwrap();
        let start = c.history().len() - 1;
        let mut digest = Digest::new();
        let mut now = 0.0;
        for (i, factor, coding_factor) in STEPS {
            let spec = scaled(c.topology(), dcs[i], factor, coding_factor);
            c.observe_bandwidth(dcs[i], spec, now + 10.0);
            c.observe_bandwidth(dcs[i], spec, now + 80.0);
            c.tick(now + 90.0).unwrap();
            assert_eq!(c.topology().vnf_spec(dcs[i]), spec, "seed {seed}, step {i}");
            digest.fold(words(c.deployment().unwrap()));
            now += 100.0;
        }
        for snap in &c.history()[start..] {
            digest.fold([
                snap.time.to_bits(),
                snap.total_rate_bps.to_bits(),
                snap.active_vnfs,
            ]);
        }
        assert_eq!(digest.0, want, "seed {seed}: a controller figure moved");
    }
}
