//! Building optimization program (2) from the model.

use std::collections::{BTreeMap, HashMap};

use ncvnf_flowgraph::paths::PathRoute;
use ncvnf_flowgraph::paths::{feasible_paths, PathLimits};
use ncvnf_flowgraph::{EdgeId, EdgeRef, NodeId};
use ncvnf_simplex::{ConstraintId, LinearProgram, Relation, VarId};

use crate::model::{SessionSpec, Topology, VnfSpec};
use crate::solve::SolveMode;

/// Cap on VNFs per data center (keeps branch-and-bound and rounding
/// bounded; far above anything the evaluation provisions).
const MAX_VNFS_PER_DC: u64 = 64;

/// Rate variables inside the LP are denominated in Mbps (bps × this
/// scale). Mixing unit-scale path coefficients with 1e9-scale bandwidth
/// caps in one dense tableau wrecks the simplex conditioning; in Mbps
/// everything lives within a few orders of magnitude.
pub const RATE_SCALE: f64 = 1e-6;

/// Feasible paths for one session: `per_receiver[k]` lists the paths from
/// the source to receiver `k` within the session's delay bound.
#[derive(Debug, Clone)]
pub struct SessionPaths {
    /// Paths per receiver index.
    pub per_receiver: Vec<Vec<PathRoute>>,
}

impl SessionPaths {
    /// True if some receiver has no feasible path at all.
    pub fn has_unreachable_receiver(&self) -> bool {
        self.per_receiver.iter().any(|p| p.is_empty())
    }
}

/// Enumerates the delay-bounded feasible path set of a session (the
/// paper's modified DFS), with the given hop/count limits.
pub fn enumerate_session_paths(
    topo: &Topology,
    spec: &SessionSpec,
    max_hops: usize,
    max_paths: usize,
) -> SessionPaths {
    let limits = PathLimits {
        max_delay: spec.max_delay_ms,
        max_hops,
        max_paths,
    };
    SessionPaths {
        per_receiver: spec
            .receivers
            .iter()
            .map(|&d| feasible_paths(&topo.graph, spec.source, d, &limits))
            .collect(),
    }
}

/// Variable handles of a built program.
#[derive(Debug)]
pub struct ProgramVars {
    /// λ_m per session.
    pub lambda: Vec<VarId>,
    /// f^k_m(p): `[session][receiver][path]`.
    pub path_flow: Vec<Vec<Vec<VarId>>>,
    /// f_m(e): per session, per edge used by that session (ordered for
    /// deterministic constraint construction).
    pub edge_flow: Vec<BTreeMap<EdgeId, VarId>>,
    /// x_v per data center (ordered).
    pub x: BTreeMap<NodeId, VarId>,
}

/// The rows of a built program that carry one data center's per-VNF
/// capabilities as the coefficient of its `x_v`. A row is absent when no
/// session edge enters (`bin`, `coding`) or leaves (`bout`) the data
/// center.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityRows {
    /// (2c), coefficient `−B_in(v)`.
    pub bin: Option<ConstraintId>,
    /// (2e), coefficient `−C(v)`.
    pub coding: Option<ConstraintId>,
    /// (2d), coefficient `−B_out(v)`.
    pub bout: Option<ConstraintId>,
}

/// A fully built instance of program (2).
#[derive(Debug)]
pub struct Program {
    /// The LP (maximization).
    pub lp: LinearProgram,
    /// Variable handles.
    pub vars: ProgramVars,
    /// Capacity rows per data center.
    pub capacity: BTreeMap<NodeId, CapacityRows>,
    /// Under [`SolveMode::FixedDeployment`], the `x_v = count` row per
    /// data center; empty in the other modes.
    pub pinned: BTreeMap<NodeId, ConstraintId>,
}

impl Program {
    /// Rewrites data center `dc`'s capability coefficients to `spec`'s,
    /// exactly the values a fresh build over a topology holding `spec`
    /// writes.
    ///
    /// # Panics
    ///
    /// Panics if `dc` is not a data center of the built topology.
    pub fn set_vnf_spec(&mut self, dc: NodeId, spec: &VnfSpec) {
        let x = self.vars.x[&dc];
        let rows = self.capacity[&dc];
        for (row, bps) in [
            (rows.bin, spec.bin_bps),
            (rows.coding, spec.coding_bps),
            (rows.bout, spec.bout_bps),
        ] {
            if let Some(row) = row {
                self.lp.set_coefficient(row, x, capacity_coeff(bps));
            }
        }
    }

    /// Rewrites the pinned VNF count of `dc` (a program built under
    /// [`SolveMode::FixedDeployment`]).
    ///
    /// # Panics
    ///
    /// Panics if the program pins no count for `dc`.
    pub fn set_pinned(&mut self, dc: NodeId, count: u64) {
        self.lp.set_rhs(self.pinned[&dc], count as f64);
    }
}

/// The coefficient of `x_v` in a capacity row: one VNF's `bps`, moved to
/// the left-hand side.
fn capacity_coeff(bps: f64) -> f64 {
    -bps * RATE_SCALE
}

/// Residual capacity already available at a data center without deploying
/// any new VNF — the "surplus capacity of existing VNFs" exploited by the
/// incremental solves of Algorithm 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DcSlack {
    /// Unused inbound bandwidth (bps) across existing VNFs.
    pub in_bps: f64,
    /// Unused outbound bandwidth (bps).
    pub out_bps: f64,
    /// Unused coding capacity (bps).
    pub coding_bps: f64,
}

/// Builds program (2) over the given sessions and their feasible paths.
///
/// # Panics
///
/// Panics if `sessions` and `paths` lengths differ.
pub fn build_program(
    topo: &Topology,
    sessions: &[SessionSpec],
    paths: &[SessionPaths],
    mode: &SolveMode,
) -> Program {
    build_program_with_slack(topo, sessions, paths, mode, &HashMap::new())
}

/// [`build_program`] with per-DC residual capacity: the capacity
/// constraints become `Σ f ≤ cap·x_v + slack`, so `x_v` counts only
/// *additional* VNFs beyond what already serves other sessions.
///
/// # Panics
///
/// Panics if `sessions` and `paths` lengths differ.
pub fn build_program_with_slack(
    topo: &Topology,
    sessions: &[SessionSpec],
    paths: &[SessionPaths],
    mode: &SolveMode,
    slack: &HashMap<NodeId, DcSlack>,
) -> Program {
    assert_eq!(sessions.len(), paths.len(), "paths per session required");
    let mut lp = LinearProgram::new();
    let dcs = topo.data_centers();

    // --- Variables ---
    let lambda: Vec<VarId> = sessions.iter().map(|_| lp.add_var("lambda", 1.0)).collect();
    let mut path_flow = Vec::with_capacity(sessions.len());
    let mut edge_flow: Vec<BTreeMap<EdgeId, VarId>> = Vec::with_capacity(sessions.len());
    for sp in paths {
        let mut per_k = Vec::with_capacity(sp.per_receiver.len());
        let mut edges: BTreeMap<EdgeId, VarId> = BTreeMap::new();
        for routes in &sp.per_receiver {
            let mut per_p = Vec::with_capacity(routes.len());
            for route in routes {
                per_p.push(lp.add_var("path_flow", 0.0));
                for &e in &route.edges {
                    edges
                        .entry(e)
                        .or_insert_with(|| lp.add_var("edge_flow", 0.0));
                }
            }
            per_k.push(per_p);
        }
        path_flow.push(per_k);
        edge_flow.push(edges);
    }
    let mut x: BTreeMap<NodeId, VarId> = BTreeMap::new();
    let alpha = match mode {
        SolveMode::Joint { alpha } => *alpha * RATE_SCALE,
        SolveMode::FixedDeployment { .. } => 0.0,
        SolveMode::MinimizeVnfs { .. } => 0.0,
    };
    for &v in &dcs {
        let var = lp.add_var("x", -alpha);
        lp.set_upper_bound(var, MAX_VNFS_PER_DC as f64);
        x.insert(v, var);
    }

    // Mode-specific objective/constraints on λ and x.
    let mut pinned = BTreeMap::new();
    match mode {
        SolveMode::Joint { .. } => {}
        SolveMode::FixedDeployment { x: fixed } => {
            for (&v, &var) in &x {
                let val = *fixed.get(&v).unwrap_or(&0) as f64;
                pinned.insert(v, lp.add_constraint(&[(var, 1.0)], Relation::Eq, val));
            }
        }
        SolveMode::MinimizeVnfs { rates } => {
            // λ pinned; objective = −Σ x (maximized).
            assert_eq!(rates.len(), sessions.len(), "one rate per session");
            for (m, &rate) in rates.iter().enumerate() {
                lp.add_constraint(&[(lambda[m], 1.0)], Relation::Eq, rate * RATE_SCALE);
                lp.set_objective_coeff(lambda[m], 0.0);
            }
            for &var in x.values() {
                lp.set_objective_coeff(var, -1.0);
            }
        }
    }

    // Pinned-rate sessions (live streaming) in any mode.
    if !matches!(mode, SolveMode::MinimizeVnfs { .. }) {
        for (m, s) in sessions.iter().enumerate() {
            if let Some(rate) = s.fixed_rate_bps {
                lp.add_constraint(&[(lambda[m], 1.0)], Relation::Eq, rate * RATE_SCALE);
            }
        }
    }

    // One term buffer serves every constraint below.
    let mut terms: Vec<(VarId, f64)> = Vec::new();

    // --- (2a): λ_m ≤ Σ_p f^k_m(p) for every receiver k ---
    for (m, per_k) in path_flow.iter().enumerate() {
        for per_p in per_k {
            terms.clear();
            terms.push((lambda[m], 1.0));
            terms.extend(per_p.iter().map(|&var| (var, -1.0)));
            lp.add_constraint(&terms, Relation::Le, 0.0);
        }
    }

    // --- (2b): Σ_{p ∋ e} f^k_m(p) ≤ f_m(e) ---
    // One row per edge that some path of receiver k uses, in edge order.
    for (m, sp) in paths.iter().enumerate() {
        for (k, routes) in sp.per_receiver.iter().enumerate() {
            for (&e, &edge_var) in &edge_flow[m] {
                terms.clear();
                for (p, route) in routes.iter().enumerate() {
                    for _ in route.edges.iter().filter(|&&pe| pe == e) {
                        terms.push((path_flow[m][k][p], 1.0));
                    }
                }
                if !terms.is_empty() {
                    terms.push((edge_var, -1.0));
                    lp.add_constraint(&terms, Relation::Le, 0.0);
                }
            }
        }
    }

    // --- (2c), (2d), (2e): per-DC caps scaled by x_v ---
    let mut capacity = BTreeMap::new();
    for &v in &dcs {
        let spec = topo.vnf_spec(v);
        let s = slack.get(&v).copied().unwrap_or_default();
        let mut rows = CapacityRows::default();
        edge_terms(topo, &edge_flow, |edge| edge.to == v, &mut terms);
        if !terms.is_empty() {
            // (2c): Σ f_m(e into v) ≤ B_in(v)·x_v + slack_in
            terms.push((x[&v], capacity_coeff(spec.bin_bps)));
            rows.bin = Some(lp.add_constraint(&terms, Relation::Le, s.in_bps * RATE_SCALE));
            // (2e): Σ f_m(e into v) ≤ C(v)·x_v + slack_coding
            terms.pop();
            terms.push((x[&v], capacity_coeff(spec.coding_bps)));
            rows.coding = Some(lp.add_constraint(&terms, Relation::Le, s.coding_bps * RATE_SCALE));
        }
        edge_terms(topo, &edge_flow, |edge| edge.from == v, &mut terms);
        if !terms.is_empty() {
            // (2d): Σ f_m(e out of v) ≤ B_out(v)·x_v + slack_out
            terms.push((x[&v], capacity_coeff(spec.bout_bps)));
            rows.bout = Some(lp.add_constraint(&terms, Relation::Le, s.out_bps * RATE_SCALE));
        }
        capacity.insert(v, rows);
    }

    // --- (2c'): receiver inbound caps, per session+receiver ---
    for (m, s) in sessions.iter().enumerate() {
        let session_edges = std::slice::from_ref(&edge_flow[m]);
        for &d in &s.receivers {
            edge_terms(topo, session_edges, |edge| edge.to == d, &mut terms);
            if !terms.is_empty() {
                lp.add_constraint(&terms, Relation::Le, topo.receiver_in_bps(d) * RATE_SCALE);
            }
        }
    }

    // --- (2d'): source outbound caps ---
    for (m, s) in sessions.iter().enumerate() {
        let session_edges = std::slice::from_ref(&edge_flow[m]);
        edge_terms(
            topo,
            session_edges,
            |edge| edge.from == s.source,
            &mut terms,
        );
        if !terms.is_empty() {
            lp.add_constraint(
                &terms,
                Relation::Le,
                topo.source_out_bps(s.source) * RATE_SCALE,
            );
        }
    }

    Program {
        lp,
        vars: ProgramVars {
            lambda,
            path_flow,
            edge_flow,
            x,
        },
        capacity,
        pinned,
    }
}

/// Refills `terms` with `(f_m(e), 1)` for every edge variable in
/// `edge_flow` whose edge passes `keep`, in session then edge order.
fn edge_terms(
    topo: &Topology,
    edge_flow: &[BTreeMap<EdgeId, VarId>],
    keep: impl Fn(&EdgeRef) -> bool,
    terms: &mut Vec<(VarId, f64)>,
) {
    terms.clear();
    for ef in edge_flow {
        for (&e, &var) in ef {
            if keep(&topo.graph.edge(e)) {
                terms.push((var, 1.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TopologyBuilder;
    use ncvnf_rlnc::SessionId;

    fn tiny() -> (Topology, SessionSpec) {
        let mut b = TopologyBuilder::new();
        let dc = b.data_center(
            "dc",
            VnfSpec {
                bin_bps: 100.0,
                bout_bps: 100.0,
                coding_bps: 100.0,
            },
        );
        let s = b.source("s", 50.0);
        let r = b.receiver("r", 200.0);
        b.link(s, dc, 10.0).link(dc, r, 10.0).link(s, r, 100.0);
        let topo = b.build();
        let spec = SessionSpec::elastic(SessionId::new(1), s, vec![r], 150.0);
        (topo, spec)
    }

    #[test]
    fn path_enumeration_respects_delay_bound() {
        let (topo, mut spec) = tiny();
        let paths = enumerate_session_paths(&topo, &spec, 5, 16);
        assert_eq!(paths.per_receiver[0].len(), 2); // relayed + direct
        spec.max_delay_ms = 50.0;
        let paths = enumerate_session_paths(&topo, &spec, 5, 16);
        assert_eq!(paths.per_receiver[0].len(), 1); // direct too slow
        assert!(!paths.has_unreachable_receiver());
        spec.max_delay_ms = 5.0;
        let paths = enumerate_session_paths(&topo, &spec, 5, 16);
        assert!(paths.has_unreachable_receiver());
    }

    #[test]
    fn program_builds_and_solves() {
        let (topo, spec) = tiny();
        let paths = enumerate_session_paths(&topo, &spec, 5, 16);
        let prog = build_program(&topo, &[spec], &[paths], &SolveMode::Joint { alpha: 0.0 });
        let sol = prog.lp.solve().unwrap();
        // The source cap (50 bps) bounds everything; LP variables are in
        // scaled units.
        let lam = sol.value(prog.vars.lambda[0]) / RATE_SCALE;
        assert!((lam - 50.0).abs() < 1e-3, "lambda {lam}");
    }

    #[test]
    fn alpha_penalizes_deployment() {
        let (topo, mut spec) = tiny();
        // Force the relayed path (direct too slow).
        spec.max_delay_ms = 50.0;
        let paths = enumerate_session_paths(&topo, &spec, 5, 16);
        // With huge alpha the optimum is to deploy nothing and carry
        // nothing.
        let prog = build_program(
            &topo,
            &[spec.clone()],
            std::slice::from_ref(&paths),
            &SolveMode::Joint { alpha: 1000.0 },
        );
        let sol = prog.lp.solve().unwrap();
        assert!(sol.value(prog.vars.lambda[0]) / RATE_SCALE < 1e-3);
        // With alpha 0 the relayed path carries the full 50.
        let prog = build_program(&topo, &[spec], &[paths], &SolveMode::Joint { alpha: 0.0 });
        let sol = prog.lp.solve().unwrap();
        assert!((sol.value(prog.vars.lambda[0]) / RATE_SCALE - 50.0).abs() < 1e-3);
        let dc = topo.data_centers()[0];
        assert!(sol.value(prog.vars.x[&dc]) >= 0.5 - 1e-6); // 50/100 of a VNF
    }

    #[test]
    fn rewritten_program_matches_a_fresh_build() {
        let (mut topo, spec) = tiny();
        let paths = enumerate_session_paths(&topo, &spec, 5, 16);
        let dc = topo.data_centers()[0];
        let pin = |n| SolveMode::FixedDeployment {
            x: HashMap::from([(dc, n)]),
        };
        let sessions = std::slice::from_ref(&spec);
        let mut kept = build_program(&topo, sessions, std::slice::from_ref(&paths), &pin(0));
        let rows = kept.capacity[&dc];
        assert!(rows.bin.is_some() && rows.coding.is_some() && rows.bout.is_some());
        let cut = VnfSpec {
            bin_bps: 50.0,
            bout_bps: 40.0,
            coding_bps: 30.0,
        };
        kept.set_vnf_spec(dc, &cut);
        kept.set_pinned(dc, 2);
        topo.kinds[dc.0] = crate::model::NodeKind::DataCenter { vnf: cut };
        let fresh = build_program(&topo, sessions, &[paths], &pin(2));
        let (a, b) = (kept.lp.solve().unwrap(), fresh.lp.solve().unwrap());
        let bits = |s: &ncvnf_simplex::Solution| -> Vec<u64> {
            s.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.value(kept.vars.x[&dc]), 2.0);
    }
}
