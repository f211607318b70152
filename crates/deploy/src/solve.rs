//! Solving program (2): LP relaxation + rounding, or exact B&B.

use std::collections::HashMap;

use ncvnf_flowgraph::{EdgeId, NodeId};
use ncvnf_simplex::{solve_integer, Solution, SolveError};

use crate::formulate::{build_program, enumerate_session_paths, Program, SessionPaths, RATE_SCALE};
use crate::model::{SessionSpec, Topology, VnfSpec};

/// How the planner treats the VNF-count variables.
#[derive(Debug, Clone)]
pub enum SolveMode {
    /// Joint throughput/cost optimization: `max Σ λ_m − α Σ x_v`.
    Joint {
        /// The throughput-vs-cost conversion factor (bps per VNF).
        alpha: f64,
    },
    /// VNF counts pinned (the paper's "number of VNFs ... is fixed, we can
    /// set α = 0 and find the best routes").
    FixedDeployment {
        /// VNFs per data center.
        x: HashMap<NodeId, u64>,
    },
    /// Session rates pinned; minimize the number of VNFs (the scale-in
    /// branch of Algorithm 3).
    MinimizeVnfs {
        /// Required rate per session (bps), in session order.
        rates: Vec<f64>,
    },
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A receiver has no feasible path within its session's delay bound.
    UnreachableReceiver {
        /// Index of the session in the input slice.
        session_index: usize,
    },
    /// The LP/ILP solver failed.
    Solver(SolveError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnreachableReceiver { session_index } => {
                write!(f, "session {session_index} has an unreachable receiver")
            }
            PlanError::Solver(e) => write!(f, "solver: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<SolveError> for PlanError {
    fn from(e: SolveError) -> Self {
        PlanError::Solver(e)
    }
}

/// A concrete deployment + routing decision.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// VNF instances per data center.
    pub vnfs: HashMap<NodeId, u64>,
    /// Achieved rate per session (bps), in session order.
    pub rates: Vec<f64>,
    /// Session flow per edge: `edge_rates[m][edge]` in bps.
    pub edge_rates: Vec<HashMap<EdgeId, f64>>,
    /// The α used when the objective was computed.
    pub alpha: f64,
}

impl Deployment {
    /// Total VNFs deployed.
    pub fn total_vnfs(&self) -> u64 {
        self.vnfs.values().sum()
    }

    /// Total throughput Σ λ_m in bps.
    pub fn total_rate_bps(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// The paper's objective `Σ λ_m − α Σ x_v` (bps units; α is bps per
    /// VNF).
    pub fn objective(&self) -> f64 {
        self.total_rate_bps() - self.alpha * self.total_vnfs() as f64
    }
}

/// Planner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Maximum hops per feasible path.
    pub max_hops: usize,
    /// Maximum feasible paths per (source, receiver) pair.
    pub max_paths: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_hops: 5,
            max_paths: 24,
        }
    }
}

/// Solves program (2) over a [`Topology`].
#[derive(Debug, Clone, Default)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// A planner with default path limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// A planner with explicit path limits.
    pub fn with_config(config: PlannerConfig) -> Self {
        Planner { config }
    }

    /// Enumerates feasible paths for every session.
    ///
    /// # Errors
    ///
    /// [`PlanError::UnreachableReceiver`] if a receiver has no path.
    pub fn paths(
        &self,
        topo: &Topology,
        sessions: &[SessionSpec],
    ) -> Result<Vec<SessionPaths>, PlanError> {
        let mut out = Vec::with_capacity(sessions.len());
        for (i, s) in sessions.iter().enumerate() {
            let p = enumerate_session_paths(topo, s, self.config.max_hops, self.config.max_paths);
            if p.has_unreachable_receiver() {
                return Err(PlanError::UnreachableReceiver { session_index: i });
            }
            out.push(p);
        }
        Ok(out)
    }

    /// Production path: solve the LP relaxation, round the fractional VNF
    /// counts up, then re-solve the flows against the fixed integer
    /// deployment ("relax the integer constraint ... then round").
    ///
    /// # Errors
    ///
    /// Propagates path and solver failures.
    pub fn plan(
        &self,
        topo: &Topology,
        sessions: &[SessionSpec],
        alpha: f64,
    ) -> Result<Deployment, PlanError> {
        let paths = self.paths(topo, sessions)?;
        self.plan_with_paths(topo, sessions, &paths, alpha)
    }

    /// Like [`Planner::plan`] but reusing pre-enumerated paths.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn plan_with_paths(
        &self,
        topo: &Topology,
        sessions: &[SessionSpec],
        paths: &[SessionPaths],
        alpha: f64,
    ) -> Result<Deployment, PlanError> {
        KeptProgram::with_paths(topo, sessions, paths, alpha).plan()
    }

    /// Solves the routing for a pinned deployment.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve_fixed(
        &self,
        topo: &Topology,
        sessions: &[SessionSpec],
        paths: &[SessionPaths],
        x: HashMap<NodeId, u64>,
        alpha: f64,
    ) -> Result<Deployment, PlanError> {
        let mode = SolveMode::FixedDeployment { x };
        let prog = build_program(topo, sessions, paths, &mode);
        let sol = prog.lp.solve()?;
        let SolveMode::FixedDeployment { x } = mode else {
            unreachable!("built as a fixed deployment")
        };
        Ok(extract(&prog, &sol, x, alpha))
    }

    /// Scale-in helper: the fewest VNFs that still sustain `rates`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures (infeasible if the rates cannot be met).
    pub fn minimize_vnfs(
        &self,
        topo: &Topology,
        sessions: &[SessionSpec],
        paths: &[SessionPaths],
        rates: &[f64],
        alpha: f64,
    ) -> Result<Deployment, PlanError> {
        let mode = SolveMode::MinimizeVnfs {
            rates: rates.to_vec(),
        };
        let prog = build_program(topo, sessions, paths, &mode);
        let relaxed = prog.lp.solve()?;
        self.solve_fixed(topo, sessions, paths, round_up(&prog, &relaxed), alpha)
    }

    /// Exact integer solution by branch-and-bound; small instances only.
    ///
    /// # Errors
    ///
    /// Propagates solver failures or node-limit exhaustion.
    pub fn plan_exact(
        &self,
        topo: &Topology,
        sessions: &[SessionSpec],
        alpha: f64,
        max_nodes: usize,
    ) -> Result<Deployment, PlanError> {
        let paths = self.paths(topo, sessions)?;
        let prog = build_program(topo, sessions, &paths, &SolveMode::Joint { alpha });
        let int_vars: Vec<_> = prog.vars.x.values().copied().collect();
        let sol = solve_integer(&prog.lp, &int_vars, max_nodes)?;
        let mut x = HashMap::new();
        for (&v, &var) in &prog.vars.x {
            x.insert(v, sol.value(var).round() as u64);
        }
        Ok(extract(&prog, &sol, x, alpha))
    }
}

/// Program (2) built once over one topology's paths and session set and
/// kept for the re-solves in which only data-center capabilities change
/// (Alg. 1): the joint program and the one that pins `x` to the rounded
/// counts.
///
/// [`KeptProgram::set_vnf_spec`] rewrites coefficients in place with the
/// expressions a fresh build uses, so [`KeptProgram::plan`] returns bit
/// for bit what [`Planner::plan`] returns on the changed topology.
/// Anything that changes the paths or the sessions needs a new one.
#[derive(Debug)]
pub struct KeptProgram {
    joint: Program,
    pinned: Program,
    alpha: f64,
}

impl KeptProgram {
    /// Enumerates the sessions' paths on `topo` and builds both programs.
    ///
    /// # Errors
    ///
    /// [`PlanError::UnreachableReceiver`] if a receiver has no path.
    pub fn new(
        planner: &Planner,
        topo: &Topology,
        sessions: &[SessionSpec],
        alpha: f64,
    ) -> Result<Self, PlanError> {
        let paths = planner.paths(topo, sessions)?;
        Ok(Self::with_paths(topo, sessions, &paths, alpha))
    }

    /// Builds both programs over pre-enumerated paths.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` and `paths` lengths differ.
    pub fn with_paths(
        topo: &Topology,
        sessions: &[SessionSpec],
        paths: &[SessionPaths],
        alpha: f64,
    ) -> Self {
        let unpinned = SolveMode::FixedDeployment { x: HashMap::new() };
        KeptProgram {
            joint: build_program(topo, sessions, paths, &SolveMode::Joint { alpha }),
            pinned: build_program(topo, sessions, paths, &unpinned),
            alpha,
        }
    }

    /// Rewrites data center `dc`'s per-VNF capabilities in both programs.
    ///
    /// # Panics
    ///
    /// Panics if `dc` is not a data center of the topology built over.
    pub fn set_vnf_spec(&mut self, dc: NodeId, spec: &VnfSpec) {
        self.joint.set_vnf_spec(dc, spec);
        self.pinned.set_vnf_spec(dc, spec);
    }

    /// The production solve ("relax the integer constraint ... then
    /// round"): solves the LP relaxation, rounds the VNF counts up, pins
    /// them and re-solves the flows against that integer deployment.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn plan(&mut self) -> Result<Deployment, PlanError> {
        let relaxed = self.joint.lp.solve()?;
        let x = round_up(&self.joint, &relaxed);
        for (&v, &count) in &x {
            self.pinned.set_pinned(v, count);
        }
        let sol = self.pinned.lp.solve()?;
        Ok(extract(&self.pinned, &sol, x, self.alpha))
    }
}

/// The relaxed VNF counts rounded up: a fractional VNF cannot serve
/// fractional bandwidth, so the ceiling keeps the flow solution feasible;
/// tiny fractions (< 1e-6) round to zero.
fn round_up(prog: &Program, relaxed: &Solution) -> HashMap<NodeId, u64> {
    prog.vars
        .x
        .iter()
        .map(|(&v, &var)| {
            let frac = relaxed.value(var);
            (v, if frac < 1e-6 { 0 } else { frac.ceil() as u64 })
        })
        .collect()
}

fn extract(prog: &Program, sol: &Solution, x: HashMap<NodeId, u64>, alpha: f64) -> Deployment {
    let rates = prog
        .vars
        .lambda
        .iter()
        .map(|&v| sol.value(v) / RATE_SCALE)
        .collect::<Vec<_>>();
    let edge_rates = prog
        .vars
        .edge_flow
        .iter()
        .map(|ef| {
            ef.iter()
                .map(|(&e, &var)| (e, sol.value(var) / RATE_SCALE))
                .filter(|(_, r)| *r > 1.0)
                .collect()
        })
        .collect();
    Deployment {
        vnfs: x,
        rates,
        edge_rates,
        alpha,
    }
}

/// Verifies that a deployment's flows satisfy all capacity constraints —
/// used by tests as the feasibility oracle for the rounding path.
pub fn check_feasible(
    topo: &Topology,
    sessions: &[SessionSpec],
    dep: &Deployment,
) -> Result<(), String> {
    const TOL: f64 = 1e-3;
    for &v in &topo.data_centers() {
        let spec = topo.vnf_spec(v);
        let n = *dep.vnfs.get(&v).unwrap_or(&0) as f64;
        let mut inflow = 0.0;
        let mut outflow = 0.0;
        for ef in &dep.edge_rates {
            for (&e, &r) in ef {
                let edge = topo.graph.edge(e);
                if edge.to == v {
                    inflow += r;
                }
                if edge.from == v {
                    outflow += r;
                }
            }
        }
        if inflow > spec.bin_bps * n + TOL {
            return Err(format!("inbound cap violated at {}", topo.label(v)));
        }
        if inflow > spec.coding_bps * n + TOL {
            return Err(format!("coding cap violated at {}", topo.label(v)));
        }
        if outflow > spec.bout_bps * n + TOL {
            return Err(format!("outbound cap violated at {}", topo.label(v)));
        }
    }
    for (m, s) in sessions.iter().enumerate() {
        let out: f64 = dep.edge_rates[m]
            .iter()
            .filter(|(&e, _)| topo.graph.edge(e).from == s.source)
            .map(|(_, &r)| r)
            .sum();
        if out > topo.source_out_bps(s.source) + TOL {
            return Err(format!("source cap violated for session {m}"));
        }
    }
    Ok(())
}
