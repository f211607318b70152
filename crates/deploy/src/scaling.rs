//! The dynamic deployment & scaling controller (Algorithms 1–3).
//!
//! The controller keeps a current [`Deployment`] and reacts to:
//!
//! * **bandwidth variation** (Alg. 1): applied only when the change
//!   exceeds ρ1 % and persists for τ1 (hysteresis against "brief spikes");
//!   increases are adopted only if the re-solved objective improves,
//!   decreases always force a re-solve;
//! * **delay changes** (Alg. 2): after ρ2/τ2 hysteresis, the feasible
//!   path sets are recomputed and the program re-solved;
//! * **session / receiver arrivals & departures** (Alg. 3): arrivals are
//!   solved *incrementally* against the residual capacity of the current
//!   deployment ("for the new sessions only, exploiting any surplus
//!   capacity of existing VNFs"); departures solve the program twice —
//!   once with the deployment fixed (grow flows into the freed capacity)
//!   and once minimizing VNFs at the current rates — and keep the better
//!   objective;
//! * VNF lifecycle is delegated to per-DC [`VnfPool`]s: scale-out may
//!   reuse τ-lingering instances, scale-in lingers instances for τ.

use std::collections::{BTreeMap, HashMap};

use ncvnf_flowgraph::NodeId;

use crate::formulate::{build_program_with_slack, DcSlack, RATE_SCALE};
use crate::model::{NodeKind, SessionSpec, Topology, VnfSpec};
use crate::pool::VnfPool;
use crate::solve::{Deployment, KeptProgram, PlanError, Planner, SolveMode};

/// Hysteresis and cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScalingParams {
    /// Throughput-vs-cost factor α (bps per VNF).
    pub alpha: f64,
    /// Bandwidth-change threshold ρ1 (fraction, e.g. 0.05).
    pub rho1: f64,
    /// Bandwidth-change persistence τ1 (seconds).
    pub tau1_secs: f64,
    /// Delay-change threshold ρ2 (fraction).
    pub rho2: f64,
    /// Delay-change persistence τ2 (seconds).
    pub tau2_secs: f64,
    /// VNF shutdown grace period τ (seconds).
    pub pool_tau_secs: f64,
    /// Fresh-VM launch latency (seconds; paper ≈35 s).
    pub launch_latency_secs: f64,
}

impl ScalingParams {
    /// The paper's Sec. V-C values: α = 20 Mbps/VNF, ρ = 5 %, τ = 10 min.
    pub fn paper_defaults() -> Self {
        ScalingParams {
            alpha: 20e6,
            rho1: 0.05,
            tau1_secs: 600.0,
            rho2: 0.05,
            tau2_secs: 600.0,
            pool_tau_secs: 600.0,
            launch_latency_secs: 35.0,
        }
    }
}

/// A point-in-time record of the system state, taken at every adoption
/// and tick; [`ScalingController::history`] keeps the latest 1,024.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Time in seconds.
    pub time: f64,
    /// Total multicast throughput Σ λ_m in bps.
    pub total_rate_bps: f64,
    /// VNFs actively serving.
    pub active_vnfs: u64,
    /// VNFs billed (active + τ-lingering + launching).
    pub billable_vnfs: u64,
}

/// Snapshots [`ScalingController::history`] keeps: a long-running
/// controller records one per tick and adoption, and its memory must not
/// grow with its lifetime.
const HISTORY_LEN: usize = 1024;

/// External events the controller reacts to.
#[derive(Debug, Clone)]
pub enum ScalingEvent {
    /// Measured per-VNF bandwidth at a data center changed.
    BandwidthObserved {
        /// The data center.
        dc: NodeId,
        /// Newly measured per-VNF capability.
        spec: VnfSpec,
    },
    /// Measured one-way delay between two nodes changed.
    DelayObserved {
        /// Link tail.
        from: NodeId,
        /// Link head.
        to: NodeId,
        /// New one-way delay in ms.
        delay_ms: f64,
    },
    /// A new session arrived.
    SessionJoin(SessionSpec),
    /// A session (by index into the current session list) ended.
    SessionQuit(usize),
    /// A receiver joined session `session_index`.
    ReceiverJoin {
        /// Index into the current session list.
        session_index: usize,
        /// The (already present in the topology) receiver node.
        receiver: NodeId,
    },
    /// Receiver `receiver_index` left session `session_index`.
    ReceiverQuit {
        /// Index into the current session list.
        session_index: usize,
        /// Index into that session's receiver list.
        receiver_index: usize,
    },
}

/// The global controller of coding-function deployment.
pub struct ScalingController {
    topo: Topology,
    sessions: Vec<SessionSpec>,
    planner: Planner,
    params: ScalingParams,
    pools: HashMap<NodeId, VnfPool>,
    deployment: Option<Deployment>,
    /// Program (2) over the current paths and sessions, kept for Alg. 1's
    /// re-solves. `None` once the paths or sessions change; the next
    /// re-solve builds it again.
    kept: Option<KeptProgram>,
    /// Pending changes, keyed so that those falling due in one tick apply
    /// in key order: the order decides which intermediate plan is
    /// adopted and what `history` and the pools record.
    pending_bw: BTreeMap<NodeId, Pending<VnfSpec>>,
    pending_delay: BTreeMap<(usize, usize), Pending<f64>>,
    history: Vec<Snapshot>,
}

/// A measurement deviation waiting out its persistence window.
///
/// `since` is when the *current* deviation was first observed — a new
/// observation that disagrees with the pending value by ≥ ρ restarts it
/// (a spike followed by a reversal is two changes, not one persisting
/// change). `last_seen` is when the deviation was last confirmed; a
/// stream that goes silent for a full τ is swept instead of applied,
/// because a single unconfirmed reading never *persisted* for τ.
#[derive(Debug, Clone, Copy)]
struct Pending<T> {
    value: T,
    since: f64,
    last_seen: f64,
}

impl ScalingController {
    /// Creates a controller over a topology with no sessions yet.
    pub fn new(topo: Topology, planner: Planner, params: ScalingParams) -> Self {
        let pools = topo
            .data_centers()
            .into_iter()
            .map(|dc| {
                (
                    dc,
                    VnfPool::new(params.pool_tau_secs, params.launch_latency_secs),
                )
            })
            .collect();
        ScalingController {
            topo,
            sessions: Vec::new(),
            planner,
            params,
            pools,
            deployment: None,
            kept: None,
            pending_bw: BTreeMap::new(),
            pending_delay: BTreeMap::new(),
            history: Vec::new(),
        }
    }

    /// Current sessions.
    pub fn sessions(&self) -> &[SessionSpec] {
        &self.sessions
    }

    /// Current deployment, if any plan has been computed.
    pub fn deployment(&self) -> Option<&Deployment> {
        self.deployment.as_ref()
    }

    /// Mutable access to the topology (tests inject measurements).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The latest recorded state snapshots, oldest first: at most 1,024.
    pub fn history(&self) -> &[Snapshot] {
        &self.history[self.history.len().saturating_sub(HISTORY_LEN)..]
    }

    /// VNFs actively serving across all data centers.
    pub fn active_vnfs(&self) -> u64 {
        self.pools.values().map(|p| p.active()).sum()
    }

    /// VNFs billed across all data centers.
    pub fn billable_vnfs(&self, now: f64) -> u64 {
        self.pools.values().map(|p| p.billable(now)).sum()
    }

    fn record(&mut self, now: f64) {
        let total = self
            .deployment
            .as_ref()
            .map(|d| d.total_rate_bps())
            .unwrap_or(0.0);
        let snap = Snapshot {
            time: now,
            total_rate_bps: total,
            active_vnfs: self.active_vnfs(),
            billable_vnfs: self.billable_vnfs(now),
        };
        // Past twice the cap, drop the oldest half at once, so a
        // snapshot costs amortized O(1) and the buffer stays bounded.
        if self.history.len() == 2 * HISTORY_LEN {
            self.history.drain(..HISTORY_LEN);
        }
        self.history.push(snap);
    }

    fn apply_deployment(&mut self, dep: Deployment, now: f64) {
        for (&dc, pool) in self.pools.iter_mut() {
            let target = *dep.vnfs.get(&dc).unwrap_or(&0);
            pool.scale_to(target, now);
        }
        self.deployment = Some(dep);
        self.record(now);
    }

    /// Computes (or recomputes) the full plan and applies it; the
    /// programs it builds are kept for Alg. 1's re-solves.
    ///
    /// # Errors
    ///
    /// Propagates planning failures; the previous deployment is kept.
    pub fn replan(&mut self, now: f64) -> Result<(), PlanError> {
        self.kept = None;
        let kept = KeptProgram::new(&self.planner, &self.topo, &self.sessions, self.params.alpha)?;
        let dep = self.kept.insert(kept).plan()?;
        self.apply_deployment(dep, now);
        Ok(())
    }

    /// Handles one event at time `now` (seconds).
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn handle(&mut self, event: ScalingEvent, now: f64) -> Result<(), PlanError> {
        match event {
            ScalingEvent::BandwidthObserved { dc, spec } => {
                self.observe_bandwidth(dc, spec, now);
                Ok(())
            }
            ScalingEvent::DelayObserved { from, to, delay_ms } => {
                self.observe_delay(from, to, delay_ms, now);
                Ok(())
            }
            ScalingEvent::SessionJoin(spec) => self.session_join(spec, now),
            ScalingEvent::SessionQuit(idx) => self.session_quit(idx, now),
            ScalingEvent::ReceiverJoin {
                session_index,
                receiver,
            } => self.receiver_join(session_index, receiver, now),
            ScalingEvent::ReceiverQuit {
                session_index,
                receiver_index,
            } => self.receiver_quit(session_index, receiver_index, now),
        }
    }

    /// Periodic maintenance: applies hysteresis-pending measurements whose
    /// τ elapsed, ticks the pools, and records a snapshot.
    ///
    /// # Errors
    ///
    /// Propagates planning failures from applied changes.
    pub fn tick(&mut self, now: f64) -> Result<(), PlanError> {
        // Sweep entries whose measurement stream went silent for a full
        // τ: the deviation was observed, never contradicted, but also
        // never re-confirmed — it did not *persist*, and keeping it
        // around would let a later unrelated deviation inherit an
        // ancient start time.
        let tau1 = self.params.tau1_secs;
        self.pending_bw.retain(|_, p| now - p.last_seen < tau1);
        let tau2 = self.params.tau2_secs;
        self.pending_delay.retain(|_, p| now - p.last_seen < tau2);
        let due_bw: Vec<NodeId> = self
            .pending_bw
            .iter()
            .filter(|(_, p)| now - p.since >= tau1)
            .map(|(&dc, _)| dc)
            .collect();
        for dc in due_bw {
            let p = self.pending_bw.remove(&dc).expect("present");
            self.apply_bandwidth(dc, p.value, now)?;
        }
        let due_delay: Vec<(usize, usize)> = self
            .pending_delay
            .iter()
            .filter(|(_, p)| now - p.since >= tau2)
            .map(|(&k, _)| k)
            .collect();
        let had_delay_changes = !due_delay.is_empty();
        for key in due_delay {
            let p = self.pending_delay.remove(&key).expect("present");
            self.set_link_delay(NodeId(key.0), NodeId(key.1), p.value);
        }
        if had_delay_changes {
            // Alg. 2: feasible path sets changed; re-solve on them. If the
            // new delays leave some receiver without any feasible path,
            // keep serving with the previous routing rather than failing —
            // the measured paths still exist, they just exceed L^max.
            match self.replan(now) {
                Ok(()) => {}
                Err(PlanError::UnreachableReceiver { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        for pool in self.pools.values_mut() {
            pool.tick(now);
        }
        self.record(now);
        Ok(())
    }

    // --- Algorithm 1: bandwidth variation ---

    /// Records a bandwidth measurement; it takes effect only if it deviates
    /// by ≥ ρ1 from the current spec and persists for τ1.
    pub fn observe_bandwidth(&mut self, dc: NodeId, spec: VnfSpec, now: f64) {
        let current = self.topo.vnf_spec(dc);
        let deviates = relative_change(current.bin_bps, spec.bin_bps) >= self.params.rho1
            || relative_change(current.bout_bps, spec.bout_bps) >= self.params.rho1;
        if !deviates {
            self.pending_bw.remove(&dc);
            return;
        }
        match self.pending_bw.get_mut(&dc) {
            Some(p) => {
                // The window start survives only while observations keep
                // agreeing with the pending value: a reading that
                // disagrees with it by ≥ ρ1 is a *different* change and
                // must wait out its own τ1.
                let disagrees = relative_change(p.value.bin_bps, spec.bin_bps) >= self.params.rho1
                    || relative_change(p.value.bout_bps, spec.bout_bps) >= self.params.rho1;
                if disagrees {
                    p.since = now;
                }
                p.value = spec;
                p.last_seen = now;
            }
            None => {
                self.pending_bw.insert(
                    dc,
                    Pending {
                        value: spec,
                        since: now,
                        last_seen: now,
                    },
                );
            }
        }
    }

    /// Applies `spec` as data center `dc`'s per-VNF capability at once,
    /// with no ρ1/τ1 wait, and drops any change pending for `dc`: Alg. 1's
    /// adoption step, for a change that needs no persistence test (a
    /// relay that stopped answering goes to zero, and back to its nominal
    /// spec when it answers again). The kept program takes the new
    /// coefficients; a decrease is adopted, an increase only if the
    /// objective improves.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn apply_bandwidth(
        &mut self,
        dc: NodeId,
        spec: VnfSpec,
        now: f64,
    ) -> Result<(), PlanError> {
        self.pending_bw.remove(&dc);
        let old = self.topo.vnf_spec(dc);
        let decreased = spec.bin_bps < old.bin_bps || spec.bout_bps < old.bout_bps;
        if let NodeKind::DataCenter { vnf } = &mut self.topo.kinds[dc.0] {
            *vnf = spec;
        }
        // Only capabilities moved: the kept programs take the new
        // coefficients instead of paths being enumerated and programs
        // built again.
        let kept = match self.kept.take() {
            Some(mut kept) => {
                kept.set_vnf_spec(dc, &spec);
                kept
            }
            None => KeptProgram::new(&self.planner, &self.topo, &self.sessions, self.params.alpha)?,
        };
        let candidate = self.kept.insert(kept).plan()?;
        let adopt = if decreased {
            // Capacity dropped: the old plan may be infeasible; adopt.
            true
        } else {
            // Capacity grew: "if the new objective value is larger than
            // the old one", scale out; otherwise retain.
            let current_obj = self.deployment.as_ref().map(|d| d.objective());
            current_obj.is_none_or(|o| objective_improved(o, candidate.objective()))
        };
        if adopt {
            self.apply_deployment(candidate, now);
        }
        Ok(())
    }

    // --- Algorithm 2: delay changes ---

    /// Records a delay measurement with ρ2/τ2 hysteresis.
    pub fn observe_delay(&mut self, from: NodeId, to: NodeId, delay_ms: f64, now: f64) {
        let Some(current) = self.link_delay(from, to) else {
            return;
        };
        if relative_change(current, delay_ms) < self.params.rho2 {
            self.pending_delay.remove(&(from.0, to.0));
            return;
        }
        match self.pending_delay.get_mut(&(from.0, to.0)) {
            Some(p) => {
                if relative_change(p.value, delay_ms) >= self.params.rho2 {
                    p.since = now;
                }
                p.value = delay_ms;
                p.last_seen = now;
            }
            None => {
                self.pending_delay.insert(
                    (from.0, to.0),
                    Pending {
                        value: delay_ms,
                        since: now,
                        last_seen: now,
                    },
                );
            }
        }
    }

    fn link_delay(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.topo
            .graph
            .out_edges(from)
            .find(|e| e.to == to)
            .map(|e| e.delay)
    }

    fn set_link_delay(&mut self, from: NodeId, to: NodeId, delay_ms: f64) {
        let ids: Vec<_> = self
            .topo
            .graph
            .out_edges(from)
            .filter(|e| e.to == to)
            .map(|e| e.id)
            .collect();
        for id in ids {
            self.topo
                .graph
                .set_delay(id, delay_ms)
                .expect("valid delay");
        }
    }

    // --- Algorithm 3: session / receiver churn ---

    /// A new session arrives: solve (2) *for the new session only*,
    /// against the residual capacity of the current deployment.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn session_join(&mut self, spec: SessionSpec, now: f64) -> Result<(), PlanError> {
        let slack = self.residual_slack(None);
        let paths = self
            .planner
            .paths(&self.topo, std::slice::from_ref(&spec))?;
        let prog = build_program_with_slack(
            &self.topo,
            std::slice::from_ref(&spec),
            &paths,
            &SolveMode::Joint {
                alpha: self.params.alpha,
            },
            &slack,
        );
        let relaxed = prog.lp.solve()?;
        // Round the *extra* VNFs up, then merge into the deployment.
        let mut merged = self.deployment.clone().unwrap_or(Deployment {
            vnfs: HashMap::new(),
            rates: Vec::new(),
            edge_rates: Vec::new(),
            alpha: self.params.alpha,
        });
        for (&v, &var) in &prog.vars.x {
            let frac = relaxed.value(var);
            let extra = if frac < 1e-6 { 0 } else { frac.ceil() as u64 };
            *merged.vnfs.entry(v).or_insert(0) += extra;
        }
        merged
            .rates
            .push(relaxed.value(prog.vars.lambda[0]) / RATE_SCALE);
        merged.edge_rates.push(
            prog.vars.edge_flow[0]
                .iter()
                .map(|(&e, &var)| (e, relaxed.value(var) / RATE_SCALE))
                .filter(|(_, r)| *r > 1.0)
                .collect(),
        );
        self.sessions.push(spec);
        self.kept = None;
        self.apply_deployment(merged, now);
        Ok(())
    }

    /// A session ends: compare growing the remaining flows (g1) against
    /// shutting down VNFs at unchanged rates (g2); keep the better
    /// objective.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn session_quit(&mut self, index: usize, now: f64) -> Result<(), PlanError> {
        assert!(index < self.sessions.len(), "session index out of range");
        self.sessions.remove(index);
        self.kept = None;
        if let Some(dep) = &mut self.deployment {
            if index < dep.rates.len() {
                dep.rates.remove(index);
                dep.edge_rates.remove(index);
            }
        }
        self.requilibrate_after_departure(now)
    }

    /// A receiver joins: re-solve the affected session against the
    /// residual of the others.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    ///
    /// # Panics
    ///
    /// Panics if `session_index` is out of range.
    pub fn receiver_join(
        &mut self,
        session_index: usize,
        receiver: NodeId,
        now: f64,
    ) -> Result<(), PlanError> {
        assert!(session_index < self.sessions.len(), "index out of range");
        self.sessions[session_index].receivers.push(receiver);
        self.kept = None;
        self.resolve_single_session(session_index, now)
    }

    /// A receiver departs: shrink the session, then run the departure
    /// comparison.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn receiver_quit(
        &mut self,
        session_index: usize,
        receiver_index: usize,
        now: f64,
    ) -> Result<(), PlanError> {
        assert!(session_index < self.sessions.len(), "index out of range");
        let s = &mut self.sessions[session_index];
        assert!(receiver_index < s.receivers.len(), "index out of range");
        s.receivers.remove(receiver_index);
        self.kept = None;
        if self.sessions[session_index].receivers.is_empty() {
            return self.session_quit(session_index, now);
        }
        self.requilibrate_after_departure(now)
    }

    /// Residual per-DC capacity given current flows, excluding (when set)
    /// one session's own usage.
    fn residual_slack(&self, exclude_session: Option<usize>) -> HashMap<NodeId, DcSlack> {
        let mut slack = HashMap::new();
        let Some(dep) = &self.deployment else {
            return slack;
        };
        for dc in self.topo.data_centers() {
            let spec = self.topo.vnf_spec(dc);
            let n = *dep.vnfs.get(&dc).unwrap_or(&0) as f64;
            let mut in_used = 0.0;
            let mut out_used = 0.0;
            for (m, ef) in dep.edge_rates.iter().enumerate() {
                if Some(m) == exclude_session {
                    continue;
                }
                for (&e, &r) in ef {
                    let edge = self.topo.graph.edge(e);
                    if edge.to == dc {
                        in_used += r;
                    }
                    if edge.from == dc {
                        out_used += r;
                    }
                }
            }
            slack.insert(
                dc,
                DcSlack {
                    in_bps: (spec.bin_bps * n - in_used).max(0.0),
                    out_bps: (spec.bout_bps * n - out_used).max(0.0),
                    coding_bps: (spec.coding_bps * n - in_used).max(0.0),
                },
            );
        }
        slack
    }

    /// Re-solves one session against the residual of the others and
    /// merges the result (receiver-join path of Alg. 3).
    fn resolve_single_session(&mut self, m: usize, now: f64) -> Result<(), PlanError> {
        let spec = self.sessions[m].clone();
        let slack = self.residual_slack(Some(m));
        let paths = self
            .planner
            .paths(&self.topo, std::slice::from_ref(&spec))?;
        let prog = build_program_with_slack(
            &self.topo,
            std::slice::from_ref(&spec),
            &paths,
            &SolveMode::Joint {
                alpha: self.params.alpha,
            },
            &slack,
        );
        let sol = prog.lp.solve()?;
        let mut merged = self.deployment.clone().expect("deployment exists");
        for (&v, &var) in &prog.vars.x {
            let frac = sol.value(var);
            let extra = if frac < 1e-6 { 0 } else { frac.ceil() as u64 };
            *merged.vnfs.entry(v).or_insert(0) += extra;
        }
        merged.rates[m] = sol.value(prog.vars.lambda[0]) / RATE_SCALE;
        merged.edge_rates[m] = prog.vars.edge_flow[0]
            .iter()
            .map(|(&e, &var)| (e, sol.value(var) / RATE_SCALE))
            .filter(|(_, r)| *r > 1.0)
            .collect();
        self.apply_deployment(merged, now);
        Ok(())
    }

    /// The departure branch of Alg. 3: g1 (grow flows, deployment fixed)
    /// vs g2 (shrink deployment, rates fixed).
    fn requilibrate_after_departure(&mut self, now: f64) -> Result<(), PlanError> {
        if self.sessions.is_empty() {
            let dep = Deployment {
                vnfs: HashMap::new(),
                rates: Vec::new(),
                edge_rates: Vec::new(),
                alpha: self.params.alpha,
            };
            self.apply_deployment(dep, now);
            return Ok(());
        }
        let paths = self.planner.paths(&self.topo, &self.sessions)?;
        let current = self.deployment.clone().expect("deployment exists");
        let g1 = self.planner.solve_fixed(
            &self.topo,
            &self.sessions,
            &paths,
            current.vnfs.clone(),
            self.params.alpha,
        )?;
        let g2 = self.planner.minimize_vnfs(
            &self.topo,
            &self.sessions,
            &paths,
            &current.rates,
            self.params.alpha,
        );
        let chosen = match g2 {
            Ok(g2) if g2.objective() > g1.objective() => g2,
            _ => g1,
        };
        self.apply_deployment(chosen, now);
        Ok(())
    }
}

/// Whether `candidate` improves on `current` by more than solver float
/// noise. Objectives are bps-scale (10⁸–10⁹), so the tolerance must
/// scale with the value — a fixed absolute epsilon adopts churn-y
/// replans whose objective differs only in the LP's low bits. The 1 bps
/// floor keeps near-zero objectives from flapping on rounding noise.
fn objective_improved(current: f64, candidate: f64) -> bool {
    candidate - current > current.abs().max(1.0) * 1e-6
}

fn relative_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old).abs() / old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TopologyBuilder;
    use crate::presets::random_workload;

    fn controller() -> (ScalingController, Vec<SessionSpec>) {
        let w = random_workload(4, 920e6, 150.0, 11);
        let params = ScalingParams {
            alpha: 20e6,
            rho1: 0.05,
            tau1_secs: 60.0,
            rho2: 0.05,
            tau2_secs: 60.0,
            pool_tau_secs: 120.0,
            launch_latency_secs: 35.0,
        };
        (
            ScalingController::new(w.topology, Planner::new(), params),
            w.sessions,
        )
    }

    #[test]
    fn sessions_join_and_quit_adjust_vnfs() {
        let (mut c, sessions) = controller();
        let mut now = 0.0;
        for s in sessions.iter().take(3).cloned() {
            c.session_join(s, now).unwrap();
            now += 10.0;
        }
        let dep = c.deployment().unwrap();
        assert_eq!(dep.rates.len(), 3);
        assert!(dep.total_rate_bps() > 0.0, "sessions should carry traffic");
        let vnfs_with_3 = dep.total_vnfs();
        c.session_quit(1, now).unwrap();
        assert_eq!(c.deployment().unwrap().rates.len(), 2);
        // After the departure the deployment can only stay or shrink, or
        // flows grow: the objective must not get worse per the g1/g2 rule.
        let vnfs_after = c.deployment().unwrap().total_vnfs();
        assert!(vnfs_after <= vnfs_with_3 + 1);
    }

    #[test]
    fn bandwidth_hysteresis_requires_persistence() {
        let (mut c, sessions) = controller();
        for s in sessions.iter().take(2).cloned() {
            c.session_join(s, 0.0).unwrap();
        }
        let before = c.deployment().unwrap().total_rate_bps();
        let dc = c.topology().data_centers()[0];
        let mut spec = c.topology().vnf_spec(dc);
        spec.bin_bps *= 0.5;
        spec.bout_bps *= 0.5;
        // Observed but not yet persisted: no change at the next tick.
        c.observe_bandwidth(dc, spec, 10.0);
        c.tick(20.0).unwrap();
        assert_eq!(c.topology().vnf_spec(dc).bin_bps, 920e6);
        // The measurement stream keeps confirming the drop...
        c.observe_bandwidth(dc, spec, 40.0);
        c.observe_bandwidth(dc, spec, 70.0);
        // ...so after τ1 the change is applied and the plan recomputed.
        c.tick(80.0).unwrap();
        assert_eq!(c.topology().vnf_spec(dc).bin_bps, 460e6);
        let after = c.deployment().unwrap().total_rate_bps();
        assert!(after <= before + 1e-3);
    }

    #[test]
    fn small_bandwidth_changes_are_ignored() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        let dc = c.topology().data_centers()[0];
        let mut spec = c.topology().vnf_spec(dc);
        spec.bin_bps *= 0.98; // 2% < ρ1 = 5%
        c.observe_bandwidth(dc, spec, 0.0);
        c.tick(1000.0).unwrap();
        assert_eq!(c.topology().vnf_spec(dc).bin_bps, 920e6);
    }

    #[test]
    fn delay_increase_triggers_replan_after_tau() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        let dcs = c.topology().data_centers();
        c.observe_delay(dcs[0], dcs[1], 400.0, 0.0);
        c.tick(30.0).unwrap();
        // Not yet applied.
        let d = c
            .topology()
            .graph
            .out_edges(dcs[0])
            .find(|e| e.to == dcs[1])
            .unwrap()
            .delay;
        assert!(d < 400.0);
        c.observe_delay(dcs[0], dcs[1], 400.0, 55.0);
        c.tick(100.0).unwrap();
        let d = c
            .topology()
            .graph
            .out_edges(dcs[0])
            .find(|e| e.to == dcs[1])
            .unwrap()
            .delay;
        assert_eq!(d, 400.0);
    }

    #[test]
    fn unreachable_delay_change_keeps_previous_deployment() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        let before = c.deployment().unwrap().total_rate_bps();
        // Blow up every inter-DC and access delay the session could use.
        let nodes: Vec<_> = c.topology().graph.nodes().collect();
        for &from in &nodes {
            let tos: Vec<_> = c.topology().graph.out_edges(from).map(|e| e.to).collect();
            for to in tos {
                c.observe_delay(from, to, 10_000.0, 0.0);
                c.observe_delay(from, to, 10_000.0, 70.0);
            }
        }
        // τ2 elapses; the replan would find no feasible path, but the
        // controller must survive with its previous deployment.
        c.tick(120.0).unwrap();
        let after = c.deployment().unwrap().total_rate_bps();
        assert!(
            (after - before).abs() < 1e-3,
            "deployment changed: {after} vs {before}"
        );
    }

    #[test]
    fn receiver_churn_keeps_deployment_consistent() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        c.session_join(sessions[1].clone(), 1.0).unwrap();
        // Borrow another session's receiver node as the joining receiver.
        let extra = sessions[2].receivers[0];
        c.receiver_join(0, extra, 2.0).unwrap();
        assert_eq!(c.sessions()[0].receivers.last(), Some(&extra));
        assert!(c.deployment().unwrap().rates.len() == 2);
        c.receiver_quit(0, c.sessions()[0].receivers.len() - 1, 3.0)
            .unwrap();
        assert!(c.deployment().unwrap().rates[0] >= 0.0);
    }

    #[test]
    fn spike_then_reverse_is_two_changes_not_one() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        let dc = c.topology().data_centers()[0];
        let base = c.topology().vnf_spec(dc);
        let mut up = base;
        up.bin_bps *= 1.10;
        up.bout_bps *= 1.10;
        let mut down = base;
        down.bin_bps *= 0.90;
        down.bout_bps *= 0.90;
        // A +10% spike at t=0 followed by a −10% drop at t=30 must not
        // be treated as one deviation persisting since t=0: the drop
        // disagrees with the pending spike by ≥ ρ1 and starts its own
        // window.
        c.observe_bandwidth(dc, up, 0.0);
        c.observe_bandwidth(dc, down, 30.0);
        c.tick(70.0).unwrap(); // 70 − 30 = 40 < τ1 = 60
        assert_eq!(
            c.topology().vnf_spec(dc).bin_bps,
            base.bin_bps,
            "reversed deviation applied before persisting for its own τ1"
        );
        // Once the drop itself persists for τ1 it is applied.
        c.observe_bandwidth(dc, down, 60.0);
        c.tick(95.0).unwrap(); // 95 − 30 = 65 ≥ τ1
        assert_eq!(c.topology().vnf_spec(dc).bin_bps, down.bin_bps);
    }

    #[test]
    fn delay_spike_then_reverse_restarts_window() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        let dcs = c.topology().data_centers();
        let original = c
            .topology()
            .graph
            .out_edges(dcs[0])
            .find(|e| e.to == dcs[1])
            .unwrap()
            .delay;
        c.observe_delay(dcs[0], dcs[1], original * 2.0, 0.0);
        c.observe_delay(dcs[0], dcs[1], original * 1.3, 30.0);
        c.tick(70.0).unwrap(); // the 1.3× reading only persisted 40 s
        let d = c
            .topology()
            .graph
            .out_edges(dcs[0])
            .find(|e| e.to == dcs[1])
            .unwrap()
            .delay;
        assert_eq!(d, original, "neither deviation persisted for τ2");
    }

    #[test]
    fn silent_measurement_stream_is_swept_not_applied() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        let dc = c.topology().data_centers()[0];
        let mut halved = c.topology().vnf_spec(dc);
        halved.bin_bps *= 0.5;
        halved.bout_bps *= 0.5;
        // One deviating reading, then the stream goes quiet: a single
        // unconfirmed observation never persisted and must be swept at
        // the first tick a full τ1 after its last confirmation.
        c.observe_bandwidth(dc, halved, 0.0);
        c.tick(30.0).unwrap();
        c.tick(120.0).unwrap();
        assert_eq!(
            c.topology().vnf_spec(dc).bin_bps,
            920e6,
            "stalled stream's reading applied as if it persisted"
        );
        // A later deviation must not inherit the ancient start time:
        // observed at t=200, it is not due at t=210...
        c.observe_bandwidth(dc, halved, 200.0);
        c.tick(210.0).unwrap();
        assert_eq!(c.topology().vnf_spec(dc).bin_bps, 920e6);
        // ...and applies only after its own τ1, kept alive by fresh
        // confirmations.
        c.observe_bandwidth(dc, halved, 240.0);
        c.tick(261.0).unwrap();
        assert_eq!(c.topology().vnf_spec(dc).bin_bps, 460e6);
    }

    #[test]
    fn objective_comparison_is_relative_not_absolute() {
        // 1 bp of improvement on a Gbps-scale objective is LP float
        // noise, not a better plan — the old `+ 1e-6` absolute epsilon
        // adopted it.
        assert!(!objective_improved(1e9, 1e9 + 1.0));
        assert!(!objective_improved(1e9, 1e9 + 500.0));
        assert!(objective_improved(1e9, 1.001e9));
        // Decreases and ties are never improvements.
        assert!(!objective_improved(1e9, 1e9));
        assert!(!objective_improved(1e9, 0.9e9));
        // Near zero the 1 bps floor absorbs rounding noise both ways.
        assert!(!objective_improved(0.0, 5e-7));
        assert!(objective_improved(0.0, 1.0));
        assert!(!objective_improved(-1e9, -1e9 + 500.0));
        assert!(objective_improved(-1e9, -0.99e9));
    }

    #[test]
    fn noop_capacity_growth_is_not_adopted() {
        // A topology where the source's 50 Mbps out-cap binds: growing
        // DC capacity re-solves to the same rates and VNF count, so the
        // re-solve is a no-op and the controller must keep the current
        // deployment (no churn, hence no table push downstream).
        let mut b = TopologyBuilder::new();
        let dc = b.data_center(
            "dc",
            VnfSpec {
                bin_bps: 920e6,
                bout_bps: 920e6,
                coding_bps: 1000e6,
            },
        );
        let s = b.source("src", 50e6);
        let r = b.receiver("rx", 200e6);
        b.link(s, dc, 5.0).link(dc, r, 5.0);
        let params = ScalingParams {
            alpha: 20e6,
            rho1: 0.05,
            tau1_secs: 60.0,
            rho2: 0.05,
            tau2_secs: 60.0,
            pool_tau_secs: 120.0,
            launch_latency_secs: 35.0,
        };
        let mut c = ScalingController::new(b.build(), Planner::new(), params);
        c.session_join(
            SessionSpec::elastic(ncvnf_rlnc::SessionId::new(7), s, vec![r], 150.0),
            0.0,
        )
        .unwrap();
        let before_vnfs = c.deployment().unwrap().vnfs.clone();
        let before_rates = c.deployment().unwrap().rates.clone();
        let mut grown = c.topology().vnf_spec(dc);
        grown.bin_bps *= 1.10;
        grown.bout_bps *= 1.10;
        c.observe_bandwidth(dc, grown, 0.0);
        c.observe_bandwidth(dc, grown, 40.0);
        c.observe_bandwidth(dc, grown, 70.0);
        c.tick(80.0).unwrap();
        assert_eq!(c.topology().vnf_spec(dc).bin_bps, grown.bin_bps);
        let dep = c.deployment().unwrap();
        assert_eq!(dep.vnfs, before_vnfs, "no-op re-solve changed the VNFs");
        assert_eq!(dep.rates, before_rates, "no-op re-solve changed the rates");
    }

    #[test]
    fn history_records_snapshots() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        c.tick(10.0).unwrap();
        c.tick(20.0).unwrap();
        assert!(c.history().len() >= 3);
        assert!(c.history().iter().all(|s| s.total_rate_bps >= 0.0));
    }

    #[test]
    fn history_keeps_only_the_latest_snapshots() {
        let (mut c, sessions) = controller();
        c.session_join(sessions[0].clone(), 0.0).unwrap();
        for tick in 1..=5 * HISTORY_LEN {
            c.tick(tick as f64).unwrap();
            assert!(
                c.history.len() <= 2 * HISTORY_LEN,
                "the buffer grew past its cap"
            );
        }
        let history = c.history();
        assert_eq!(history.len(), HISTORY_LEN);
        assert_eq!(history.last().unwrap().time, (5 * HISTORY_LEN) as f64);
        assert!(history.windows(2).all(|w| w[1].time == w[0].time + 1.0));
    }
}
