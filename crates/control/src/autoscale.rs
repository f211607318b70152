//! The closed control loop: measurement → decision → actuation.
//!
//! Sec. III-A of the paper describes a controller that "monitors the
//! system" and "adjusts coding function deployment on the fly". Earlier
//! layers built every piece of that sentence in isolation — the
//! [`crate::telemetry`] aggregator, the [`ncvnf_deploy::ScalingController`]
//! hysteresis machine, the [`crate::journal`] write-ahead log and the
//! fenced [`crate::sender`]. This module closes the loop:
//!
//! 1. **Measure** — [`Autoscaler::poll`] queries every relay's `NC_STATS`
//!    snapshot, turns datagram-counter deltas into per-VNF capability
//!    estimates and feeds them to the telemetry window.
//! 2. **Decide** — drained [`ScalingEvent`]s run through the controller's
//!    ρ/τ hysteresis; an adoption is detected by comparing deployment
//!    fingerprints before and after the event batch.
//! 3. **Actuate** — every adoption is journaled (and fsynced) as a
//!    [`ControlRecord::ScaleDecision`] *before* any signal leaves the
//!    controller, then forwarding-table deltas are pushed through the
//!    epoch-fenced link in dependency order: downstream first, so no
//!    relay forwards to a next hop that is not armed yet.
//!
//! **Scale-to-zero** rides the same poll: a relay whose data path has
//! been idle past `idle_tau_secs` *and* whose datagram counters did not
//! move since the previous poll is wound into the τ-pool with
//! `NC_VNF_END` (journaled first). The first returning packet — observed
//! as a counter delta, or reported out-of-band via a
//! `ncvnf_dataplane::feedback` wake frame — re-arms every draining
//! instance in dependency order via [`Autoscaler::wake`]. Drains walk
//! that order backwards: upstream first.
//!
//! [`Autoscaler::start`] is the one entry that starts a controller, the
//! first time and after every crash: it fences the fleet under a new
//! epoch, reconciles the journal's belief with the live relays and arms
//! whatever was never armed.
//!
//! The link is abstracted behind [`ControlLink`] so the decision loop is
//! testable without sockets; [`crate::SignalSender`] is the production
//! implementation.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::net::SocketAddr;
use std::time::Instant;

use ncvnf_deploy::{PlanError, ScalingController, ScalingEvent, VnfSpec};
use ncvnf_flowgraph::NodeId;

use crate::diff::tables_from_deployment;
use crate::fwdtab::ForwardingTable;
use crate::journal::{ControlRecord, ControllerState, Journal};
use crate::metrics::ControlMetrics;
use crate::reconcile::{reconcile_in_order, snapshot_value, ReconcileReport};
use crate::sender::{SendError, SendReceipt, SignalSender};
use crate::signal::{Signal, VnfRoleWire};
use crate::telemetry::Telemetry;

/// The slice of [`SignalSender`] the autoscaler depends on. Production
/// code hands in a real sender; tests substitute a scripted mock and
/// assert on the exact signal order.
pub trait ControlLink {
    /// The controller epoch every push is fenced under.
    fn epoch(&self) -> u64;
    /// The sequence number the next push to `to` will carry (journaled
    /// *before* the push so replay knows what was intended).
    fn next_seq(&self, to: SocketAddr) -> u64;
    /// Pushes one fenced signal and blocks until ACKed or failed.
    ///
    /// # Errors
    ///
    /// Propagates the transport's [`SendError`].
    fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError>;
    /// Queries a node's `NC_STATS` snapshot (JSON text).
    ///
    /// # Errors
    ///
    /// Propagates the transport's [`SendError`].
    fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError>;
}

impl ControlLink for SignalSender {
    fn epoch(&self) -> u64 {
        SignalSender::epoch(self)
    }

    fn next_seq(&self, to: SocketAddr) -> u64 {
        SignalSender::next_seq(self, to)
    }

    fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
        SignalSender::push(self, to, signal)
    }

    fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
        SignalSender::query_stats(self, to)
    }
}

/// One relay under autoscaler management.
#[derive(Debug, Clone)]
pub struct RelayTarget {
    /// Controller-assigned node id (journal key).
    pub node: u32,
    /// The data center (topology node) this relay serves.
    pub dc: NodeId,
    /// The relay's control-socket address.
    pub control_addr: SocketAddr,
    /// The relay's coding role, as its settings give it. Actuation order
    /// does not read it: that follows the tables' next hops.
    pub role: VnfRoleWire,
    /// The settings signals that (re)arm this relay, replayed verbatim
    /// on bootstrap and on wake-from-drain.
    pub settings: Vec<Signal>,
}

/// Tuning knobs of the loop.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Minimum relative change before telemetry emits an observation
    /// (the controller applies its own ρ/τ hysteresis on top).
    pub min_rel_change: f64,
    /// Telemetry smoothing window (samples).
    pub telemetry_window: usize,
    /// Idle time before a relay becomes a scale-to-zero candidate
    /// (seconds of data-path silence).
    pub idle_tau_secs: f64,
    /// The τ grace period carried in `NC_VNF_END` (seconds).
    pub drain_tau_secs: u32,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_rel_change: 0.02,
            telemetry_window: 3,
            idle_tau_secs: 600.0,
            drain_tau_secs: 600,
        }
    }
}

/// What the autoscaler learned about one target across polls.
#[derive(Debug, Clone)]
struct TargetTrack {
    /// Controller clock of the previous successful poll.
    last_poll_secs: Option<f64>,
    /// `relay.datagrams_out` at the previous poll.
    last_out: u64,
    /// Sum of the relay's shed counters at the previous poll. Shed
    /// packets are demand the node *refused*, so they count toward the
    /// offered rate: a node pinned at its admission ceiling looks
    /// fully loaded rather than mysteriously idle, and overload drives
    /// scale-out instead of masking it.
    last_shed: u64,
    /// Highest packet rate ever observed (the "100% load" anchor the
    /// capability estimate scales the nominal spec by).
    baseline_pps: f64,
    /// The data center's nominal per-VNF spec, captured at first poll.
    nominal: VnfSpec,
    /// An `NC_VNF_END` was sent and no wake has re-armed it yet.
    draining: bool,
}

/// Outcome of one [`Autoscaler::poll`] pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PollReport {
    /// Targets that answered `NC_STATS`.
    pub polled: u32,
    /// Targets that did not answer.
    pub unreachable: u32,
    /// Scaling observations emitted by telemetry this pass.
    pub events: u32,
    /// True when the controller adopted a new deployment.
    pub adopted: bool,
    /// Forwarding-table deltas pushed.
    pub tables_pushed: u32,
    /// Node ids wound into the τ-pool this pass.
    pub drained: Vec<u32>,
    /// Node ids re-armed from drain this pass (traffic returned).
    pub woken: Vec<u32>,
}

/// Errors of the measurement→decision→actuation loop.
#[derive(Debug)]
pub enum AutoscaleError {
    /// Journal I/O failed — the decision could not be made durable, so
    /// no signal was sent.
    Io(std::io::Error),
    /// The planner rejected the re-solve.
    Plan(PlanError),
    /// A fenced push failed terminally (timeout, rejection, or a newer
    /// epoch fenced this controller off).
    Send(SendError),
}

impl fmt::Display for AutoscaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoscaleError::Io(e) => write!(f, "autoscale journal I/O: {e}"),
            AutoscaleError::Plan(e) => write!(f, "autoscale planning: {e}"),
            AutoscaleError::Send(e) => write!(f, "autoscale actuation: {e}"),
        }
    }
}

impl Error for AutoscaleError {}

impl From<std::io::Error> for AutoscaleError {
    fn from(e: std::io::Error) -> Self {
        AutoscaleError::Io(e)
    }
}

impl From<PlanError> for AutoscaleError {
    fn from(e: PlanError) -> Self {
        AutoscaleError::Plan(e)
    }
}

impl From<SendError> for AutoscaleError {
    fn from(e: SendError) -> Self {
        AutoscaleError::Send(e)
    }
}

/// A cheap equality proxy for [`ncvnf_deploy::Deployment`] (which has no
/// `PartialEq`): VNF counts plus session rates rounded to whole bps.
fn fingerprint(dep: &ncvnf_deploy::Deployment) -> String {
    let mut vnfs: Vec<(usize, u64)> = dep.vnfs.iter().map(|(n, c)| (n.0, *c)).collect();
    vnfs.sort_unstable();
    let rates: Vec<i64> = dep.rates.iter().map(|r| r.round() as i64).collect();
    format!("{vnfs:?}|{rates:?}")
}

/// The autoscaler daemon: owns the scaling controller, the write-ahead
/// journal and the relay fleet description, and drives them from live
/// `NC_STATS` measurements. See the module docs for the loop shape.
pub struct Autoscaler {
    controller: ScalingController,
    journal: Journal,
    targets: Vec<RelayTarget>,
    /// Data-plane address of each topology node, for rendering
    /// forwarding-table next hops.
    data_addrs: HashMap<NodeId, String>,
    telemetry: Telemetry,
    config: AutoscaleConfig,
    tracks: HashMap<u32, TargetTrack>,
    /// Last table text pushed per node, to suppress no-op re-pushes.
    pushed_tables: HashMap<u32, String>,
    /// Controller clock at which each DC's current drift window opened
    /// (first deviating observation); cleared on adoption.
    drift_since: HashMap<NodeId, f64>,
    /// Monotonic decision counter (continues across restarts via
    /// [`crate::ControllerState::scale_decisions`]).
    decisions: u64,
    metrics: Option<ControlMetrics>,
}

impl Autoscaler {
    /// Creates an autoscaler over `targets`, journaling into `journal`.
    /// `data_addrs` maps topology nodes to the data-plane addresses
    /// forwarding tables should name.
    pub fn new(
        controller: ScalingController,
        journal: Journal,
        targets: Vec<RelayTarget>,
        data_addrs: HashMap<NodeId, String>,
        config: AutoscaleConfig,
    ) -> Autoscaler {
        Autoscaler {
            controller,
            journal,
            targets,
            data_addrs,
            telemetry: Telemetry::new(config.telemetry_window),
            config,
            tracks: HashMap::new(),
            pushed_tables: HashMap::new(),
            drift_since: HashMap::new(),
            decisions: 0,
            metrics: None,
        }
    }

    /// Attaches registry handles for the `control.autoscale.*` metrics.
    pub fn with_metrics(mut self, metrics: ControlMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The wrapped scaling controller (read-only).
    pub fn controller(&self) -> &ScalingController {
        &self.controller
    }

    /// Decisions journaled so far (monotonic across restarts).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Node ids currently draining toward scale-to-zero, ascending.
    pub fn draining(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .tracks
            .iter()
            .filter(|(_, t)| t.draining)
            .map(|(n, _)| *n)
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// Starts the controller, the first time and after every crash.
    /// `state` is what [`Journal::open`] replayed from this autoscaler's
    /// journal, and `link` is fenced at `state.next_epoch()`. It rejects a
    /// link not above `state.epoch`, journals `EpochStarted`, reconciles
    /// ([`crate::reconcile()`], in dependency order) so every reachable
    /// node leaves on the new epoch, continues the decision counter from
    /// `state.scale_decisions`, and arms the fleet as
    /// [`bootstrap`](Self::bootstrap) does when some target has no
    /// journaled table — always, on an empty journal. Returns the
    /// reconciliation report.
    ///
    /// # Errors
    ///
    /// [`AutoscaleError::Send`] with [`SendError::StaleEpoch`] for a stale
    /// link (nothing journaled or sent); otherwise as
    /// [`bootstrap`](Self::bootstrap). A failed reconciliation push is
    /// reported, not fatal.
    pub fn start(
        &mut self,
        link: &mut dyn ControlLink,
        state: &ControllerState,
        now: f64,
    ) -> Result<ReconcileReport, AutoscaleError> {
        if link.epoch() <= state.epoch {
            return Err(AutoscaleError::Send(SendError::StaleEpoch));
        }
        self.journal.append(&ControlRecord::EpochStarted {
            epoch: link.epoch(),
        });
        if !state.nodes.is_empty() {
            // Reconciliation pushes under the new epoch; an empty journal
            // has nothing to reconcile and commits with the fleet below.
            self.journal.commit()?;
        }
        let order: Vec<u32> = self
            .dependency_order(|t| state.nodes.get(&t.node).map(|b| &b.table))
            .into_iter()
            .map(|i| self.targets[i].node)
            .collect();
        let report = reconcile_in_order(link, state, now, self.metrics.as_ref(), &order);
        self.decisions = state.scale_decisions;
        let armed = self
            .targets
            .iter()
            .all(|t| state.nodes.get(&t.node).is_some_and(|b| b.last_seq > 0));
        if !armed {
            self.arm(link, now)?;
        }
        Ok(report)
    }

    /// The first start on an empty journal: [`start`](Self::start) on a
    /// fresh [`ControllerState`].
    ///
    /// # Errors
    ///
    /// [`AutoscaleError::Io`] if the journal cannot be made durable (no
    /// signal is sent in that case), [`AutoscaleError::Plan`] /
    /// [`AutoscaleError::Send`] from planning and actuation.
    pub fn bootstrap(
        &mut self,
        link: &mut dyn ControlLink,
        now: f64,
    ) -> Result<(), AutoscaleError> {
        self.start(link, &ControllerState::default(), now).map(drop)
    }

    /// Journals the fleet and arms every relay: one `SessionCreated` per
    /// distinct session found in the targets' settings, one
    /// `VnfLaunched` per target — committed *before* the first signal
    /// leaves — then an initial plan if none exists, settings pushes in
    /// dependency order, and the first table push.
    fn arm(&mut self, link: &mut dyn ControlLink, now: f64) -> Result<(), AutoscaleError> {
        let mut seen_sessions = Vec::new();
        for t in &self.targets {
            for s in &t.settings {
                if let Signal::NcSettings {
                    session,
                    block_size,
                    generation_size,
                    buffer_generations,
                    ..
                } = s
                {
                    if seen_sessions.contains(session) {
                        continue;
                    }
                    seen_sessions.push(*session);
                    self.journal.append(&ControlRecord::SessionCreated {
                        session: *session,
                        block_size: *block_size,
                        generation_size: *generation_size,
                        buffer_generations: *buffer_generations,
                    });
                }
            }
        }
        for t in &self.targets {
            self.journal.append(&ControlRecord::VnfLaunched {
                node: t.node,
                data_center: self.controller.topology().label(t.dc).to_owned(),
                control_addr: t.control_addr.to_string(),
            });
        }
        self.journal.commit()?;
        if self.controller.deployment().is_none() {
            self.controller.replan(now)?;
        }
        let tables = self.tables();
        for i in self.dependency_order(|t| tables.get(&t.dc)) {
            let t = &self.targets[i];
            for s in &t.settings {
                link.push(t.control_addr, s)?;
            }
        }
        self.push_tables(link, &tables)?;
        Ok(())
    }

    /// One loop iteration: poll every target's `NC_STATS`, feed the
    /// telemetry window, run the controller's hysteresis, and actuate
    /// whatever it adopted — journal first, signals second. Also runs
    /// the scale-to-zero policy (see module docs).
    ///
    /// # Errors
    ///
    /// [`AutoscaleError::Io`] when a decision cannot be journaled (the
    /// corresponding signals are *not* sent), [`AutoscaleError::Plan`] /
    /// [`AutoscaleError::Send`] from decision and actuation. Unreachable
    /// targets are not errors; they are counted in the report.
    pub fn poll(
        &mut self,
        link: &mut dyn ControlLink,
        now: f64,
    ) -> Result<PollReport, AutoscaleError> {
        let decide_start = Instant::now();
        let mut report = PollReport::default();
        let before = self.controller.deployment().map(fingerprint);

        // 1. Measure.
        let mut drain_candidates: Vec<(u32, SocketAddr)> = Vec::new();
        let mut measured: Vec<NodeId> = Vec::new();
        let mut traffic_returned = false;
        let probes: Vec<(u32, NodeId, SocketAddr)> = self
            .targets
            .iter()
            .map(|t| (t.node, t.dc, t.control_addr))
            .collect();
        for (node, dc, addr) in probes {
            let stats = match link.query_stats(addr) {
                Ok(s) => s,
                Err(_) => {
                    report.unreachable += 1;
                    continue;
                }
            };
            report.polled += 1;
            let out = snapshot_value(&stats, "relay.datagrams_out").unwrap_or(0.0) as u64;
            let shed = snapshot_value(&stats, "relay.shed_quota").unwrap_or(0.0) as u64;
            let idle_ms = snapshot_value(&stats, "relay.idle_ms").unwrap_or(0.0);
            let daemon_state = snapshot_value(&stats, "relay.daemon_state").map(|v| v as u8);
            let nominal = self.controller.topology().vnf_spec(dc);
            let track = self.tracks.entry(node).or_insert_with(|| TargetTrack {
                last_poll_secs: None,
                last_out: out,
                last_shed: shed,
                baseline_pps: 0.0,
                nominal,
                draining: false,
            });
            let mut out_delta = None;
            if let Some(prev) = track.last_poll_secs {
                let dt = now - prev;
                if dt > 0.0 {
                    let delta = out.saturating_sub(track.last_out);
                    out_delta = Some(delta);
                    // Offered load = what the node forwarded plus what
                    // it shed at the admission/overload gate.
                    let shed_delta = shed.saturating_sub(track.last_shed);
                    let pps = (delta + shed_delta) as f64 / dt;
                    track.baseline_pps = track.baseline_pps.max(pps);
                    if track.baseline_pps > 0.0 && !track.draining {
                        // Capability estimate: the nominal spec scaled
                        // by current throughput relative to the best
                        // this instance ever sustained, floored so a
                        // lull does not read as a dead machine.
                        let ratio = (pps / track.baseline_pps).max(0.05);
                        self.telemetry.record_bandwidth(
                            dc,
                            track.nominal.bin_bps * ratio,
                            track.nominal.bout_bps * ratio,
                        );
                        measured.push(dc);
                    }
                }
            }
            // A relay reporting Draining is draining, whoever drained it
            // (a crashed predecessor, say): returning traffic wakes it.
            track.draining |= daemon_state == Some(3);
            if track.draining && matches!(out_delta, Some(d) if d > 0) {
                // First packet after a drain: traffic is back, re-arm.
                traffic_returned = true;
            }
            if !track.draining
                && daemon_state == Some(1)
                && idle_ms >= self.config.idle_tau_secs * 1000.0
                && out_delta == Some(0)
            {
                drain_candidates.push((node, addr));
            }
            track.last_poll_secs = Some(now);
            track.last_out = out;
            track.last_shed = shed;
        }

        // 2. Decide: run the smoothed estimates through the controller's
        // ρ/τ hysteresis and let time-based windows fire.
        let events = self
            .telemetry
            .drain_events(self.controller.topology(), self.config.min_rel_change);
        report.events = events.len() as u32;
        let mut event_dcs: HashSet<NodeId> = HashSet::new();
        for event in &events {
            if let ScalingEvent::BandwidthObserved { dc, .. } = event {
                self.drift_since.entry(*dc).or_insert(now);
                event_dcs.insert(*dc);
            }
        }
        for event in events {
            self.controller.handle(event, now)?;
        }
        // Recovery closure: telemetry stays silent while an estimate
        // sits within min_rel_change of the current belief, but the
        // controller's pending windows need to *hear* that agreement —
        // a dip whose measurement stream recovered (rather than went
        // silent) would otherwise survive the staleness sweep and be
        // applied at the next tick even though it never persisted for
        // τ1. Feed non-deviating estimates back as explicit
        // confirmations so the window reset sees them.
        measured.sort_unstable_by_key(|dc| dc.0);
        measured.dedup();
        for dc in measured {
            if event_dcs.contains(&dc) {
                continue;
            }
            let Some((in_bps, out_bps)) = self.telemetry.bandwidth_estimate(dc) else {
                continue;
            };
            self.drift_since.remove(&dc);
            let coding_bps = self.controller.topology().vnf_spec(dc).coding_bps;
            self.controller.handle(
                ScalingEvent::BandwidthObserved {
                    dc,
                    spec: VnfSpec {
                        bin_bps: in_bps,
                        bout_bps: out_bps,
                        coding_bps,
                    },
                },
                now,
            )?;
        }
        self.controller.tick(now)?;

        // 3. Actuate: journal the decision durably, then push deltas.
        let after = self.controller.deployment().map(fingerprint);
        if after.is_some() && after != before {
            report.adopted = true;
            self.decisions += 1;
            let (vnfs, rate_bps) = {
                let dep = self.controller.deployment().expect("adopted deployment");
                (dep.total_vnfs() as u32, dep.total_rate_bps())
            };
            self.journal.append(&ControlRecord::ScaleDecision {
                epoch: link.epoch(),
                seq: self.decisions,
                vnfs,
                rate_bps,
            });
            self.journal.commit()?;
            let tables = self.tables();
            report.tables_pushed = self.push_tables(link, &tables)?;
            let detect_ms = self
                .drift_since
                .drain()
                .map(|(_, since)| ((now - since) * 1000.0).max(0.0) as u64)
                .max();
            let decide_ns = decide_start.elapsed().as_nanos() as u64;
            if let Some(m) = &self.metrics {
                m.record_autoscale_adoption(detect_ms, decide_ns);
            }
        }

        // 4. Scale to zero — but never in a pass that just re-planned:
        // the new deployment may be about to route traffic through a
        // node that merely *looked* idle under the old one.
        if !report.adopted && !drain_candidates.is_empty() {
            // Upstream first: nothing armed still forwards to a drained
            // relay.
            let tables = self.tables();
            let order = self.dependency_order(|t| tables.get(&t.dc));
            let rank = |node: u32| order.iter().position(|&i| self.targets[i].node == node);
            drain_candidates.sort_by_key(|&(node, _)| std::cmp::Reverse(rank(node)));
            for (node, addr) in drain_candidates {
                let deadline = now + self.config.drain_tau_secs as f64;
                self.journal.append(&ControlRecord::VnfEnded {
                    node,
                    linger_deadline_secs: deadline,
                });
                self.journal.commit()?;
                link.push(
                    addr,
                    &Signal::NcVnfEnd {
                        tau_secs: self.config.drain_tau_secs,
                    },
                )?;
                if let Some(track) = self.tracks.get_mut(&node) {
                    track.draining = true;
                }
                report.drained.push(node);
                if let Some(m) = &self.metrics {
                    m.autoscale_drained.inc();
                }
            }
        }

        // 5. Wake: a draining node saw traffic — re-arm the fleet.
        if traffic_returned {
            report.woken = self.wake(link)?;
        }

        if let Some(m) = &self.metrics {
            m.autoscale_polls.inc();
            m.autoscale_draining.set(self.draining().len() as f64);
        }
        Ok(report)
    }

    /// Re-arms every draining target in dependency order (downstream
    /// first), journaling `VnfReused` before each settings push. Called
    /// from [`poll`](Self::poll) when counters show traffic returned, and
    /// directly by whoever receives a data-plane wake frame (first packet
    /// / first NACK at a draining relay).
    ///
    /// Returns the node ids woken.
    ///
    /// # Errors
    ///
    /// [`AutoscaleError::Io`] / [`AutoscaleError::Send`] as in
    /// [`poll`](Self::poll).
    pub fn wake(&mut self, link: &mut dyn ControlLink) -> Result<Vec<u32>, AutoscaleError> {
        let tables = self.tables();
        let order: Vec<usize> = self
            .dependency_order(|t| tables.get(&t.dc))
            .into_iter()
            .filter(|&i| {
                self.tracks
                    .get(&self.targets[i].node)
                    .is_some_and(|t| t.draining)
            })
            .collect();
        let mut woken = Vec::new();
        for i in order {
            let t = &self.targets[i];
            self.journal
                .append(&ControlRecord::VnfReused { node: t.node });
            self.journal.commit()?;
            for s in &t.settings {
                link.push(t.control_addr, s)?;
            }
            if let Some(track) = self.tracks.get_mut(&t.node) {
                track.draining = false;
            }
            // The re-armed relay needs its forwarding table again; force
            // a re-push on the next table pass.
            self.pushed_tables.remove(&t.node);
            woken.push(t.node);
            if let Some(m) = &self.metrics {
                m.autoscale_woken.inc();
            }
        }
        if !woken.is_empty() {
            self.push_tables(link, &tables)?;
            if let Some(m) = &self.metrics {
                m.autoscale_draining.set(self.draining().len() as f64);
            }
        }
        Ok(woken)
    }

    /// The current deployment's forwarding table per data center (none
    /// before the first plan).
    fn tables(&self) -> HashMap<NodeId, ForwardingTable> {
        let Some(dep) = self.controller.deployment() else {
            return HashMap::new();
        };
        let topo = self.controller.topology();
        let addr_of = |n: NodeId| {
            self.data_addrs
                .get(&n)
                .cloned()
                .unwrap_or_else(|| topo.label(n).to_owned())
        };
        tables_from_deployment(topo, self.controller.sessions(), dep, &addr_of)
    }

    /// The one actuation order, as target indices, downstream first:
    /// each target comes after every target its table names as a next
    /// hop, so a relay is armed before anything forwards to it
    /// (DESIGN.md §15). Drains walk it backwards. `table_of` gives the
    /// table a target holds or is about to be pushed; ties, and a cycle,
    /// go in node-id order.
    fn dependency_order<'t>(
        &self,
        table_of: impl Fn(&RelayTarget) -> Option<&'t ForwardingTable>,
    ) -> Vec<usize> {
        let targets = &self.targets;
        let hops: Vec<Vec<&String>> = targets
            .iter()
            .map(|t| {
                table_of(t)
                    .into_iter()
                    .flat_map(|t| t.iter())
                    .flat_map(|(_, h)| h)
                    .collect()
            })
            .collect();
        // Whether target i's table names target j's data address.
        let names = |i: usize, j: usize| {
            let addr = self.data_addrs.get(&targets[j].dc);
            i != j && addr.is_some_and(|a| hops[i].contains(&a))
        };
        let mut left: Vec<usize> = (0..targets.len()).collect();
        left.sort_by_key(|&i| targets[i].node);
        let mut order = Vec::with_capacity(left.len());
        while !left.is_empty() {
            let ready = left
                .iter()
                .position(|&i| left.iter().all(|&j| !names(i, j)));
            order.push(left.remove(ready.unwrap_or(0)));
        }
        order
    }

    /// Pushes `tables` (the current deployment's) to every target whose
    /// table changed since the last push, in dependency order. Each push
    /// is journaled (`TablePushed`, with the fence coordinates the link
    /// will use) and committed *before* the signal is sent. Returns the
    /// number of deltas pushed.
    fn push_tables(
        &mut self,
        link: &mut dyn ControlLink,
        tables: &HashMap<NodeId, ForwardingTable>,
    ) -> Result<u32, AutoscaleError> {
        let mut pushed = 0;
        for i in self.dependency_order(|t| tables.get(&t.dc)) {
            let t = &self.targets[i];
            let Some(table) = tables.get(&t.dc) else {
                continue;
            };
            let text = table.to_text();
            if self.pushed_tables.get(&t.node) == Some(&text) {
                continue;
            }
            self.journal.append(&ControlRecord::TablePushed {
                node: t.node,
                epoch: link.epoch(),
                seq: link.next_seq(t.control_addr),
                table: text.clone(),
            });
            self.journal.commit()?;
            link.push(
                t.control_addr,
                &Signal::NcForwardTab {
                    table: text.clone(),
                },
            )?;
            self.pushed_tables.insert(t.node, text);
            pushed += 1;
        }
        Ok(pushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use ncvnf_deploy::{Planner, ScalingParams, SessionSpec, TopologyBuilder};
    use ncvnf_rlnc::SessionId;

    /// A scripted link: records every push, serves canned stats.
    struct MockLink {
        epoch: u64,
        seqs: HashMap<SocketAddr, u64>,
        pushed: Vec<(SocketAddr, Signal)>,
        stats: HashMap<SocketAddr, String>,
    }

    impl MockLink {
        fn new(epoch: u64) -> Self {
            MockLink {
                epoch,
                seqs: HashMap::new(),
                pushed: Vec::new(),
                stats: HashMap::new(),
            }
        }

        fn set_stats(&mut self, addr: SocketAddr, out: u64, idle_ms: u64, state: u8) {
            self.stats.insert(
                addr,
                format!(
                    r#"{{"counters":{{"relay.datagrams_out":{out}}},"gauges":{{"relay.idle_ms":{idle_ms},"relay.daemon_state":{state}}}}}"#
                ),
            );
        }
    }

    impl ControlLink for MockLink {
        fn epoch(&self) -> u64 {
            self.epoch
        }

        fn next_seq(&self, to: SocketAddr) -> u64 {
            self.seqs.get(&to).copied().unwrap_or(0) + 1
        }

        fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
            let seq = self.seqs.entry(to).or_insert(0);
            *seq += 1;
            self.pushed.push((to, signal.clone()));
            Ok(SendReceipt {
                seq: *seq,
                attempts: 1,
                rtt: std::time::Duration::from_micros(50),
            })
        }

        fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
            self.stats
                .get(&to)
                .cloned()
                .ok_or(SendError::Timeout { attempts: 1 })
        }
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("ncvnf-autoscale-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn settings_for(session: u16, role: VnfRoleWire, port: u16) -> Vec<Signal> {
        vec![Signal::NcSettings {
            session: SessionId::new(session),
            role,
            data_port: port,
            block_size: 1024,
            generation_size: 4,
            buffer_generations: 64,
        }]
    }

    /// src → dcA (recoder) → dcB (decoder) → rx, with fast hysteresis.
    fn harness(tag: &str) -> (Autoscaler, MockLink) {
        let mut b = TopologyBuilder::new();
        let spec = VnfSpec {
            bin_bps: 920e6,
            bout_bps: 920e6,
            coding_bps: 1000e6,
        };
        let dc_a = b.data_center("dc-a", spec);
        let dc_b = b.data_center("dc-b", spec);
        let s = b.source("src", 400e6);
        let r = b.receiver("rx", 400e6);
        b.link(s, dc_a, 5.0)
            .link(dc_a, dc_b, 5.0)
            .link(dc_b, r, 5.0);
        let params = ScalingParams {
            alpha: 20e6,
            rho1: 0.05,
            tau1_secs: 2.0,
            rho2: 0.05,
            tau2_secs: 2.0,
            pool_tau_secs: 60.0,
            launch_latency_secs: 0.0,
        };
        let mut controller = ScalingController::new(b.build(), Planner::new(), params);
        controller
            .handle(
                ScalingEvent::SessionJoin(SessionSpec::elastic(
                    SessionId::new(7),
                    s,
                    vec![r],
                    200.0,
                )),
                0.0,
            )
            .unwrap();
        let (journal, _, _) = Journal::open(temp_wal(tag)).unwrap();
        let targets = vec![
            RelayTarget {
                node: 1,
                dc: dc_a,
                control_addr: addr(9101),
                role: VnfRoleWire::Recoder,
                settings: settings_for(7, VnfRoleWire::Recoder, 9201),
            },
            RelayTarget {
                node: 2,
                dc: dc_b,
                control_addr: addr(9102),
                role: VnfRoleWire::Decoder,
                settings: settings_for(7, VnfRoleWire::Decoder, 9202),
            },
        ];
        let mut data_addrs = HashMap::new();
        data_addrs.insert(dc_a, "127.0.0.1:9201".to_owned());
        data_addrs.insert(dc_b, "127.0.0.1:9202".to_owned());
        data_addrs.insert(r, "127.0.0.1:9203".to_owned());
        let config = AutoscaleConfig {
            min_rel_change: 0.02,
            telemetry_window: 1,
            idle_tau_secs: 5.0,
            drain_tau_secs: 30,
        };
        let auto = Autoscaler::new(controller, journal, targets, data_addrs, config);
        (auto, MockLink::new(1))
    }

    #[test]
    fn bootstrap_journals_before_arming_in_dependency_order() {
        let (mut auto, mut link) = harness("bootstrap");
        auto.bootstrap(&mut link, 0.0).unwrap();
        // Journal replays to the full fleet belief.
        let path = auto.journal.path().to_path_buf();
        drop(auto);
        let (_, state, report) = Journal::open(&path).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(state.epoch, 1);
        assert_eq!(state.nodes.len(), 2);
        assert_eq!(state.sessions.len(), 1);
        // Node 1's table names node 2, so node 2 (downstream) was armed
        // first, settings and table alike.
        let settings_order: Vec<SocketAddr> = link
            .pushed
            .iter()
            .filter(|(_, s)| matches!(s, Signal::NcSettings { .. }))
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(settings_order, vec![addr(9102), addr(9101)]);
        let tables: Vec<SocketAddr> = link
            .pushed
            .iter()
            .filter(|(_, s)| matches!(s, Signal::NcForwardTab { .. }))
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(tables, vec![addr(9102), addr(9101)]);
    }

    #[test]
    fn steady_traffic_never_adopts_or_drains() {
        let (mut auto, mut link) = harness("steady");
        auto.bootstrap(&mut link, 0.0).unwrap();
        let before = link.pushed.len();
        let mut out = 0u64;
        for i in 0..6 {
            out += 1000;
            link.set_stats(addr(9101), out, 10, 1);
            link.set_stats(addr(9102), out, 10, 1);
            let report = auto.poll(&mut link, 1.0 + i as f64).unwrap();
            assert!(!report.adopted, "steady load must not re-plan");
            assert!(report.drained.is_empty(), "busy nodes must not drain");
        }
        assert_eq!(link.pushed.len(), before, "no signals under steady state");
    }

    #[test]
    fn persistent_bandwidth_drop_is_adopted_and_journaled_before_push() {
        let (mut auto, mut link) = harness("drop");
        auto.bootstrap(&mut link, 0.0).unwrap();
        // Establish a baseline rate, then collapse dc-a's throughput to
        // 30% and hold it past τ1 = 2 s.
        let mut out = 0u64;
        for i in 0..3 {
            out += 10_000;
            link.set_stats(addr(9101), out, 10, 1);
            link.set_stats(addr(9102), out, 10, 1);
            auto.poll(&mut link, 1.0 + i as f64).unwrap();
        }
        let mut adopted = false;
        for i in 0..8 {
            out += 3_000;
            link.set_stats(addr(9101), out, 10, 1);
            link.set_stats(addr(9102), out, 10, 1);
            let report = auto.poll(&mut link, 4.0 + i as f64).unwrap();
            adopted |= report.adopted;
        }
        assert!(adopted, "a persistent capability drop must be adopted");
        assert!(auto.decisions() >= 1);
        let path = auto.journal.path().to_path_buf();
        drop(auto);
        let (_, state, _) = Journal::open(&path).unwrap();
        assert!(
            state.scale_decisions >= 1,
            "the decision must be in the WAL"
        );
    }

    #[test]
    fn idle_relay_drains_and_traffic_wakes_it_downstream_first() {
        let (mut auto, mut link) = harness("drain");
        auto.bootstrap(&mut link, 0.0).unwrap();
        // Two polls with zero counter movement and a large idle gauge.
        link.set_stats(addr(9101), 500, 20_000, 1);
        link.set_stats(addr(9102), 500, 20_000, 1);
        auto.poll(&mut link, 1.0).unwrap();
        let report = auto.poll(&mut link, 2.0).unwrap();
        // Upstream (node 1) drains first: nothing armed forwards to a
        // drained relay.
        assert_eq!(report.drained, vec![1, 2]);
        assert_eq!(auto.draining(), vec![1, 2]);
        let ends: Vec<SocketAddr> = link
            .pushed
            .iter()
            .filter(|(_, s)| matches!(s, Signal::NcVnfEnd { tau_secs: 30 }))
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(ends, vec![addr(9101), addr(9102)]);
        // Traffic returns at the upstream relay: both wake, the
        // downstream one re-armed first although it saw no packets.
        link.set_stats(addr(9101), 900, 5, 3);
        let report = auto.poll(&mut link, 3.0).unwrap();
        assert_eq!(report.woken, vec![2, 1]);
        assert!(auto.draining().is_empty());
        let wake_settings: Vec<SocketAddr> = link
            .pushed
            .iter()
            .skip_while(|(_, s)| !matches!(s, Signal::NcVnfEnd { .. }))
            .filter(|(_, s)| matches!(s, Signal::NcSettings { .. }))
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(wake_settings, vec![addr(9102), addr(9101)]);
        // The journal remembers the full drain/reuse cycle.
        let path = auto.journal.path().to_path_buf();
        drop(auto);
        let (_, state, _) = Journal::open(&path).unwrap();
        for node in [1u32, 2] {
            assert!(
                matches!(
                    state.nodes.get(&node).map(|b| &b.status),
                    Some(crate::journal::NodeStatus::Active)
                ),
                "node {node} must be active again after reuse"
            );
        }
    }

    #[test]
    fn start_rejects_a_stale_link_and_fences_every_node_on_restart() {
        let (mut auto, mut link) = harness("start");
        let path = auto.journal.path().to_path_buf();
        auto.bootstrap(&mut link, 0.0).unwrap();
        drop(auto);
        // Incarnation 2 on the journal incarnation 1 left.
        let (mut restarted, mut link2) = harness("start-2");
        let (journal, state, _) = Journal::open(&path).unwrap();
        restarted.journal = journal;
        let stale = restarted.start(&mut MockLink::new(state.epoch), &state, 1.0);
        assert!(matches!(
            stale,
            Err(AutoscaleError::Send(SendError::StaleEpoch))
        ));
        for a in [addr(9101), addr(9102)] {
            link2.set_stats(a, 0, 10, 1);
        }
        link2.epoch = state.next_epoch();
        let report = restarted.start(&mut link2, &state, 1.0).unwrap();
        // Armed: no bootstrap, just one table push per node, downstream
        // first, each under epoch 2.
        assert_eq!(report.repushed_ok, 2);
        let tables: Vec<SocketAddr> = link2.pushed.iter().map(|(a, _)| *a).collect();
        assert_eq!(tables, vec![addr(9102), addr(9101)]);
        drop(restarted);
        let (_, state, _) = Journal::open(&path).unwrap();
        assert_eq!(state.epoch, 2, "the stale start journaled nothing");
    }

    #[test]
    fn unreachable_targets_are_counted_not_fatal() {
        let (mut auto, mut link) = harness("unreach");
        auto.bootstrap(&mut link, 0.0).unwrap();
        link.set_stats(addr(9101), 100, 10, 1);
        // Node 2 has no canned stats → Timeout.
        link.stats.remove(&addr(9102));
        let report = auto.poll(&mut link, 1.0).unwrap();
        assert_eq!(report.polled, 1);
        assert_eq!(report.unreachable, 1);
    }
}
