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
//! **One belief.** What the controller believes of the fleet is the
//! journal's [`ControllerState`], advanced by [`ControllerState::apply`]
//! with each record journaled: always the journal's replay. Every table
//! push is a [`ForwardingTable::diff`] of it against the plan.
//!
//! **Scale-to-zero** rides the same poll: a relay whose data path has
//! been idle past `idle_tau_secs` *and* whose datagram counters did not
//! move since the previous poll is wound into the τ-pool with
//! `NC_VNF_END` (journaled first). The first returning packet — observed
//! as a counter delta, or reported out-of-band via a
//! `ncvnf_dataplane::feedback` wake frame — re-arms every draining
//! instance in dependency order via [`Autoscaler::wake`]. Drains walk
//! that order backwards: upstream first. An idle relay gives no
//! capability sample.
//!
//! **Failure detection** rides it too: the `NC_STATS` sweep is the
//! heartbeat. A target that leaves two sweeps in a row (`LOST_AFTER`)
//! unanswered is *lost*: its data center's capability goes to zero at
//! once (no ρ1/τ1 wait) and the re-solve is adopted, journaled and pushed
//! like any other, so the survivors route around it. A target whose last
//! sweep went unanswered, or whose last push failed, is sent nothing; its
//! next answer re-arms it, and gives a lost one its nominal capability
//! back.
//!
//! [`Autoscaler::start`] is the one entry that starts a controller, the
//! first time and after every crash: it fences the fleet under a new
//! epoch, reconciles the journal's belief with the live relays and arms
//! the targets that need it.
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

use crate::daemon::DaemonState;
use crate::diff::tables_from_deployment;
use crate::fwdtab::ForwardingTable;
use crate::journal::{ControlRecord, ControllerState, Journal, NodeStatus};
use crate::metrics::ControlMetrics;
use crate::reconcile::{reconcile_in_order, snapshot_value, ReconcileReport};
use crate::sender::{SendError, SendReceipt};
use crate::signal::{Signal, VnfRoleWire};
use crate::telemetry::Telemetry;

/// The slice of [`crate::SignalSender`] the autoscaler depends on. Production
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
    /// Pushes one wave of frames — frames to one node in order — and
    /// blocks until every one is answered or failed. Outcomes in frame
    /// order. The default pushes one frame after another.
    fn push_wave(
        &mut self,
        frames: &[(SocketAddr, Signal)],
    ) -> Vec<Result<SendReceipt, SendError>> {
        frames.iter().map(|(to, s)| self.push(*to, s)).collect()
    }
    /// Queries every node's `NC_STATS` snapshot; outcomes in `to`'s
    /// order. The default queries one node after another.
    fn query_all(&mut self, to: &[SocketAddr]) -> Vec<Result<String, SendError>> {
        to.iter().map(|to| self.query_stats(*to)).collect()
    }
}

/// One dependency depth of an actuation: the records that make it
/// durable and the frames that carry it out.
#[derive(Debug, Default)]
pub(crate) struct Wave {
    pub(crate) records: Vec<ControlRecord>,
    pub(crate) frames: Vec<(SocketAddr, Signal)>,
}

impl Wave {
    /// Adds `signal` for `to`; returns the sequence number it will carry.
    fn push(&mut self, link: &dyn ControlLink, to: SocketAddr, signal: Signal) -> u64 {
        let earlier = self.frames.iter().filter(|(a, _)| *a == to).count() as u64;
        self.frames.push((to, signal));
        link.next_seq(to) + earlier
    }

    /// Adds `table` for `node` at `to`, journaled as `TablePushed` with
    /// the fence coordinates it will carry; `before` frames to `to` leave
    /// in earlier waves.
    fn table(
        &mut self,
        link: &dyn ControlLink,
        node: u32,
        to: SocketAddr,
        table: &ForwardingTable,
        before: u64,
    ) {
        let table = table.to_text();
        let frame = Signal::NcForwardTab {
            table: table.clone(),
        };
        let seq = self.push(link, to, frame) + before;
        let epoch = link.epoch();
        self.records.push(ControlRecord::TablePushed {
            node,
            epoch,
            seq,
            table,
        });
    }
}

/// The one actuation step, wave by wave: the wave's records are journaled
/// and applied to the belief, and commit under one `fdatasync` (when there
/// is a journal), then its frames leave together, and the next wave starts
/// only once each is answered. So every frame's record is durable before
/// the frame leaves, and a wave of downstream relays is armed before the
/// wave that forwards to it (DESIGN.md §14). `answered` books each frame's
/// outcome; the first error it returns ends the actuation after that wave.
pub(crate) fn wave_step(
    mut journal: Option<(&mut Journal, &mut ControllerState)>,
    link: &mut dyn ControlLink,
    waves: Vec<Wave>,
    mut answered: impl FnMut(
        SocketAddr,
        &Signal,
        Result<SendReceipt, SendError>,
    ) -> Result<(), SendError>,
) -> Result<(), AutoscaleError> {
    for wave in waves {
        if let Some((journal, belief)) = journal.as_mut() {
            for record in &wave.records {
                journal.append(record);
                belief.apply(record);
            }
            journal.commit()?;
        }
        let mut failed = None;
        for ((to, signal), outcome) in wave.frames.iter().zip(link.push_wave(&wave.frames)) {
            if let Err(e) = answered(*to, signal, outcome) {
                failed.get_or_insert(e);
            }
        }
        if let Some(e) = failed {
            return Err(e.into());
        }
    }
    Ok(())
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

/// Unanswered `NC_STATS` sweeps in a row after which a target is lost.
/// Each such sweep already waited out a whole retry budget for it
/// (1,125 ms with [`crate::SignalSender`]), so one miss is a lost
/// exchange and two are a relay that is gone: a killed relay is lost on
/// the second sweep after its death.
const LOST_AFTER: u32 = 2;

/// What the autoscaler measured of one target across polls.
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
    /// Sweeps in a row this target left unanswered (the start's
    /// reconciliation probe counts as one; a failed push counts as one
    /// too). While it is above zero the target is sent nothing.
    misses: u32,
}

impl TargetTrack {
    fn new(nominal: VnfSpec) -> TargetTrack {
        TargetTrack {
            last_poll_secs: None,
            last_out: 0,
            last_shed: 0,
            baseline_pps: 0.0,
            nominal,
            misses: 0,
        }
    }

    /// Missed `LOST_AFTER` sweeps in a row and has not answered since.
    fn lost(&self) -> bool {
        self.misses >= LOST_AFTER
    }
}

/// Outcome of one [`Autoscaler::poll`] pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PollReport {
    /// Targets that answered `NC_STATS`.
    pub polled: u32,
    /// Targets that did not answer.
    pub unreachable: u32,
    /// Node ids lost this pass: their second unanswered sweep in a row.
    pub lost: Vec<u32>,
    /// Node ids that answered again this pass after being lost.
    pub returned: Vec<u32>,
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

/// The relay's lifecycle state, as its `NC_STATS` answer reports it.
fn reported_state(stats: &str) -> Option<DaemonState> {
    snapshot_value(stats, "relay.daemon_state").and_then(|v| DaemonState::from_code(v as u8))
}

/// The autoscaler daemon: owns the scaling controller, the write-ahead
/// journal and the belief it replays to, and the relay fleet description,
/// and drives them from live `NC_STATS` measurements. See the module docs
/// for the loop shape.
pub struct Autoscaler {
    controller: ScalingController,
    journal: Journal,
    /// The belief about the fleet: the replay of every record in
    /// `journal`, advanced record by record as they are journaled.
    state: ControllerState,
    targets: Vec<RelayTarget>,
    /// Data-plane address of each topology node, for rendering
    /// forwarding-table next hops.
    data_addrs: HashMap<NodeId, String>,
    telemetry: Telemetry,
    config: AutoscaleConfig,
    tracks: HashMap<u32, TargetTrack>,
    /// Controller clock at which each DC's current drift window opened
    /// (first deviating observation); cleared on adoption.
    drift_since: HashMap<NodeId, f64>,
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
            state: ControllerState::default(),
            targets,
            data_addrs,
            telemetry: Telemetry::new(config.telemetry_window),
            config,
            tracks: HashMap::new(),
            drift_since: HashMap::new(),
            metrics: None,
        }
    }

    /// Attaches registry handles for the `control.autoscale.*` metrics,
    /// and hands them to the journal ([`Journal::with_metrics`]: what it
    /// replayed on open is counted at once).
    pub fn with_metrics(mut self, metrics: ControlMetrics) -> Self {
        self.journal = self.journal.with_metrics(metrics.clone());
        self.metrics = Some(metrics);
        self
    }

    /// The wrapped scaling controller (read-only).
    pub fn controller(&self) -> &ScalingController {
        &self.controller
    }

    /// Decisions journaled so far (monotonic across restarts).
    pub fn decisions(&self) -> u64 {
        self.state.scale_decisions
    }

    /// Node ids the belief has draining toward scale-to-zero, ascending
    /// (a lost target is not among them).
    pub fn draining(&self) -> Vec<u32> {
        self.state
            .nodes
            .iter()
            .filter(|(_, b)| matches!(b.status, NodeStatus::Draining { .. }))
            .filter(|(n, _)| self.tracks.get(n).is_some_and(|t| !t.lost()))
            .map(|(n, _)| *n)
            .collect()
    }

    /// Starts the controller, the first time and after every crash.
    /// `state` is what [`Journal::open`] replayed from this autoscaler's
    /// journal; it becomes the autoscaler's belief. `link` is fenced at
    /// `state.next_epoch()`. It rejects a link not above `state.epoch`,
    /// journals `EpochStarted`, reconciles ([`crate::reconcile()`], in
    /// dependency order) so every reachable node leaves on the new epoch,
    /// and arms every target that needs it (module docs) — every target,
    /// on an empty journal. Returns the reconciliation report.
    ///
    /// # Errors
    ///
    /// [`AutoscaleError::Send`] with [`SendError::StaleEpoch`] for a stale
    /// link (nothing journaled or sent); otherwise as
    /// [`poll`](Self::poll). A failed reconciliation push is reported and
    /// counts as a miss, not fatal.
    pub fn start(
        &mut self,
        link: &mut dyn ControlLink,
        state: &ControllerState,
        now: f64,
    ) -> Result<ReconcileReport, AutoscaleError> {
        if link.epoch() <= state.epoch {
            return Err(AutoscaleError::Send(SendError::StaleEpoch));
        }
        self.state = state.clone();
        let started = ControlRecord::EpochStarted {
            epoch: link.epoch(),
        };
        self.journal.append(&started);
        self.state.apply(&started);
        if !state.nodes.is_empty() {
            // Reconciliation pushes under the new epoch; an empty journal
            // has nothing to reconcile and commits with the fleet below.
            self.journal.commit()?;
        }
        let order: Vec<Vec<u32>> = self
            .dependency_waves(|i, j| self.names(self.believed(i), j))
            .into_iter()
            .map(|wave| wave.into_iter().map(|i| self.targets[i].node).collect())
            .collect();
        let (report, answers) =
            reconcile_in_order(link, &self.state, now, self.metrics.as_ref(), &order);
        // The probe waited out a whole retry budget: it counts as a sweep.
        let unreachable = &report.plan.unreachable;
        let answered: Vec<bool> = self
            .targets
            .iter()
            .map(|t| !unreachable.contains(&t.node))
            .collect();
        self.count_misses(&answered);
        // A failed push is a miss: the target's next answer re-arms it.
        for (node, _) in &report.repush_failures {
            if let Some(track) = self.tracks.get_mut(node) {
                track.misses = track.misses.max(1);
            }
        }
        let rearm: Vec<u32> = self
            .targets
            .iter()
            .filter(|t| {
                let answer = answers.iter().find(|(n, _)| *n == t.node);
                self.needs_arming(t.node, answer.and_then(|(_, s)| reported_state(s)))
            })
            .map(|t| t.node)
            .collect();
        if !rearm.is_empty() {
            if self.controller.deployment().is_none() {
                self.controller.replan(now)?;
            }
            let waves = self.arming(link, &rearm);
            self.actuate(link, waves, &mut PollReport::default())?;
        }
        Ok(report)
    }

    /// The first start on an empty journal: [`start`](Self::start) on a
    /// fresh [`ControllerState`].
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start).
    pub fn bootstrap(
        &mut self,
        link: &mut dyn ControlLink,
        now: f64,
    ) -> Result<(), AutoscaleError> {
        self.start(link, &ControllerState::default(), now).map(drop)
    }

    /// One loop iteration: poll every target's `NC_STATS`, feed the
    /// telemetry window, run the controller's hysteresis, and actuate
    /// whatever it adopted — journal first, signals second. Also runs
    /// failure detection and the scale-to-zero policy (see module docs).
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
        let mut drain_candidates: Vec<u32> = Vec::new();
        let mut traffic_returned = false;
        let addrs: Vec<SocketAddr> = self.targets.iter().map(|t| t.control_addr).collect();
        let answers = link.query_all(&addrs);
        let answered: Vec<bool> = answers.iter().map(Result::is_ok).collect();
        report.lost = self.count_misses(&answered);
        let mut rearm = Vec::new();
        // (target index, offered packet rate, packets forwarded, packets
        // forwarded or shed) of each target measured over a poll gap.
        let mut rates: Vec<(usize, f64, u64, u64)> = Vec::new();
        for (i, answer) in answers.into_iter().enumerate() {
            let node = self.targets[i].node;
            let Ok(stats) = answer else {
                report.unreachable += 1;
                continue;
            };
            report.polled += 1;
            let daemon_state = reported_state(&stats);
            let track = self.tracks.get_mut(&node).expect("counted");
            let missed = track.misses > 0;
            if missed {
                // Whatever was held back while it was silent reaches it
                // now, a wake included: a drained relay is woken too, and
                // drains again if it stays idle.
                if track.lost() {
                    // Back: its counters may have restarted, so this
                    // answer only re-baselines them.
                    track.last_poll_secs = None;
                    report.returned.push(node);
                }
                track.misses = 0;
            }
            let out = snapshot_value(&stats, "relay.datagrams_out").unwrap_or(0.0) as u64;
            let shed = snapshot_value(&stats, "relay.shed_quota").unwrap_or(0.0) as u64;
            let idle_ms = snapshot_value(&stats, "relay.idle_ms").unwrap_or(0.0);
            let mut out_delta = None;
            if let Some(prev) = track.last_poll_secs {
                let dt = now - prev;
                if dt > 0.0 {
                    let delta = out.saturating_sub(track.last_out);
                    out_delta = Some(delta);
                    // Offered load = what the node forwarded plus what
                    // it shed at the admission/overload gate.
                    let offered = delta + shed.saturating_sub(track.last_shed);
                    let pps = offered as f64 / dt;
                    track.baseline_pps = track.baseline_pps.max(pps);
                    rates.push((i, pps, delta, offered));
                }
            }
            track.last_poll_secs = Some(now);
            track.last_out = out;
            track.last_shed = shed;
            if missed || self.needs_arming(node, daemon_state) {
                rearm.push(node);
            }
            let draining = self.believed_draining(node);
            if draining && matches!(out_delta, Some(d) if d > 0) {
                // First packet after a drain: traffic is back, re-arm.
                traffic_returned = true;
            }
            if !draining
                && daemon_state == Some(DaemonState::Running)
                && idle_ms >= self.config.idle_tau_secs * 1000.0
                && out_delta == Some(0)
            {
                drain_candidates.push(node);
            }
        }
        // Capability estimates: the nominal spec scaled by current
        // throughput relative to the best this instance ever sustained,
        // floored so a lull does not read as a dead machine. A relay that
        // forwarded and shed nothing had no demand — unless a relay whose
        // believed table names it forwarded: then it is starved, not idle.
        let mut measured: Vec<NodeId> = Vec::new();
        for &(i, pps, _, offered) in &rates {
            let (t, track) = (&self.targets[i], &self.tracks[&self.targets[i].node]);
            let fed = |&(j, _, forwarded, _): &(usize, f64, u64, u64)| {
                forwarded > 0 && self.names(self.believed(j), i)
            };
            if (offered == 0 && !rates.iter().any(fed))
                || track.baseline_pps <= 0.0
                || self.believed_draining(t.node)
            {
                continue;
            }
            let ratio = (pps / track.baseline_pps).max(0.05);
            self.telemetry.record_bandwidth(
                t.dc,
                track.nominal.bin_bps * ratio,
                track.nominal.bout_bps * ratio,
            );
            measured.push(t.dc);
        }

        // 2. Decide. A lost target's data center goes to zero and a
        // returned one back to nominal at once: a relay that misses whole
        // retry budgets is not drifting. Its old samples describe a relay
        // that is gone.
        let zero = VnfSpec {
            bin_bps: 0.0,
            bout_bps: 0.0,
            coding_bps: 0.0,
        };
        for (nodes, lost) in [(&report.lost, true), (&report.returned, false)] {
            for &node in nodes {
                let dc = self.target(node).dc;
                let spec = if lost {
                    zero
                } else {
                    self.tracks[&node].nominal
                };
                self.telemetry.forget(dc);
                self.controller.apply_bandwidth(dc, spec, now)?;
                if let Some(m) = &self.metrics {
                    m.record_liveness(node, lost);
                }
            }
        }
        // Then run the smoothed estimates through the controller's ρ/τ
        // hysteresis and let time-based windows fire.
        let events = self
            .telemetry
            .drain_events(self.controller.topology(), self.config.min_rel_change);
        report.events = events.len() as u32;
        if let Some(m) = &self.metrics {
            m.scaling_events.add(events.len() as u64);
        }
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

        // 3. Actuate: the decision commits with the first wave of deltas,
        // which also re-arm every target that needs it.
        let after = self.controller.deployment().map(fingerprint);
        report.adopted = after.is_some() && after != before;
        let mut decision = Vec::new();
        if report.adopted {
            let dep = self.controller.deployment().expect("adopted deployment");
            decision.push(ControlRecord::ScaleDecision {
                epoch: link.epoch(),
                seq: self.state.scale_decisions + 1,
                vnfs: dep.total_vnfs() as u32,
                rate_bps: dep.total_rate_bps(),
            });
        }
        if report.adopted || !rearm.is_empty() {
            let waves = self.arming(link, &rearm);
            self.actuate(link, led_by(decision, waves), &mut report)?;
        }
        if report.adopted {
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
            let mut order =
                self.dependency_waves(|i, j| self.names(tables.get(&self.targets[i].dc), j));
            order.reverse();
            let linger_deadline_secs = now + self.config.drain_tau_secs as f64;
            let tau_secs = self.config.drain_tau_secs;
            let waves = self.waves(order, |_, t, wave| {
                if drain_candidates.contains(&t.node) {
                    wave.records.push(ControlRecord::VnfEnded {
                        node: t.node,
                        linger_deadline_secs,
                    });
                    wave.push(link, t.control_addr, Signal::NcVnfEnd { tau_secs });
                }
            });
            self.actuate(link, waves, &mut report)?;
        }

        // 5. Wake: a draining node saw traffic — re-arm the fleet.
        if traffic_returned {
            self.rearm(link, &mut report)?;
        }

        if let Some(m) = &self.metrics {
            m.autoscale_polls.inc();
            m.autoscale_draining.set(self.draining().len() as f64);
        }
        Ok(report)
    }

    /// Re-arms every draining target in dependency order (downstream
    /// first), journaling `VnfReused` with each one's settings. Called
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
        let mut report = PollReport::default();
        self.rearm(link, &mut report)?;
        Ok(report.woken)
    }

    /// [`wake`](Self::wake), booked into `report`.
    fn rearm(
        &mut self,
        link: &mut dyn ControlLink,
        report: &mut PollReport,
    ) -> Result<(), AutoscaleError> {
        let draining = self.draining();
        if draining.is_empty() {
            return Ok(());
        }
        let waves = self.arming(link, &draining);
        self.actuate(link, waves, report)?;
        if let Some(m) = &self.metrics {
            m.autoscale_draining.set(self.draining().len() as f64);
        }
        Ok(())
    }

    /// Books one sweep, `answered` in target order: each target that did
    /// not answer gains a miss. A sweep that no target answers counts as a
    /// miss for none of them: it says more about the controller's own link
    /// than about the fleet, and a plan with every data center at zero
    /// carries nothing. Returns the targets this sweep lost.
    fn count_misses(&mut self, answered: &[bool]) -> Vec<u32> {
        let anyone = answered.contains(&true);
        let topology = self.controller.topology();
        let mut lost = Vec::new();
        for (t, &answered) in self.targets.iter().zip(answered) {
            let track = self
                .tracks
                .entry(t.node)
                .or_insert_with(|| TargetTrack::new(topology.vnf_spec(t.dc)));
            if anyone && !answered {
                track.misses += 1;
                if track.misses == LOST_AFTER {
                    lost.push(t.node);
                }
            }
        }
        lost
    }

    /// Whether the belief has `node` draining.
    fn believed_draining(&self, node: u32) -> bool {
        self.state
            .nodes
            .get(&node)
            .is_some_and(|b| matches!(b.status, NodeStatus::Draining { .. }))
    }

    /// Whether `node`, which answered reporting `reported`, must be
    /// (re)armed: the belief has no such node, or the relay's settings
    /// never landed (it is Idle, or Draining while believed Active).
    fn needs_arming(&self, node: u32, reported: Option<DaemonState>) -> bool {
        let Some(belief) = self.state.nodes.get(&node) else {
            return true;
        };
        match reported {
            Some(DaemonState::Idle) => true,
            Some(DaemonState::Draining) => belief.status == NodeStatus::Active,
            _ => false,
        }
    }

    fn target(&self, node: u32) -> &RelayTarget {
        self.targets
            .iter()
            .find(|t| t.node == node)
            .expect("a managed target")
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

    /// The table the belief gives target `i`.
    fn believed(&self, i: usize) -> Option<&ForwardingTable> {
        self.state
            .nodes
            .get(&self.targets[i].node)
            .map(|b| &b.table)
    }

    /// Whether `table` names target `j`'s data address as a next hop.
    fn names(&self, table: Option<&ForwardingTable>, j: usize) -> bool {
        let Some(addr) = self.data_addrs.get(&self.targets[j].dc) else {
            return false;
        };
        table.is_some_and(|t| t.iter().any(|(_, hops)| hops.contains(addr)))
    }

    /// The one actuation order, as waves of target indices: a target's
    /// wave comes after the wave of every target `after(i, j)` says target
    /// `i` must follow. With `after` = "i's table names j" that is
    /// downstream first, so a relay is armed before anything forwards to
    /// it (DESIGN.md §14); drains walk those waves backwards. A wave lists
    /// its targets in node-id order; a cycle puts its lowest node id in a
    /// wave of its own.
    fn dependency_waves(&self, after: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
        let targets = &self.targets;
        let mut left: Vec<usize> = (0..targets.len()).collect();
        left.sort_by_key(|&i| targets[i].node);
        let mut waves = Vec::new();
        while !left.is_empty() {
            let mut wave: Vec<usize> = left
                .iter()
                .copied()
                .filter(|&i| left.iter().all(|&j| i == j || !after(i, j)))
                .collect();
            if wave.is_empty() {
                wave.push(left[0]);
            }
            left.retain(|i| !wave.contains(i));
            waves.push(wave);
        }
        waves
    }

    /// One wave per depth of `order`, filled target by target; empty waves
    /// are left out.
    fn waves(
        &self,
        order: Vec<Vec<usize>>,
        mut fill: impl FnMut(usize, &RelayTarget, &mut Wave),
    ) -> Vec<Wave> {
        order
            .into_iter()
            .map(|depth| {
                let mut wave = Wave::default();
                for i in depth {
                    fill(i, &self.targets[i], &mut wave);
                }
                wave
            })
            .filter(|w| !(w.records.is_empty() && w.frames.is_empty()))
            .collect()
    }

    /// The waves that bring every target to the current plan. Each target
    /// in `rearm` is re-armed: `VnfLaunched` journaled if the belief has
    /// no such node (with `SessionCreated` for each session its settings
    /// open that the belief lacks), `VnfReused` if it has, then its
    /// settings and its whole planned table with withdrawals. Every other
    /// target gets the [`ForwardingTable::diff`] of its believed table
    /// against the planned one, when that is not empty. Each table is
    /// journaled as `TablePushed` with the fence coordinates the link
    /// will use. A target whose last sweep went unanswered gets nothing.
    fn arming(&self, link: &dyn ControlLink, rearm: &[u32]) -> Vec<Wave> {
        let tables = self.tables();
        let empty = ForwardingTable::new();
        let order = self.dependency_waves(|i, j| self.names(tables.get(&self.targets[i].dc), j));
        let mut sessions: Vec<_> = self.state.sessions.keys().copied().collect();
        let mut withdrawals = Vec::new();
        let mut waves = self.waves(order, |i, t, wave| {
            if self.tracks.get(&t.node).is_some_and(|k| k.misses > 0) {
                return;
            }
            let armed = rearm.contains(&t.node);
            if armed {
                if self.state.nodes.contains_key(&t.node) {
                    wave.records.push(ControlRecord::VnfReused { node: t.node });
                } else {
                    for s in &t.settings {
                        if let Signal::NcSettings {
                            session,
                            block_size,
                            generation_size,
                            buffer_generations,
                            ..
                        } = s
                        {
                            if sessions.contains(session) {
                                continue;
                            }
                            sessions.push(*session);
                            wave.records.push(ControlRecord::SessionCreated {
                                session: *session,
                                block_size: *block_size,
                                generation_size: *generation_size,
                                buffer_generations: *buffer_generations,
                            });
                        }
                    }
                    wave.records.push(ControlRecord::VnfLaunched {
                        node: t.node,
                        data_center: self.controller.topology().label(t.dc).to_owned(),
                        control_addr: t.control_addr.to_string(),
                    });
                }
                for s in &t.settings {
                    wave.push(link, t.control_addr, s.clone());
                }
            }
            let believed = self.believed(i).unwrap_or(&empty);
            let push = believed.diff(tables.get(&self.targets[i].dc).unwrap_or(&empty), armed);
            // Make before break: routes leave downstream first, and
            // withdrawals after every route, once no planned table
            // forwards the session to this target any more.
            let (mut routes, mut gone) = (ForwardingTable::new(), ForwardingTable::new());
            for (session, hops) in push.iter() {
                let part = if hops.is_empty() {
                    &mut gone
                } else {
                    &mut routes
                };
                part.set(session, hops.to_vec());
            }
            if !routes.is_empty() {
                wave.table(link, t.node, t.control_addr, &routes, 0);
            }
            if !gone.is_empty() {
                withdrawals.push((t.node, t.control_addr, gone));
            }
        });
        let mut last = Wave::default();
        for (node, to, gone) in withdrawals {
            let sent = waves.iter().flat_map(|w| &w.frames);
            let before = sent.filter(|(a, _)| *a == to).count() as u64;
            last.table(link, node, to, &gone, before);
        }
        if !last.frames.is_empty() {
            waves.push(last);
        }
        waves
    }

    /// Runs `waves` through the wave step, the belief advancing with the
    /// journal, and books each frame into `report`: a table the relay
    /// applied, a drain, a re-arm from drain. A push that fails counts as
    /// a miss for its target.
    fn actuate(
        &mut self,
        link: &mut dyn ControlLink,
        waves: Vec<Wave>,
        report: &mut PollReport,
    ) -> Result<(), AutoscaleError> {
        let mut waking = self.draining();
        let (targets, tracks) = (&self.targets, &mut self.tracks);
        let metrics = self.metrics.as_ref();
        wave_step(
            Some((&mut self.journal, &mut self.state)),
            link,
            waves,
            |to, signal, outcome| {
                let Some(node) = targets
                    .iter()
                    .find(|t| t.control_addr == to)
                    .map(|t| t.node)
                else {
                    return outcome.map(drop);
                };
                if let Err(e) = outcome {
                    if let Some(track) = tracks.get_mut(&node) {
                        track.misses = track.misses.max(1);
                    }
                    return Err(e);
                }
                match signal {
                    Signal::NcForwardTab { .. } => report.tables_pushed += 1,
                    Signal::NcVnfEnd { .. } => {
                        report.drained.push(node);
                        if let Some(m) = metrics {
                            m.autoscale_drained.inc();
                        }
                    }
                    Signal::NcSettings { .. } => {
                        if let Some(i) = waking.iter().position(|&n| n == node) {
                            waking.swap_remove(i);
                            report.woken.push(node);
                            if let Some(m) = metrics {
                                m.autoscale_woken.inc();
                            }
                        }
                    }
                    _ => {}
                }
                Ok(())
            },
        )
    }
}

/// `waves` with `records` committed ahead of the first wave's (alone,
/// when there is no wave).
fn led_by(mut records: Vec<ControlRecord>, mut waves: Vec<Wave>) -> Vec<Wave> {
    match waves.first_mut() {
        Some(first) => {
            records.append(&mut first.records);
            first.records = records;
        }
        None => waves.push(Wave {
            records,
            frames: Vec::new(),
        }),
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{scan_frames, Journal};
    use crate::sender::exchange::{Completed, ExchangeTable};
    use crate::sender::Ack;
    use crate::signal::FencedSignal;
    use ncvnf_deploy::{Planner, ScalingParams, SessionSpec, TopologyBuilder};
    use ncvnf_rlnc::SessionId;

    /// A scripted link: the real exchange table over in-memory delivery.
    /// Every push is ACKed and recorded, except to a node in `refuse`,
    /// which answers none; stats are canned, and a node with none stays
    /// silent. With `wal` set, each push also records what that journal
    /// held, durable, as the frame left.
    struct MockLink {
        table: ExchangeTable,
        pushed: Vec<(SocketAddr, Signal)>,
        stats: HashMap<SocketAddr, String>,
        refuse: HashSet<SocketAddr>,
        wal: Option<std::path::PathBuf>,
        durable: Vec<ControllerState>,
    }

    impl MockLink {
        fn new(epoch: u64) -> Self {
            MockLink {
                table: ExchangeTable::new(epoch),
                pushed: Vec::new(),
                stats: HashMap::new(),
                refuse: HashSet::new(),
                wal: None,
                durable: Vec::new(),
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

        fn settle(&mut self, requests: &[(SocketAddr, Signal)]) -> Vec<Completed> {
            let (pushed, stats) = (&mut self.pushed, &self.stats);
            let (wal, durable, refuse) = (&self.wal, &mut self.durable, &self.refuse);
            let requests = requests.iter().map(|(to, s)| (*to, s));
            self.table.settle(
                Instant::now(),
                requests,
                |to, wire| match FencedSignal::from_bytes(wire) {
                    Ok(_) if refuse.contains(&to) => None,
                    Ok((frame, _)) => {
                        if let Some(wal) = wal {
                            let bytes = std::fs::read(wal).expect("journal readable");
                            durable.push(ControllerState::replay(&scan_frames(&bytes).0));
                        }
                        pushed.push((to, frame.signal));
                        Some(Ack::Ok { seq: frame.seq }.to_string().into_bytes())
                    }
                    Err(_) => stats.get(&to).map(|json| json.clone().into_bytes()),
                },
            )
        }
    }

    impl ControlLink for MockLink {
        fn epoch(&self) -> u64 {
            self.table.epoch()
        }

        fn next_seq(&self, to: SocketAddr) -> u64 {
            self.table.next_seq(to)
        }

        fn push(&mut self, to: SocketAddr, signal: &Signal) -> Result<SendReceipt, SendError> {
            self.settle(&[(to, signal.clone())]).remove(0).into_push()
        }

        fn query_stats(&mut self, to: SocketAddr) -> Result<String, SendError> {
            self.settle(&[(to, Signal::NcStats)]).remove(0).into_stats()
        }

        fn push_wave(
            &mut self,
            frames: &[(SocketAddr, Signal)],
        ) -> Vec<Result<SendReceipt, SendError>> {
            let done = self.settle(frames);
            done.into_iter().map(Completed::into_push).collect()
        }

        fn query_all(&mut self, to: &[SocketAddr]) -> Vec<Result<String, SendError>> {
            let queries: Vec<_> = to.iter().map(|to| (*to, Signal::NcStats)).collect();
            let done = self.settle(&queries);
            done.into_iter().map(Completed::into_stats).collect()
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
        fleet(tag, false)
    }

    /// [`harness`]'s fleet, node `i + 1` in dc `i` at control port
    /// `9101 + i` and data port `9201 + i`. With `standby`, a weaker dcC
    /// (decoder, node 3, two VNFs' worth for the session) also links dcA
    /// to rx: the plan leaves it idle until dcB is gone.
    fn fleet(tag: &str, standby: bool) -> (Autoscaler, MockLink) {
        let mut b = TopologyBuilder::new();
        let spec = |bps: f64| VnfSpec {
            bin_bps: bps,
            bout_bps: bps,
            coding_bps: 1000e6,
        };
        let mut dcs = vec![
            b.data_center("dc-a", spec(920e6)),
            b.data_center("dc-b", spec(920e6)),
        ];
        if standby {
            dcs.push(b.data_center("dc-c", spec(300e6)));
        }
        let s = b.source("src", 400e6);
        let r = b.receiver("rx", 400e6);
        b.link(s, dcs[0], 5.0);
        for &dc in &dcs[1..] {
            b.link(dcs[0], dc, 5.0).link(dc, r, 5.0);
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
        let mut targets = Vec::new();
        let mut data_addrs = HashMap::new();
        for (i, &dc) in dcs.iter().enumerate() {
            let role = if i == 0 {
                VnfRoleWire::Recoder
            } else {
                VnfRoleWire::Decoder
            };
            let port = 9201 + i as u16;
            targets.push(RelayTarget {
                node: i as u32 + 1,
                dc,
                control_addr: addr(9101 + i as u16),
                role,
                settings: settings_for(7, role, port),
            });
            data_addrs.insert(dc, format!("127.0.0.1:{port}"));
        }
        let rx_port = 9201 + dcs.len() as u16;
        data_addrs.insert(r, format!("127.0.0.1:{rx_port}"));
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
        link2.table = ExchangeTable::new(state.next_epoch());
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
        assert!(report.lost.is_empty(), "one miss is no loss");
        // The second miss loses the chain's only decoder: the plan
        // carries nothing, and that is still no error.
        let report = auto.poll(&mut link, 2.0).unwrap();
        assert_eq!(report.unreachable, 1);
        assert_eq!(report.lost, vec![2]);
    }

    /// Polls the fleet at `now`, every node in `answering` reporting the
    /// same busy counters.
    fn sweep(
        auto: &mut Autoscaler,
        link: &mut MockLink,
        answering: &[u16],
        now: f64,
    ) -> PollReport {
        link.stats.clear();
        for &port in answering {
            link.set_stats(addr(port), 1000 * now as u64, 5, 1);
        }
        auto.poll(link, now).unwrap()
    }

    /// The standby fleet, started, after one sweep everyone answered.
    fn standby_fleet(tag: &str) -> (Autoscaler, MockLink) {
        let (mut auto, mut link) = fleet(tag, true);
        auto.bootstrap(&mut link, 0.0).unwrap();
        sweep(&mut auto, &mut link, &[9101, 9102, 9103], 1.0);
        (auto, link)
    }

    fn frames_to(link: &MockLink, from: usize, port: u16) -> Vec<&Signal> {
        link.pushed[from..]
            .iter()
            .filter(|(a, _)| *a == addr(port))
            .map(|(_, s)| s)
            .collect()
    }

    #[test]
    fn one_miss_is_not_a_loss_and_two_misses_are_one_loss() {
        let (mut auto, mut link) = standby_fleet("loss");
        let decisions = auto.decisions();
        let report = sweep(&mut auto, &mut link, &[9101, 9103], 2.0);
        assert_eq!((report.unreachable, report.lost.len()), (1, 0));
        assert!(!report.adopted);
        // An answer in between starts the count again, and re-arms what
        // may have been held back from it.
        let since = link.pushed.len();
        sweep(&mut auto, &mut link, &[9101, 9102, 9103], 3.0);
        assert!(matches!(
            frames_to(&link, since, 9102)[..],
            [Signal::NcSettings { .. }, Signal::NcForwardTab { .. }]
        ));
        sweep(&mut auto, &mut link, &[9101, 9103], 4.0);
        let report = sweep(&mut auto, &mut link, &[9101, 9103], 5.0);
        assert_eq!(report.lost, vec![2]);
        assert!(report.adopted, "the loss is re-planned at once");
        assert_eq!(auto.decisions(), decisions + 1);
        let report = sweep(&mut auto, &mut link, &[9101, 9103], 6.0);
        assert!(report.lost.is_empty(), "lost once, not once per miss");
        assert!(!report.adopted);
        // Node 1 now forwards to node 3 alone, and node 3 to rx.
        let table = |port| match frames_to(&link, 0, port).last() {
            Some(Signal::NcForwardTab { table }) => table.clone(),
            other => panic!("no table for {port}: {other:?}"),
        };
        assert!(table(9101).contains("127.0.0.1:9203"));
        assert!(!table(9101).contains("127.0.0.1:9202"));
        assert!(table(9103).contains("127.0.0.1:9204"));
    }

    #[test]
    fn a_lost_target_gets_no_frame_and_no_drain() {
        let (mut auto, mut link) = standby_fleet("lost-quiet");
        sweep(&mut auto, &mut link, &[9101, 9103], 2.0);
        let report = sweep(&mut auto, &mut link, &[9101, 9103], 3.0);
        assert_eq!(report.lost, vec![2]);
        let since = link.pushed.len();
        // The survivors go idle and drain; then traffic wakes them.
        for now in [4.0, 5.0] {
            link.stats.clear();
            link.set_stats(addr(9101), 3000, 20_000, 1);
            link.set_stats(addr(9103), 3000, 20_000, 1);
            auto.poll(&mut link, now).unwrap();
        }
        assert_eq!(auto.draining(), vec![1, 3]);
        link.set_stats(addr(9101), 9000, 5, 3);
        let mut report = auto.poll(&mut link, 6.0).unwrap();
        report.woken.sort_unstable();
        assert_eq!(report.woken, vec![1, 3]);
        assert!(link.pushed.len() > since, "the survivors were driven");
        assert!(
            frames_to(&link, since, 9102).is_empty(),
            "a lost target is sent nothing"
        );
    }

    #[test]
    fn the_loss_adoption_is_durable_before_its_first_frame() {
        let (mut auto, mut link) = standby_fleet("lost-durable");
        link.wal = Some(auto.journal.path().to_path_buf());
        let (pushed, decisions) = (link.pushed.len(), auto.decisions());
        sweep(&mut auto, &mut link, &[9101, 9103], 2.0);
        let report = sweep(&mut auto, &mut link, &[9101, 9103], 3.0);
        assert_eq!(report.lost, vec![2]);
        let frames = &link.pushed[pushed..];
        assert!(!frames.is_empty(), "the reroute was pushed");
        for ((to, signal), durable) in frames.iter().zip(&link.durable) {
            assert_eq!(durable.scale_decisions, decisions + 1);
            let node = u32::from(to.port() - 9100);
            let Signal::NcForwardTab { table } = signal else {
                panic!("the loss pushes tables only: {signal:?}");
            };
            assert_eq!(&durable.nodes[&node].table.to_text(), table);
        }
    }

    #[test]
    fn a_returning_target_gets_its_settings_then_its_table() {
        let (mut auto, mut link) = standby_fleet("return");
        let registry = ncvnf_obs::Registry::new();
        auto.metrics = Some(ControlMetrics::register(&registry));
        sweep(&mut auto, &mut link, &[9101, 9103], 2.0);
        sweep(&mut auto, &mut link, &[9101, 9103], 3.0);
        let since = link.pushed.len();
        let report = sweep(&mut auto, &mut link, &[9101, 9102, 9103], 4.0);
        assert_eq!(report.returned, vec![2]);
        assert!(report.adopted, "the stronger dcB is worth returning to");
        let frames = frames_to(&link, since, 9102);
        assert!(
            matches!(
                frames[..],
                [Signal::NcSettings { .. }, Signal::NcForwardTab { .. }]
            ),
            "{frames:?}"
        );
        // Node 2 is armed before node 1 names it again.
        let first = |port| {
            link.pushed[since..]
                .iter()
                .position(|(a, s)| *a == addr(port) && matches!(s, Signal::NcForwardTab { .. }))
        };
        assert!(first(9102) < first(9101));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("control.autoscale.lost"), Some(1));
        assert_eq!(snap.counter("control.autoscale.returned"), Some(1));
    }

    #[test]
    fn a_drained_target_that_misses_a_sweep_is_rearmed_write_ahead() {
        let (mut auto, mut link) = harness("drained-miss");
        auto.bootstrap(&mut link, 0.0).unwrap();
        link.set_stats(addr(9101), 500, 20_000, 1);
        link.set_stats(addr(9102), 500, 20_000, 1);
        auto.poll(&mut link, 1.0).unwrap();
        assert_eq!(auto.poll(&mut link, 2.0).unwrap().drained, vec![1, 2]);
        link.wal = Some(auto.journal.path().to_path_buf());
        let since = link.pushed.len();
        link.set_stats(addr(9101), 500, 20_000, 3);
        link.stats.remove(&addr(9102));
        let report = auto.poll(&mut link, 3.0).unwrap();
        assert_eq!((report.unreachable, report.lost.len()), (1, 0));
        link.set_stats(addr(9102), 500, 20_000, 3);
        let report = auto.poll(&mut link, 4.0).unwrap();
        assert_eq!(report.woken, vec![2], "its silence may have hidden a wake");
        assert_eq!(auto.draining(), vec![1]);
        let frames = frames_to(&link, since, 9102);
        assert!(
            matches!(
                frames[..],
                [Signal::NcSettings { .. }, Signal::NcForwardTab { .. }]
            ),
            "{frames:?}"
        );
        for ((to, signal), durable) in link.pushed[since..].iter().zip(&link.durable) {
            let belief = &durable.nodes[&u32::from(to.port() - 9100)];
            match signal {
                Signal::NcSettings { .. } => {
                    assert_eq!(belief.status, crate::journal::NodeStatus::Active)
                }
                Signal::NcForwardTab { table } => assert_eq!(&belief.table.to_text(), table),
                other => panic!("a re-arm sends settings and a table: {other:?}"),
            }
        }
    }

    #[test]
    fn a_sweep_nobody_answers_counts_as_no_miss() {
        let (mut auto, mut link) = standby_fleet("all-silent");
        let since = link.pushed.len();
        for now in [2.0, 3.0, 4.0] {
            let report = sweep(&mut auto, &mut link, &[], now);
            assert_eq!((report.polled, report.unreachable), (0, 3));
            assert!(report.lost.is_empty() && !report.adopted);
        }
        assert_eq!(link.pushed.len(), since, "nothing was re-planned");
        // The count starts when someone answers again.
        let report = sweep(&mut auto, &mut link, &[9101, 9103], 5.0);
        assert!(report.lost.is_empty());
        let report = sweep(&mut auto, &mut link, &[9101, 9103], 6.0);
        assert_eq!(report.lost, vec![2]);
    }

    #[test]
    fn scaling_observations_are_counted() {
        let (auto, mut link) = harness("scaling-events");
        let registry = ncvnf_obs::Registry::new();
        let mut auto = auto.with_metrics(ControlMetrics::register(&registry));
        auto.bootstrap(&mut link, 0.0).unwrap();
        let (mut out, mut events) = (0u64, 0u64);
        for (i, step) in [10_000, 10_000, 3_000, 3_000].into_iter().enumerate() {
            out += step;
            link.set_stats(addr(9101), out, 10, 1);
            link.set_stats(addr(9102), out, 10, 1);
            events += u64::from(auto.poll(&mut link, 1.0 + i as f64).unwrap().events);
        }
        assert!(events > 0, "the drop was observed");
        assert_eq!(
            registry.snapshot().counter("control.scaling.events"),
            Some(events)
        );
    }

    /// Polls `auto` at each of `times`, every node in `ports` reporting
    /// `out` datagrams and an idle clock of `idle_ms`.
    fn hold(
        auto: &mut Autoscaler,
        link: &mut MockLink,
        ports: &[u16],
        out: u64,
        idle_ms: u64,
        now: f64,
    ) -> PollReport {
        for &port in ports {
            link.set_stats(addr(port), out, idle_ms, 1);
        }
        auto.poll(link, now).unwrap()
    }

    #[test]
    fn a_poll_over_an_idle_fleet_adopts_no_plan() {
        let (mut auto, mut link) = harness("idle-fleet");
        auto.bootstrap(&mut link, 0.0).unwrap();
        let mut out = 0;
        for now in [1.0, 2.0, 3.0] {
            out += 10_000;
            hold(&mut auto, &mut link, &[9101, 9102], out, 5, now);
        }
        // Traffic stops: the counters freeze, the idle clock runs, and
        // the spell outlasts τ1 before it reaches the drain's τ.
        for (i, now) in [4.0, 5.0, 6.0, 7.0].into_iter().enumerate() {
            let idle_ms = 1000 * (i as u64 + 1);
            let report = hold(&mut auto, &mut link, &[9101, 9102], out, idle_ms, now);
            assert!(
                !report.adopted,
                "an idle fleet is not a weak one (t = {now})"
            );
            assert_eq!(report.events, 0);
        }
        assert_eq!(auto.decisions(), 0);
    }

    #[test]
    fn a_relay_starved_behind_a_forwarding_one_is_weak_not_idle() {
        let (mut auto, mut link) = harness("starved");
        auto.bootstrap(&mut link, 0.0).unwrap();
        let (mut up, mut down) = (0, 0);
        for now in [1.0, 2.0, 3.0] {
            (up, down) = (up + 10_000, down + 10_000);
            link.set_stats(addr(9101), up, 5, 1);
            link.set_stats(addr(9102), down, 5, 1);
            auto.poll(&mut link, now).unwrap();
        }
        // Node 1 keeps forwarding to node 2, whose counters froze.
        let mut adopted = false;
        for now in [4.0, 5.0, 6.0, 7.0] {
            up += 10_000;
            link.set_stats(addr(9101), up, 5, 1);
            link.set_stats(addr(9102), down, 5, 1);
            adopted |= auto.poll(&mut link, now).unwrap().adopted;
        }
        assert!(adopted, "the starved relay's collapse is planned around");
    }

    /// The journal's records from the last `EpochStarted` on.
    fn since_last_start(auto: &Autoscaler) -> Vec<ControlRecord> {
        let records = scan_frames(&std::fs::read(auto.journal.path()).unwrap()).0;
        let start = records
            .iter()
            .rposition(|r| matches!(r, ControlRecord::EpochStarted { .. }))
            .expect("started");
        records[start..].to_vec()
    }

    #[test]
    fn a_restart_arms_only_the_targets_that_need_it() {
        let (mut auto, mut link) = fleet("restart-standby", true);
        auto.bootstrap(&mut link, 0.0).unwrap();
        let path = auto.journal.path().to_path_buf();
        let launched = |records: &[ControlRecord]| {
            let n = records
                .iter()
                .filter(|r| matches!(r, ControlRecord::VnfLaunched { .. }));
            n.count()
        };
        let settings = |link: &MockLink| {
            let n = link
                .pushed
                .iter()
                .filter(|(_, s)| matches!(s, Signal::NcSettings { .. }));
            n.count()
        };
        assert_eq!(
            (launched(&since_last_start(&auto)), settings(&link)),
            (3, 3)
        );
        drop(auto);
        // The standby (node 3) holds no table: the plan leaves it idle.
        // A restart with every relay Running arms nobody.
        for (epoch, idle) in [(2, None), (3, Some(9103))] {
            let (mut restarted, _) = fleet(&format!("restart-standby-{epoch}"), true);
            let (journal, state, _) = Journal::open(&path).unwrap();
            restarted.journal = journal;
            let mut link = MockLink::new(epoch);
            for port in [9101, 9102, 9103] {
                let state = if Some(port) == idle { 0 } else { 1 };
                link.set_stats(addr(port), 0, 10, state);
            }
            let report = restarted.start(&mut link, &state, 1.0).unwrap();
            assert_eq!(report.plan.unarmed, vec![3]);
            let records = since_last_start(&restarted);
            assert_eq!(launched(&records), 0, "no VnfLaunched on restart");
            // A relay whose settings never landed is the one re-armed.
            let reused: Vec<u32> = records
                .iter()
                .filter_map(|r| match r {
                    ControlRecord::VnfReused { node } => Some(*node),
                    _ => None,
                })
                .collect();
            let idle_node = idle.map(|port| u32::from(port - 9100));
            assert_eq!(reused, idle_node.into_iter().collect::<Vec<_>>());
            assert_eq!(settings(&link), usize::from(idle.is_some()));
            drop(restarted);
        }
    }

    #[test]
    fn a_failed_push_is_a_miss_and_the_next_answer_rearms() {
        let (mut auto, mut link) = harness("failed-push");
        auto.bootstrap(&mut link, 0.0).unwrap();
        link.set_stats(addr(9101), 500, 20_000, 1);
        link.set_stats(addr(9102), 500, 20_000, 1);
        auto.poll(&mut link, 1.0).unwrap();
        // The drain reaches node 1 and not node 2.
        link.refuse.insert(addr(9102));
        let drained = auto.poll(&mut link, 2.0);
        assert!(
            matches!(drained, Err(AutoscaleError::Send(_))),
            "{drained:?}"
        );
        link.refuse.clear();
        let since = link.pushed.len();
        link.set_stats(addr(9101), 500, 20_000, 3);
        link.set_stats(addr(9102), 500, 20_000, 1);
        let report = auto.poll(&mut link, 3.0).unwrap();
        assert_eq!(report.polled, 2);
        // Believed draining, never told: re-armed as a wake is.
        assert_eq!(report.woken, vec![2]);
        assert!(matches!(
            frames_to(&link, since, 9102)[..],
            [Signal::NcSettings { .. }, Signal::NcForwardTab { .. }]
        ));
        assert_eq!(auto.draining(), vec![1]);
    }

    #[test]
    fn the_standby_is_withdrawn_when_the_lost_relay_returns() {
        let (mut auto, mut link) = standby_fleet("withdraw");
        sweep(&mut auto, &mut link, &[9101, 9103], 2.0);
        sweep(&mut auto, &mut link, &[9101, 9103], 3.0);
        assert!(matches!(
            frames_to(&link, 0, 9103).last(),
            Some(Signal::NcForwardTab { table }) if table.contains("127.0.0.1:9204")
        ));
        let since = link.pushed.len();
        let report = sweep(&mut auto, &mut link, &[9101, 9102, 9103], 4.0);
        assert!(report.adopted);
        // Node 3 withdraws its route last, once node 1 names node 2 again.
        let (last_to, last) = link.pushed.last().expect("pushed");
        assert_eq!(*last_to, addr(9103));
        assert_eq!(
            last,
            &Signal::NcForwardTab {
                table: "session 7\n".into()
            }
        );
        assert_eq!(frames_to(&link, since, 9101).len(), 1);
        let journal = std::fs::read(auto.journal.path()).unwrap();
        let state = ControllerState::replay(&scan_frames(&journal).0);
        assert_eq!(state.nodes[&3].table.to_text(), "session 7\n");
    }
}
