//! A sharded coding VNF behind real UDP sockets.
//!
//! Threading model (see DESIGN.md §10 "Relay runtime"): the
//! data path is split across [`RelayConfig::shards`] engine shards,
//! each owning its own [`RelayEngine`] and [`RouteCache`] behind its
//! own locks; every datagram is dispatched to the shard selected by
//! [`shard_of`]`(session, generation)`, so one generation's decoder
//! state is never split and shards do not contend. One data thread per
//! data socket runs [`relay_batch`](crate::relay_batch) — drain up to
//! [`RelayConfig::batch`] messages in one `recv_batch` (a single
//! `recvmmsg` on Linux; with `UDP_GRO` a message may be a whole burst),
//! then per flush of at most `batch` datagrams code each shard's group
//! under one lock acquisition and send the egress batch with one
//! `send_batch` (`sendmmsg`, one `UDP_SEGMENT` message per next hop).
//! Between dense batches the thread polls its socket for up to
//! [`POLL_BUDGET`] before it blocks again ([`PollGate`]). With
//! `SO_REUSEPORT` ([`RelayNode::spawn`] on Linux), all shard sockets
//! share a single advertised port and the kernel spreads ingress load
//! across them.
//!
//! The control thread is a driver around the node's one
//! [`Daemon`], which fences, applies and answers every control datagram
//! (DESIGN.md §13). The thread sends the daemon's reply and fans what
//! it applied out to *every* shard: a table swap rebuilds each shard's
//! resolved `RouteCache` from [`Daemon::table`]; a role change or quota
//! reaches each shard's engine.
//! Transient socket errors never kill a loop; they are counted in
//! [`RelayStats::io_errors`] and retried until `running` clears.
//!
//! All loops are generic over [`DatagramSocket`], so the chaos harness
//! ([`crate::FaultSocket`]) can subject a live relay — batched or not —
//! to seeded Internet pathologies; and when [`RelayConfig::heartbeat`]
//! is set, the control thread doubles as a liveness beacon, emitting
//! periodic heartbeat frames (feedback kind 3) toward the controller's
//! monitor address so a dead VNF is detectable by silence (DESIGN.md
//! §"Failure model").

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ncvnf_control::daemon::{Daemon, DaemonEvent, DaemonState, Received};
use ncvnf_control::signal::{Signal, VnfRoleWire};
use ncvnf_control::telemetry::DataplaneHealth;
use ncvnf_control::{Ack, Admit, ForwardingTable, SendError, SignalSender};
use ncvnf_dataplane::metrics::VnfMetrics;
use ncvnf_dataplane::{CodingVnf, Feedback, VnfRole, VnfStats, FEEDBACK_LEN};
use ncvnf_obs::{Registry, Snapshot, TraceKind};
use ncvnf_rlnc::{GenerationConfig, PoolMetrics, PoolStats, SessionId};

use crate::engine::{relay_flush, BatchScratch, RelayEngine, RelayShard};
use crate::metrics::{BatchCells, RelayNodeMetrics};
use crate::overload::QuotaConfig;
use crate::socket::{is_timeout, DatagramSocket, RecvBatch, DATA_RECV_BUFFER, MAX_BATCH};

/// Liveness beaconing: where and how often a relay announces it is alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Controller address heartbeats are sent to (from the control
    /// socket).
    pub monitor: SocketAddr,
    /// Beacon period. The control loop polls at 20 ms, so intervals
    /// below that are quantized up.
    pub interval: Duration,
    /// Identity carried in the heartbeat frame.
    pub node_id: u32,
}

/// Configuration of a relay process.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Generation layout (must match the session's source).
    pub generation: GenerationConfig,
    /// Buffer capacity in generations.
    pub buffer_generations: usize,
    /// RNG seed for recoding coefficients.
    pub seed: u64,
    /// Liveness beaconing (off by default).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Observability registry the node records into. `None` gives the
    /// node a private registry (still queryable via
    /// [`RelayHandle::snapshot`] or the `NC_STATS` signal); pass a shared
    /// one to aggregate several relays into a single snapshot.
    pub registry: Option<Registry>,
    /// Engine shards the data path is split across (≥ 1). Each shard
    /// owns its own coding engine, route cache, and — on Linux via
    /// `SO_REUSEPORT` — its own receive socket. The default reads
    /// `NCVNF_SHARDS` (falling back to 1) so the whole test suite can
    /// run sharded without touching call sites.
    pub shards: usize,
    /// Messages per receive and datagrams per flush (clamped to
    /// 1..=[`MAX_BATCH`]; with `UDP_GRO` a message may be a whole burst,
    /// relayed in several flushes). The default reads `NCVNF_BATCH`,
    /// falling back to [`MAX_BATCH`].
    pub batch: usize,
}

/// A positive `usize` from the environment, or `default`.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            generation: GenerationConfig::paper_default(),
            buffer_generations: 1024,
            seed: 0xC0DE,
            heartbeat: None,
            registry: None,
            shards: env_usize("NCVNF_SHARDS", 1),
            batch: env_usize("NCVNF_BATCH", MAX_BATCH),
        }
    }
}

/// Counters exposed by a running relay.
///
/// This is a typed *view* read back from the node's `ncvnf-obs` registry
/// cells (the `relay.*` counters in `OPERATIONS.md`) — the registry is
/// the single source of truth; there is no second copy to drift.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayStats {
    /// Datagrams received on the data socket.
    pub datagrams_in: u64,
    /// Datagrams sent to next hops.
    pub datagrams_out: u64,
    /// `send_to` attempts (packets × next hops), successful or not.
    pub sends: u64,
    /// Socket errors survived (failed sends plus non-timeout receive
    /// errors on either loop).
    pub io_errors: u64,
    /// Control signals processed.
    pub signals: u64,
    /// Control signals rejected with an `ERR` reply (undecodable or
    /// unfenced frame, stale epoch, invalid forwarding table).
    pub rejected_signals: u64,
    /// Well-formed feedback frames that reached the data socket (dropped:
    /// feedback is endpoint-to-endpoint, relays do not route it).
    pub feedback_frames: u64,
    /// Feedback-magic frames that failed to decode (dropped and counted,
    /// never crashing the loop).
    pub malformed_feedback: u64,
    /// Liveness beacons emitted by the control thread.
    pub heartbeats_sent: u64,
    /// Fenced signals rejected for carrying a superseded controller
    /// epoch (never applied).
    pub stale_epoch_rejected: u64,
    /// Duplicate fenced signals acknowledged without re-applying.
    pub duplicate_signals: u64,
    /// Engine shards the data path runs across.
    pub shards: u64,
    /// Batches relayed (flushes of at most [`RelayConfig::batch`]).
    pub batches: u64,
    /// Datagrams received on one shard's socket but owned by another
    /// shard (the kernel's `SO_REUSEPORT` hash and the relay's
    /// `(session, generation)` hash need not agree; correctness is
    /// unaffected — the owning shard's engine still processes them).
    pub cross_shard_packets: u64,
    /// Wake requests emitted toward the monitor: the data path saw
    /// traffic while the daemon was draining toward scale-to-zero.
    pub wake_signals: u64,
    /// Datagrams shed because a session's admission bucket was dry.
    pub shed_quota: u64,
    /// Congestion feedback frames emitted toward shed traffic's sources.
    pub congestion_frames: u64,
    /// Times a data thread ran out of poll budget and blocked in its
    /// socket receive (`PollGate`).
    pub parks: u64,
}

impl RelayStats {
    /// Every datagram the admission gate shed. Quota is the one shed
    /// class, so this is [`shed_quota`](Self::shed_quota).
    #[must_use]
    pub fn total_shed(&self) -> u64 {
        self.shed_quota
    }
}

struct Shared {
    shards: Vec<RelayShard>,
    batch: usize,
    /// The control plane: fence, reply cache, forwarding table, roles.
    daemon: Mutex<Daemon>,
    running: AtomicBool,
    registry: Registry,
    metrics: RelayNodeMetrics,
    vnf_metrics: VnfMetrics,
    pool_metrics: PoolMetrics,
    /// Read-back handles for the batch-path counters (the data threads'
    /// [`BatchScratch`] instances record into the same registry cells).
    batch_cells: BatchCells,
    /// Node start instant: the epoch of [`Shared::last_data_micros`].
    started: Instant,
    /// Microseconds since `started` when the data path last drained a
    /// non-empty batch (0 = never); the scale-to-zero idle clock.
    last_data_micros: AtomicU64,
    /// Mirror of `daemon.state() == Draining`, kept by the control
    /// thread so the data threads can test it without the daemon lock.
    draining: AtomicBool,
    /// One-shot latch: a single wake request per drain window (reset
    /// when a new `NC_VNF_END` opens the next window).
    wake_sent: AtomicBool,
}

/// Aggregated per-shard engine state, gathered under each shard's
/// engine lock in turn.
#[derive(Debug, Default)]
struct EngineTotals {
    vnf: VnfStats,
    pool: PoolStats,
    /// Sessions with a provisioned quota (the `NC_QUOTA` fanout reaches
    /// every shard identically, so the max over shards is the count).
    quota_sessions: u64,
}

impl Shared {
    /// Sums the per-shard VNF and pool counters and the quota gauge
    /// (each shard's engine lock is held only for its stats copies).
    fn vnf_totals(&self) -> EngineTotals {
        let mut t = EngineTotals::default();
        for shard in &self.shards {
            let guard = shard.engine().lock();
            let s = guard.vnf().stats();
            let p = guard.vnf().pool_stats();
            if let Some(ov) = guard.overload() {
                t.quota_sessions = t.quota_sessions.max(ov.provisioned_sessions() as u64);
            }
            drop(guard);
            t.vnf.packets_in += s.packets_in;
            t.vnf.packets_out += s.packets_out;
            t.vnf.innovative_in += s.innovative_in;
            t.vnf.malformed += s.malformed;
            t.vnf.unknown_session += s.unknown_session;
            t.vnf.generations_decoded += s.generations_decoded;
            t.vnf.evicted_decoders += s.evicted_decoders;
            t.pool.checkouts += p.checkouts;
            t.pool.hits += p.hits;
            t.pool.reclaimed += p.reclaimed;
            t.pool.dropped += p.dropped;
        }
        t
    }

    /// Publishes the aggregated VNF/pool counters and the quota gauge
    /// into the registry, then snapshots everything.
    fn snapshot(&self) -> Snapshot {
        let totals = self.vnf_totals();
        self.vnf_metrics.publish(&totals.vnf);
        self.pool_metrics.publish(&totals.pool);
        self.metrics.idle_ms.set(self.idle_ms() as f64);
        self.metrics
            .quota_sessions
            .set(totals.quota_sessions as f64);
        let (coalesced, refused) = ncvnf_sysnet::egress_counts();
        self.metrics.egress_coalesced.publish(coalesced);
        self.metrics.egress_refused.publish(refused);
        self.registry.snapshot()
    }

    /// Milliseconds since the data path last received a datagram (since
    /// node start if it never has). This is what an `NC_STATS` poll
    /// reports as `relay.idle_ms` — the autoscaler's scale-to-zero
    /// input.
    fn idle_ms(&self) -> u64 {
        let now = self.started.elapsed().as_micros() as u64;
        let last = self.last_data_micros.load(Ordering::Relaxed);
        now.saturating_sub(last) / 1000
    }
}

/// A live relay: two sockets, two threads.
pub struct RelayNode {
    /// Address of the data socket.
    pub data_addr: SocketAddr,
    /// Address of the control socket.
    pub control_addr: SocketAddr,
    /// The layout it was spawned with (what [`wire`](Self::wire) echoes).
    generation: GenerationConfig,
    buffer_generations: usize,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// A cloneable handle for inspecting a running relay.
#[derive(Clone)]
pub struct RelayHandle {
    shared: Arc<Shared>,
}

impl RelayHandle {
    /// Snapshot of the counters (a typed view over the registry cells).
    pub fn stats(&self) -> RelayStats {
        let m = &self.shared.metrics;
        RelayStats {
            datagrams_in: m.datagrams_in.get(),
            datagrams_out: m.datagrams_out.get(),
            sends: m.sends.get(),
            io_errors: m.io_errors.get(),
            signals: m.signals.get(),
            rejected_signals: m.rejected_signals.get(),
            feedback_frames: m.feedback_frames.get(),
            malformed_feedback: m.malformed_feedback.get(),
            heartbeats_sent: m.heartbeats_sent.get(),
            stale_epoch_rejected: m.stale_epoch_rejected.get(),
            duplicate_signals: m.duplicate_signals.get(),
            shards: self.shared.shards.len() as u64,
            batches: self.shared.batch_cells.batches.get(),
            cross_shard_packets: self.shared.batch_cells.cross_shard.get(),
            wake_signals: m.wake_signals.get(),
            shed_quota: m.shed_quota.get(),
            congestion_frames: m.congestion_frames.get(),
            parks: m.parks.get(),
        }
    }

    /// The daemon's current lifecycle state.
    pub fn daemon_state(&self) -> DaemonState {
        self.shared.daemon.lock().state()
    }

    /// Milliseconds since the data path last received a datagram (since
    /// node start if it never has).
    pub fn idle_ms(&self) -> u64 {
        self.shared.idle_ms()
    }

    /// Number of engine shards the data path runs across.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// The node's observability registry (the one passed in via
    /// [`RelayConfig::registry`], or the node-private one).
    pub fn registry(&self) -> Registry {
        self.shared.registry.clone()
    }

    /// Full observability snapshot: publishes the VNF and pool counters
    /// into the registry first (brief engine lock), then snapshots every
    /// metric and drains the trace ring.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.snapshot()
    }

    /// The controller-facing health record, derived from the registry
    /// snapshot (`ncvnf-control`'s telemetry ingestion format).
    pub fn health(&self) -> DataplaneHealth {
        DataplaneHealth::from_snapshot(&self.snapshot())
    }

    /// Snapshot of the coding VNF's counters, summed over every shard
    /// (each shard's engine lock is taken briefly in turn).
    pub fn vnf_stats(&self) -> VnfStats {
        self.shared.vnf_totals().vnf
    }

    /// Snapshot of the VNF buffer pools' counters, summed over every
    /// shard (hit rate ≈ 1.0 once the forward/recode steady state is
    /// allocation-free).
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.vnf_totals().pool
    }

    /// The relay's current forwarding table (text form).
    pub fn table_text(&self) -> String {
        self.shared.daemon.lock().table().to_text()
    }
}

impl RelayNode {
    /// Binds a relay on loopback with OS-assigned ports and starts its
    /// data and control threads. This is the "start a network coding
    /// function on a launched VM" step whose latency Sec. V-C-5 reports
    /// as ≈376 ms on EC2 (sockets + configuration; no VM boot).
    ///
    /// With [`RelayConfig::shards`] > 1, the node binds one data socket
    /// per shard via `SO_REUSEPORT` — all sharing the single advertised
    /// [`RelayNode::data_addr`] — so the kernel spreads ingress across
    /// the shard threads. Where `SO_REUSEPORT` is unavailable, the node
    /// falls back to one shared data socket; engine-state sharding (and
    /// its correctness) is unaffected, only ingress parallelism drops.
    ///
    /// Each data socket asks for `UDP_GRO`: a burst its sender segmented
    /// then arrives as one message (DESIGN.md §10, "The receive path").
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(config: RelayConfig) -> std::io::Result<RelayNode> {
        let (data_sockets, gro) = bind_shard_sockets(config.shards.max(1))?;
        let control_socket = UdpSocket::bind(("127.0.0.1", 0))?;
        Self::start(config, data_sockets, gro, control_socket)
    }

    /// Starts a relay on caller-provided sockets — real `UdpSocket`s or
    /// chaos-wrapped [`crate::FaultSocket`]s — so tests can inject faults
    /// into the live loops. The single data socket feeds every engine
    /// shard (dispatch is by packet hash, not by socket).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn_with<D, C>(
        config: RelayConfig,
        data_socket: D,
        control_socket: C,
    ) -> std::io::Result<RelayNode>
    where
        D: DatagramSocket + 'static,
        C: DatagramSocket + 'static,
    {
        Self::start(config, vec![data_socket], false, control_socket)
    }

    /// Starts a relay over a set of data sockets — all with `UDP_GRO` on
    /// if `gro`, none otherwise: one data thread per socket, each with
    /// shard `i % shards` as its home. [`RelayNode::data_addr`] is the
    /// first socket's address (with `SO_REUSEPORT` they are all the same).
    fn start<D, C>(
        config: RelayConfig,
        data_sockets: Vec<D>,
        gro: bool,
        control_socket: C,
    ) -> std::io::Result<RelayNode>
    where
        D: DatagramSocket + 'static,
        C: DatagramSocket + 'static,
    {
        assert!(!data_sockets.is_empty(), "at least one data socket");
        for s in &data_sockets {
            s.set_read_timeout(Some(Duration::from_millis(20)))?;
        }
        control_socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let data_addr = data_sockets[0].local_addr()?;
        let control_addr = control_socket.local_addr()?;

        let shard_count = config.shards.max(1);
        let shards: Vec<RelayShard> = (0..shard_count as u64)
            .map(|i| {
                let vnf = CodingVnf::new(config.generation, config.buffer_generations);
                // Distinct per-shard coefficient streams derived from
                // the one node seed (splitmix-style odd-constant mix).
                let seed = config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1);
                RelayShard::new(RelayEngine::new(vnf, StdRng::seed_from_u64(seed)))
            })
            .collect();
        let registry = config.registry.unwrap_or_default();
        let node_metrics = RelayNodeMetrics::register(&registry);
        let vnf_metrics = VnfMetrics::register(&registry);
        let pool_metrics = PoolMetrics::register(&registry);
        let batch_cells = BatchCells::register(&registry);
        let shared = Arc::new(Shared {
            shards,
            batch: config.batch.clamp(1, MAX_BATCH),
            daemon: Mutex::new(Daemon::new()),
            running: AtomicBool::new(true),
            registry,
            metrics: node_metrics,
            vnf_metrics,
            pool_metrics,
            batch_cells,
            started: Instant::now(),
            last_data_micros: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            wake_sent: AtomicBool::new(false),
        });
        shared.metrics.shards.set(shard_count as f64);
        shared.metrics.ingress_gro.set(f64::from(u8::from(gro)));
        // Reconciliation can diff a node that never received a push.
        mirror(&shared, &shared.daemon.lock());

        let heartbeat = config.heartbeat;
        let slot_len = recv_slot_len(&config.generation);
        let mut threads = Vec::new();
        for (i, socket) in data_sockets.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let home = i % shard_count;
            threads.push(std::thread::spawn(move || {
                let batch = if gro {
                    RecvBatch::coalescing(shared.batch)
                } else {
                    RecvBatch::new(shared.batch, slot_len)
                };
                data_loop(socket, shared, home, heartbeat, batch)
            }));
        }
        {
            let shared = Arc::clone(&shared);
            let socket = control_socket;
            threads.push(std::thread::spawn(move || {
                control_loop(socket, shared, heartbeat)
            }));
        }
        Ok(RelayNode {
            data_addr,
            control_addr,
            generation: config.generation,
            buffer_generations: config.buffer_generations,
            shared,
            threads,
        })
    }

    /// Configures this relay over its control channel, exactly as a
    /// controller would, with fenced pushes through `sender`: `NC_SETTINGS`
    /// giving `session` its `role` (the layout fields echo the relay's
    /// own, fixed at spawn), then `table` unless it is empty (a relay
    /// rejects an empty table). An epoch-0 sender leaves every journaled
    /// controller (epoch ≥ 1) free to take the relay over.
    ///
    /// # Errors
    ///
    /// The push that failed: no ACK, a rejection or a stale epoch.
    pub fn wire(
        &self,
        sender: &mut SignalSender,
        session: SessionId,
        role: VnfRoleWire,
        table: &ForwardingTable,
    ) -> Result<(), SendError> {
        let settings = Signal::NcSettings {
            session,
            role,
            data_port: self.data_addr.port(),
            block_size: self.generation.block_size() as u32,
            generation_size: self.generation.blocks_per_generation() as u32,
            buffer_generations: self.buffer_generations as u32,
        };
        let forward = (!table.is_empty()).then(|| Signal::NcForwardTab {
            table: table.to_text(),
        });
        for signal in std::iter::once(settings).chain(forward) {
            sender.push(self.control_addr, &signal)?;
        }
        Ok(())
    }

    /// A handle for reading stats while the relay runs.
    pub fn handle(&self) -> RelayHandle {
        RelayHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the threads and joins them.
    pub fn shutdown(mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `n` loopback data sockets, each asking for a
/// [`DATA_RECV_BUFFER`] receive queue, and whether they have `UDP_GRO`
/// on: all of them or, if one refuses, none — so no socket hands a burst
/// to an entry sized for one datagram. For `n > 1` they share one port via
/// `SO_REUSEPORT`; where that is unavailable (non-Linux), falls back to
/// a single shared socket — engine sharding still applies, only ingress
/// parallelism degrades.
fn bind_shard_sockets(n: usize) -> std::io::Result<(Vec<UdpSocket>, bool)> {
    let configure = |sockets: Vec<UdpSocket>| {
        for s in &sockets {
            ncvnf_sysnet::set_recv_buffer(s, DATA_RECV_BUFFER);
        }
        let gro = sockets.iter().all(ncvnf_sysnet::enable_gro);
        if !gro {
            sockets.iter().for_each(ncvnf_sysnet::disable_gro);
        }
        Ok((sockets, gro))
    };
    let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
    if n > 1 {
        if let Ok(first) = ncvnf_sysnet::bind_reuseport(loopback) {
            if let Ok(addr) = first.local_addr() {
                let mut sockets = vec![first];
                while sockets.len() < n {
                    match ncvnf_sysnet::bind_reuseport(addr) {
                        Ok(s) => sockets.push(s),
                        Err(_) => break,
                    }
                }
                if sockets.len() == n {
                    return configure(sockets);
                }
            }
        }
    }
    configure(vec![UdpSocket::bind(("127.0.0.1", 0))?])
}

/// Bytes per receive slot of a data thread: the largest datagram `layout`
/// makes valid — a coded packet or a feedback frame — plus one, so that
/// anything longer arrives cut to a length no layout accepts and is
/// counted malformed, as it would be whole. Receive memory is bounded by
/// the configuration, not by the largest datagram UDP can carry.
fn recv_slot_len(layout: &GenerationConfig) -> usize {
    layout.packet_len().max(FEEDBACK_LEN) + 1
}

/// How long a data thread polls its socket after a dense batch before it
/// parks in a blocking receive (DESIGN.md §10, "Poll before park").
/// Waking a parked thread costs microseconds that a dense stream of
/// batches need not pay; polling costs at most this much CPU per batch.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// How a data thread waits for its next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Take whatever is queued without blocking (yield if nothing is).
    Poll,
    /// Block in the socket's receive. `spent` when a poll phase just ran
    /// out of budget: a park, counted in `relay.parks`.
    Block { spent: bool },
    /// `running` is clear: the thread ends.
    Stop,
}

/// The data thread's poll-or-block decision, on explicit instants.
///
/// A thread that waited at most [`POLL_BUDGET`] for its last batch polls
/// for up to one budget before it blocks. One that waited longer — the
/// first batch after idle, or traffic paced more sparsely than the
/// budget — blocks at once. So a hop pays one wake-up per idle period,
/// not one per batch.
#[derive(Debug, Default)]
struct PollGate {
    /// When the current wait began; `None` from a batch's arrival until
    /// the next wait.
    waiting_since: Option<Instant>,
    /// Whether the last batch ended a wait of at most one budget.
    dense: bool,
    /// End of the running poll phase, if one runs.
    poll_until: Option<Instant>,
}

impl PollGate {
    /// A non-empty batch arrived at `now`.
    fn arrived(&mut self, now: Instant) {
        let waited = self
            .waiting_since
            .map(|since| now.saturating_duration_since(since));
        self.dense = waited.is_some_and(|w| w <= POLL_BUDGET);
        self.waiting_since = None;
    }

    /// A receive failed with an error that is not a timeout. The thread
    /// backs off, so a running poll phase ends here without counting a
    /// park: the next wait is a plain block.
    fn failed(&mut self) {
        self.poll_until = None;
    }

    /// How to wait, at `now`, for the next batch.
    fn next(&mut self, now: Instant, running: bool) -> Wait {
        if !running {
            return Wait::Stop;
        }
        if self.waiting_since.is_none() {
            self.waiting_since = Some(now);
            self.poll_until = self.dense.then(|| now + POLL_BUDGET);
        }
        match self.poll_until {
            Some(end) if now < end => Wait::Poll,
            Some(_) => {
                self.poll_until = None;
                Wait::Block { spent: true }
            }
            None => Wait::Block { spent: false },
        }
    }
}

/// One data thread: drain a batch, relay it through the shard array in
/// flushes of at most [`RelayConfig::batch`] datagrams (feedback frames
/// are classified and dropped inside [`relay_batch`](crate::relay_batch)),
/// send each flush's egress batch. `home` is the shard whose receive
/// queue this thread's socket notionally is — the cross-shard counter
/// measures how often the kernel's socket choice and the packet hash
/// disagree.
fn data_loop<S: DatagramSocket>(
    socket: S,
    shared: Arc<Shared>,
    home: usize,
    heartbeat: Option<HeartbeatConfig>,
    mut batch: RecvBatch,
) {
    let mut scratch = BatchScratch::instrumented(shared.shards.len(), &shared.registry);
    let m = shared.metrics.clone();
    let mut gate = PollGate::default();
    loop {
        let wait = gate.next(Instant::now(), shared.running.load(Ordering::Relaxed));
        let received = match wait {
            Wait::Stop => break,
            Wait::Poll => socket.try_recv_batch(&mut batch),
            Wait::Block { spent } => {
                if spent {
                    m.parks.inc();
                }
                socket.recv_batch(&mut batch)
            }
        };
        match received {
            Ok(_) => {}
            Err(ref e) if is_timeout(e) => {
                if wait == Wait::Poll {
                    std::thread::yield_now();
                }
                continue;
            }
            Err(_) => {
                // Transient receive error (e.g. a previous send raised
                // ECONNREFUSED on this socket): count it and keep
                // serving. Only `running` stops the loop.
                m.io_errors.inc();
                gate.failed();
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        }
        if batch.is_empty() {
            continue;
        }
        let now = Instant::now();
        gate.arrived(now);
        // Stamp the idle clock (data packets and NACKs both count as
        // traffic), then — if the daemon is draining toward
        // scale-to-zero — ask the controller to wake this node. One
        // frame per drain window: the latch is re-armed only by the
        // next NC_VNF_END.
        shared.last_data_micros.store(
            now.duration_since(shared.started).as_micros() as u64,
            Ordering::Relaxed,
        );
        if shared.draining.load(Ordering::Relaxed)
            && !shared.wake_sent.swap(true, Ordering::Relaxed)
        {
            if let Some(hb) = heartbeat {
                let frame = Feedback::wake(hb.node_id, SessionId::new(0)).to_bytes();
                if socket.send_to(&frame, hb.monitor).is_ok() {
                    m.wake_signals.inc();
                } else {
                    // Failed send: re-arm so the next batch retries.
                    m.io_errors.inc();
                    shared.wake_sent.store(false, Ordering::Relaxed);
                }
            }
        }
        m.datagrams_in.add(batch.len() as u64);
        if batch.coalesced() > 0 {
            m.ingress_coalesced.add(batch.coalesced() as u64);
        }
        for start in (0..batch.len()).step_by(shared.batch) {
            let end = batch.len().min(start + shared.batch);
            let report = relay_flush(&shared.shards, home, &mut scratch, &batch, start..end);
            if report.feedback_frames > 0 {
                m.feedback_frames.add(report.feedback_frames);
            }
            if report.malformed_feedback > 0 {
                m.malformed_feedback.add(report.malformed_feedback);
            }
            if report.shed_quota > 0 {
                m.shed_quota.add(report.shed_quota);
            }
            if report.congestion_out > 0 {
                m.congestion_frames.add(report.congestion_out);
            }
            if report.queued > 0 {
                let sent = socket.send_batch(scratch.send()).unwrap_or(0) as u64;
                m.sends.add(report.queued);
                m.datagrams_out.add(sent);
                m.io_errors.add(report.queued.saturating_sub(sent));
            }
        }
    }
}

/// Publishes the daemon's state where the data threads (`draining`) and
/// `NC_STATS` pollers (the `relay.daemon_state`, `ctrl_*` and
/// `table_digest` gauges; reconciliation diffs tables by the digest) read
/// it without the daemon lock.
fn mirror(shared: &Shared, daemon: &Daemon) {
    let (m, state) = (&shared.metrics, daemon.state());
    let draining = state == DaemonState::Draining;
    shared.draining.store(draining, Ordering::Relaxed);
    m.daemon_state.set(f64::from(state.code()));
    m.ctrl_epoch.set(daemon.epoch() as f64);
    m.ctrl_seq.set(daemon.last_seq() as f64);
    m.table_digest.set(daemon.table().digest() as f64);
}

/// The control thread: beacons, and drives the [`Daemon`] — each
/// datagram in, the daemon's effect fanned out to the shards, its reply
/// sent back.
fn control_loop<S: DatagramSocket>(
    socket: S,
    shared: Arc<Shared>,
    heartbeat: Option<HeartbeatConfig>,
) {
    let mut buf = vec![0u8; 65536];
    let m = shared.metrics.clone();
    let trace = shared.registry.trace();
    // First beacon fires immediately so monitors learn of the node on
    // startup, not one interval later.
    let mut last_beat: Option<Instant> = None;
    let mut beat_seq: u16 = 0;
    while shared.running.load(Ordering::Relaxed) {
        if let Some(hb) = heartbeat {
            let due = last_beat.is_none_or(|t| t.elapsed() >= hb.interval);
            if due {
                let frame = Feedback::heartbeat(hb.node_id, beat_seq).to_bytes();
                beat_seq = beat_seq.wrapping_add(1);
                last_beat = Some(Instant::now());
                if socket.send_to(&frame, hb.monitor).is_ok() {
                    m.heartbeats_sent.inc();
                } else {
                    m.io_errors.inc();
                }
            }
        }
        let (n, src) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(ref e) if is_timeout(e) => continue,
            Err(_) => {
                m.io_errors.inc();
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        let arrived = Instant::now();
        let mut daemon = shared.daemon.lock();
        let (admit, ack, event) = match daemon.receive(&buf[..n]) {
            Received::Stats => {
                // The snapshot as one JSON datagram (it starts with '{',
                // so callers can tell it from an ACK).
                drop(daemon);
                m.signals.inc();
                let _ = socket.send_to(shared.snapshot().to_json().as_bytes(), src);
                continue;
            }
            Received::Reply { admit, ack, event } => (admit, ack, event),
        };
        match event {
            Some(DaemonEvent::ConfigureSession { session, role }) => {
                let role = match role {
                    VnfRoleWire::Recoder => VnfRole::Recoder,
                    VnfRoleWire::Decoder => VnfRole::Decoder,
                    VnfRoleWire::Forwarder => VnfRole::Forwarder,
                };
                // Any shard can own any generation of this session.
                for shard in &shared.shards {
                    shard.engine().lock().vnf_mut().set_role(session, role);
                }
            }
            Some(DaemonEvent::TableSwapped { .. }) => {
                // Rebuild every shard's resolved next-hop cache (the pause
                // of the SIGUSR1 sequence) under the daemon lock, in
                // index order: a swap is atomic per shard and no shard
                // serves a table older than one a lower shard already
                // serves. The data threads keep coding and pick up their
                // shard's new cache on the next batch.
                let mut sessions = 0;
                for shard in &shared.shards {
                    let mut routes = shard.routes().lock();
                    routes.rebuild(daemon.table());
                    sessions = routes.sessions() as u64;
                }
                let swap_ns = arrived.elapsed().as_nanos() as u64;
                m.table_swap_ns.record(swap_ns);
                trace.push(TraceKind::TableSwap, sessions, swap_ns);
            }
            // A fresh NC_VNF_END re-arms the one-wake-per-window latch
            // even if the node was already draining.
            Some(DaemonEvent::Drain) => shared.wake_sent.store(false, Ordering::Relaxed),
            Some(DaemonEvent::ProvisionQuota {
                session,
                rate_pps,
                burst,
            }) => {
                // Any shard can own any generation of this session; the
                // first quota arms the overload regime.
                let quota = QuotaConfig {
                    rate_pps: f64::from(rate_pps),
                    burst: f64::from(burst),
                };
                for shard in &shared.shards {
                    shard.engine().lock().provision_quota(session, quota);
                }
            }
            None => {}
        }
        mirror(&shared, &daemon);
        drop(daemon);
        if admit.is_some() {
            m.signals.inc();
        }
        match admit {
            Some(Admit::Stale) => m.stale_epoch_rejected.inc(),
            Some(Admit::Duplicate) => m.duplicate_signals.inc(),
            _ => {}
        }
        if matches!(ack, Ack::Err { .. }) {
            m.rejected_signals.inc();
        }
        let _ = socket.send_to(ack.to_string().as_bytes(), src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);
    const BLOCK: Wait = Wait::Block { spent: false };
    const PARK: Wait = Wait::Block { spent: true };

    /// A gate whose last batch ended a short wait.
    fn dense() -> PollGate {
        PollGate {
            dense: true,
            ..PollGate::default()
        }
    }

    #[test]
    fn the_first_batch_after_idle_blocks() {
        let t0 = Instant::now();
        let mut gate = PollGate::default();
        assert_eq!(gate.next(t0, true), BLOCK);
        // Read timeouts come and go while idle.
        assert_eq!(gate.next(t0 + 20_000 * US, true), BLOCK);
        gate.arrived(t0 + 30_000 * US);
        assert_eq!(gate.next(t0 + 30_001 * US, true), BLOCK);
    }

    #[test]
    fn a_gap_within_the_budget_polls_until_the_budget_ends() {
        let t0 = Instant::now();
        let mut gate = PollGate::default();
        gate.next(t0, true);
        gate.arrived(t0 + 10 * US);
        gate.next(t0 + 11 * US, true);
        gate.arrived(t0 + 11 * US + POLL_BUDGET);
        let start = t0 + 20 * US + POLL_BUDGET;
        assert_eq!(gate.next(start, true), Wait::Poll, "waited one budget");
        assert_eq!(gate.next(start + POLL_BUDGET - US, true), Wait::Poll);
        assert_eq!(gate.next(start + POLL_BUDGET, true), PARK);
        // One park per idle period: the waits after it are plain blocks.
        assert_eq!(gate.next(start + 2 * POLL_BUDGET, true), BLOCK);
        // A batch during a poll phase starts the next one.
        let mut gate = dense();
        assert_eq!(gate.next(t0, true), Wait::Poll);
        gate.arrived(t0 + 30 * US);
        assert_eq!(gate.next(t0 + 31 * US, true), Wait::Poll);
        assert_eq!(gate.next(t0 + 31 * US + POLL_BUDGET, true), PARK);
    }

    #[test]
    fn a_gap_beyond_the_budget_blocks_at_once() {
        let t0 = Instant::now();
        let mut gate = dense();
        assert_eq!(gate.next(t0, true), Wait::Poll);
        gate.arrived(t0 + POLL_BUDGET + US);
        assert_eq!(gate.next(t0 + POLL_BUDGET + 2 * US, true), BLOCK);
    }

    #[test]
    fn a_receive_error_mid_poll_ends_the_phase_without_a_park() {
        let t0 = Instant::now();
        let mut gate = dense();
        assert_eq!(gate.next(t0, true), Wait::Poll);
        // The error's back-off outlasts the budget; it is not a park.
        gate.failed();
        assert_eq!(gate.next(t0 + 1_000 * US, true), BLOCK);
        // The next batch is judged on the whole wait, error included.
        gate.arrived(t0 + 1_001 * US);
        assert_eq!(gate.next(t0 + 1_002 * US, true), BLOCK);
        // An error while blocked leaves the gate as it was.
        let mut gate = PollGate::default();
        assert_eq!(gate.next(t0, true), BLOCK);
        gate.failed();
        gate.arrived(t0 + 10 * US);
        assert_eq!(gate.next(t0 + 11 * US, true), Wait::Poll);
    }

    #[test]
    fn running_cleared_mid_poll_ends_the_loop() {
        let t0 = Instant::now();
        let mut gate = dense();
        assert_eq!(gate.next(t0, true), Wait::Poll);
        assert_eq!(gate.next(t0 + US, false), Wait::Stop);
    }
}
