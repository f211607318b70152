//! The relay's datagram processing step, factored out of the socket loop.
//!
//! There is one data path: [`relay_batch`] dispatches a received batch
//! by header peek, and one per-shard body (lock → admit → code into the
//! egress batch → unlock → attach destinations) handles every data kind
//! in arrival order. [`relay_step`] is that same path on a batch of one.
//! The hot path is structured around three rules:
//!
//! 1. **Code in place under the lock, send outside it.** The VNF mutex
//!    is held while a shard's datagrams are parsed and coded, and each
//!    output is written there and then, straight into the batch's
//!    [`SendBatch`] arena: a recode is its 8-byte header plus one fused
//!    row-kernel pass over the buffered wire bodies, a verbatim packet
//!    one copy. Destinations are attached afterwards under the route
//!    lock, and the syscall runs outside both, so the control thread can
//!    swap tables without stalling behind socket syscalls.
//! 2. **Zero heap operations per packet and per generation once warm.**
//!    The ingress parse is a borrowed [`PacketView`](ncvnf_rlnc::PacketView)
//!    over the receive buffer; a new generation takes over the recoder
//!    slot it evicts from the session's ring, storage included; and no
//!    output exists as an owned packet, so nothing waits to be recycled.
//!    `tests/relay_alloc_steady_state.rs` proves the warm forward/recode
//!    step and generation turnover perform zero heap ops.
//! 3. **No per-packet address parsing.** Next hops come from a
//!    [`RouteCache`] of pre-resolved [`SocketAddr`]s, rebuilt only when
//!    the control thread applies a forwarding-table swap.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;

use ncvnf_control::ForwardingTable;
use ncvnf_dataplane::{
    chunk_generation, shard_of, CodingVnf, Feedback, FeedbackKind, Sink, VnfDecision,
    FEEDBACK_MAGIC,
};
use ncvnf_obs::Registry;
use ncvnf_rlnc::{CodecError, PacketView, PayloadPool, Recoder, SessionId};

use crate::metrics::BatchMetrics;
use crate::overload::{monotonic_secs, OverloadConfig, OverloadState, QuotaConfig};
use crate::socket::RecvBatch;
use crate::SendBatch;

/// Session → resolved next-hop socket addresses.
///
/// The forwarding table stores next hops as text (`ip:port` strings, per
/// the paper's text-file format); resolving them per packet would put a
/// `String → SocketAddr` parse on the hot path. The cache resolves each
/// hop once, on [`rebuild`](Self::rebuild), which the relay calls only on
/// `TableSwapped` control events.
#[derive(Debug, Default)]
pub struct RouteCache {
    routes: HashMap<SessionId, Vec<SocketAddr>>,
}

impl RouteCache {
    /// An empty cache.
    pub fn new() -> Self {
        RouteCache::default()
    }

    /// Number of sessions with at least one resolved next hop.
    pub fn sessions(&self) -> usize {
        self.routes.len()
    }

    /// Re-resolves every table entry. Hops that do not parse as socket
    /// addresses are skipped (the simulator's `node:port` strings, say);
    /// sessions whose hops all fail to resolve get no entry.
    pub fn rebuild(&mut self, table: &ForwardingTable) {
        self.routes.clear();
        for (session, hops) in table.iter() {
            let resolved: Vec<SocketAddr> = hops.iter().filter_map(|h| h.parse().ok()).collect();
            if !resolved.is_empty() {
                self.routes.insert(session, resolved);
            }
        }
    }

    /// Copies the session's resolved next hops into `out` (cleared first).
    /// `SocketAddr` is `Copy`, so with a settled `out` capacity the lookup
    /// allocates nothing.
    pub fn lookup_into(&self, session: SessionId, out: &mut Vec<SocketAddr>) {
        out.clear();
        if let Some(hops) = self.routes.get(&session) {
            out.extend_from_slice(hops);
        }
    }
}

/// The lock-protected half of the relay data path: the coding VNF and the
/// RNG its recoding coefficients are drawn from.
#[derive(Debug)]
pub struct RelayEngine {
    vnf: CodingVnf,
    rng: StdRng,
    /// Admission gate. `None` (the default) means the overload
    /// regime does not exist: the batch path pays one `Option` test and
    /// behaves byte-identically to a relay without overload protection.
    overload: Option<OverloadState>,
}

impl RelayEngine {
    /// Wraps a configured VNF and coefficient RNG.
    pub fn new(vnf: CodingVnf, rng: StdRng) -> Self {
        RelayEngine {
            vnf,
            rng,
            overload: None,
        }
    }

    /// The wrapped VNF (for stats and role configuration).
    pub fn vnf(&self) -> &CodingVnf {
        &self.vnf
    }

    /// Mutable access to the wrapped VNF (control-plane reconfiguration).
    pub fn vnf_mut(&mut self) -> &mut CodingVnf {
        &mut self.vnf
    }

    /// The admission gate, once a quota has created it.
    pub fn overload(&self) -> Option<&OverloadState> {
        self.overload.as_ref()
    }

    /// Provisions a session's admission quota, creating the gate with
    /// default tunables on first use (the `NC_QUOTA` fanout path).
    pub fn provision_quota(&mut self, session: SessionId, quota: QuotaConfig) {
        self.overload
            .get_or_insert_with(|| OverloadState::new(OverloadConfig::default()))
            .provision(session, quota, monotonic_secs());
    }
}

/// Reusable per-thread scratch for [`relay_step`]: a [`BatchScratch`]
/// for one shard (one slot and one [`SendBatch`]). Every buffer's
/// capacity settles after a few packets, after which the step allocates
/// nothing.
#[derive(Debug)]
pub struct RelayScratch(BatchScratch);

impl RelayScratch {
    /// Fresh scratch; buffers grow to their steady-state capacity over the
    /// first few packets.
    pub fn new() -> Self {
        RelayScratch(BatchScratch::new(1))
    }

    /// Scratch whose steps record into `registry` as batches of one (see
    /// [`BatchScratch::instrumented`]).
    pub fn instrumented(registry: &Registry) -> Self {
        RelayScratch(BatchScratch::instrumented(1, registry))
    }
}

impl Default for RelayScratch {
    fn default() -> Self {
        RelayScratch::new()
    }
}

/// What one [`relay_step`] call did, for the caller's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Coded packets (or decoded chunks) produced by the VNF.
    pub emitted: u64,
    /// `send` invocations attempted (packets × next hops).
    pub send_attempts: u64,
    /// `send` invocations that reported success.
    pub sends_ok: u64,
}

/// Processes one received datagram through the relay data path: a
/// [`relay_batch`] of one against a single engine, whose egress batch is
/// replayed into `send` — which returns whether the transmission
/// succeeded. With no receive batch there is no source address, so a
/// shed datagram is counted but earns no congestion frame.
pub fn relay_step(
    engine: &Mutex<RelayEngine>,
    routes: &Mutex<RouteCache>,
    scratch: &mut RelayScratch,
    datagram: &[u8],
    send: &mut dyn FnMut(SocketAddr, &[u8]) -> bool,
) -> StepReport {
    let shards = std::iter::once((engine, routes));
    let batch = run_batch(shards, 0, &mut scratch.0, 1, |_| (datagram, None));
    let mut report = StepReport {
        emitted: batch.emitted,
        send_attempts: batch.queued,
        sends_ok: 0,
    };
    for (wire, hop) in scratch.0.send.iter() {
        report.sends_ok += u64::from(send(hop, wire));
    }
    report
}

/// One engine shard: a coding engine plus its own pre-resolved route
/// cache, each behind its own lock.
///
/// The sharded relay holds an array of these. All packets of one
/// `(session, generation)` reach the same shard (see [`shard_of`]), so
/// shards never contend on the hot path; the control thread reaches
/// *every* shard when it applies a table swap (rebuilding each
/// `RouteCache`) or a role change, which keeps reconfiguration
/// semantics identical to the single-engine relay.
#[derive(Debug)]
pub struct RelayShard {
    engine: Mutex<RelayEngine>,
    routes: Mutex<RouteCache>,
}

impl RelayShard {
    /// Wraps an engine with an empty route cache.
    pub fn new(engine: RelayEngine) -> Self {
        RelayShard {
            engine: Mutex::new(engine),
            routes: Mutex::new(RouteCache::new()),
        }
    }

    /// The shard's engine lock (control plane: role changes, stats).
    pub fn engine(&self) -> &Mutex<RelayEngine> {
        &self.engine
    }

    /// The shard's route-cache lock (control plane: table swaps).
    pub fn routes(&self) -> &Mutex<RouteCache> {
        &self.routes
    }
}

/// Per-shard working state inside a [`BatchScratch`]. All buffers reach
/// a steady-state capacity and stay there.
#[derive(Debug, Default)]
struct ShardSlot {
    /// Indices (into the receive batch) of data datagrams this shard
    /// owns, in arrival order.
    group: Vec<u32>,
    /// Wire images this batch wrote into the egress arena, in order.
    images: Vec<(u32, u32)>,
    /// One entry per datagram that emitted: its session, and where its
    /// images end in `images`.
    outputs: Vec<(SessionId, u32)>,
    /// Resolved next hops of the datagram being enqueued.
    addrs: Vec<SocketAddr>,
}

/// The relay's [`Sink`]: every packet a VNF step emits becomes a wire
/// image in the egress arena at once. Its destinations are attached
/// after the engine lock is released.
struct Staging<'a> {
    send: &'a mut SendBatch,
    images: &'a mut Vec<(u32, u32)>,
}

impl Staging<'_> {
    fn image(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let image = self.send.stage(write);
        if image.1 > 0 {
            self.images.push(image);
        }
    }
}

impl Sink for Staging<'_> {
    fn verbatim(&mut self, view: &PacketView<'_>, _pool: &mut PayloadPool) {
        self.image(|arena| view.write_into(arena));
    }

    fn recode<R: Rng + ?Sized>(
        &mut self,
        recoder: &mut Recoder,
        rng: &mut R,
        _pool: &mut PayloadPool,
    ) -> Result<(), CodecError> {
        let mut coded = Ok(());
        self.image(|arena| coded = recoder.recode_wire_into(rng, arena));
        coded
    }
}

/// One source owed a `Congestion` feedback frame for datagrams shed
/// this batch.
#[derive(Debug, Clone, Copy)]
struct CongestTarget {
    session: SessionId,
    src: SocketAddr,
    /// Datagrams of this (session, source) shed in the current batch.
    shed: u16,
    /// The shedding shard's cumulative shed total.
    total_shed: u32,
}

/// Most distinct (session, source) pairs notified per batch. A batch
/// holds at most `MAX_BATCH` datagrams, so overflow only drops
/// *duplicate* notifications; every source sheds again next batch and
/// gets its frame then.
const MAX_CONGEST_TARGETS: usize = 8;

/// Reusable per-thread scratch for [`relay_batch`]: per-shard dispatch
/// groups and image lists, plus the egress [`SendBatch`] the caller
/// flushes after each call. Every buffer's capacity settles after a few
/// batches, after which a batch performs zero heap operations (feedback
/// and decode egress excepted).
#[derive(Debug)]
pub struct BatchScratch {
    slots: Vec<ShardSlot>,
    send: SendBatch,
    /// Sources owed a congestion frame this batch (deduped, capped).
    congest: Vec<CongestTarget>,
    obs: Option<BatchMetrics>,
}

impl BatchScratch {
    /// Fresh scratch for `shards` engine shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        BatchScratch {
            slots: (0..shards.max(1)).map(|_| ShardSlot::default()).collect(),
            send: SendBatch::new(),
            congest: Vec::new(),
            obs: None,
        }
    }

    /// Scratch whose batches record into `registry`: `relay.steps`,
    /// `relay.packets_emitted`, `relay.batches`, `relay.batch_fill`,
    /// `relay.cross_shard_packets`, and for one
    /// batch in eight the latency histograms `relay.batch_ns` and
    /// `relay.step_ns` (batch latency over datagrams coded).
    /// Registration happens here, once; per datagram the cost is a few
    /// plain integer adds — counters accumulate in the scratch and flush
    /// to the shared atomics every 32 datagrams (and when the scratch
    /// drops), so live snapshots may lag the data thread by that much.
    #[must_use]
    pub fn instrumented(shards: usize, registry: &Registry) -> Self {
        BatchScratch {
            obs: Some(BatchMetrics::register(registry)),
            ..BatchScratch::new(shards)
        }
    }

    /// The egress batch the last [`relay_batch`] call filled; the
    /// caller flushes it with
    /// [`DatagramSocket::send_batch`](crate::DatagramSocket::send_batch).
    #[must_use]
    pub fn send(&self) -> &SendBatch {
        &self.send
    }
}

/// What one [`relay_batch`] call did, for the caller's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Coded datagrams run through a shard engine.
    pub steps: u64,
    /// Coded packets (or decoded chunks) produced by the VNF.
    pub emitted: u64,
    /// Datagrams queued for egress (packets × next hops).
    pub queued: u64,
    /// Well-formed feedback frames seen (and dropped — relays do not
    /// route feedback).
    pub feedback_frames: u64,
    /// Feedback-magic frames that failed to decode.
    pub malformed_feedback: u64,
    /// Datagrams whose owner shard differs from `home` (they arrived on
    /// another shard's socket; the kernel's `SO_REUSEPORT` hash and the
    /// relay's `(session, generation)` hash need not agree).
    pub cross_shard: u64,
    /// Datagrams shed because the session's token bucket was dry.
    pub shed_quota: u64,
    /// `Congestion` feedback frames queued toward shed sources.
    pub congestion_out: u64,
    /// `Congestion` feedback frames received (counted within
    /// `feedback_frames`; relays drop them like all feedback).
    pub congestion_in: u64,
}

/// Notes one shed datagram against its source's congestion-frame entry
/// (deduped per batch, capped at [`MAX_CONGEST_TARGETS`]).
fn note_congestion(
    congest: &mut Vec<CongestTarget>,
    session: SessionId,
    src: SocketAddr,
    total_shed: u64,
) {
    let total_shed = total_shed.min(u32::MAX as u64) as u32;
    if let Some(t) = congest
        .iter_mut()
        .find(|t| t.session == session && t.src == src)
    {
        t.shed = t.shed.saturating_add(1);
        t.total_shed = total_shed;
        return;
    }
    if congest.len() < MAX_CONGEST_TARGETS {
        congest.push(CongestTarget {
            session,
            src,
            shed: 1,
            total_shed,
        });
    }
}

/// Dispatch: files datagram `i` under its owner shard's slot by header
/// peek — no allocation, no lock. Feedback is classified *before*
/// admission control, so backpressure and liveness frames are never
/// shed. Data shards by [`PacketView::shard_key`]; what it cannot place
/// (a retired sliding-window kind included) goes to the `home` shard,
/// so exactly one VNF counts it as malformed.
fn dispatch(slots: &mut [ShardSlot], home: usize, i: usize, dg: &[u8], report: &mut BatchReport) {
    if dg.first() == Some(&FEEDBACK_MAGIC) {
        match Feedback::from_bytes(dg) {
            Ok(fb) => {
                report.feedback_frames += 1;
                if fb.kind == FeedbackKind::Congestion {
                    report.congestion_in += 1;
                }
            }
            Err(_) => report.malformed_feedback += 1,
        }
        return;
    }
    let owner = match PacketView::shard_key(dg) {
        Some((session, generation)) => shard_of(session, generation, slots.len()),
        None => home,
    };
    if owner != home {
        report.cross_shard += 1;
    }
    slots[owner].group.push(i as u32);
}

/// One shard's share of a batch. Under the shard's engine lock — one
/// acquisition — parse, admit and code the group in arrival order, each output written straight into `send`'s arena.
/// Outside it, under the shard's route lock (contended only by
/// control-plane swaps), attach each datagram's destinations.
fn run_shard<'a>(
    engine: &Mutex<RelayEngine>,
    routes: &Mutex<RouteCache>,
    slot: &mut ShardSlot,
    datagram: &impl Fn(usize) -> (&'a [u8], Option<SocketAddr>),
    send: &mut SendBatch,
    congest: &mut Vec<CongestTarget>,
    report: &mut BatchReport,
) {
    let ShardSlot {
        group,
        images,
        outputs,
        addrs,
    } = slot;
    images.clear();
    outputs.clear();
    {
        let mut guard = engine.lock();
        let RelayEngine { vnf, rng, overload } = &mut *guard;
        let block_size = vnf.config().block_size();
        let mut staging = Staging { send, images };
        for &idx in group.iter() {
            let (dg, src) = datagram(idx as usize);
            // One parse: the view borrows the receive buffer, and the
            // recode and decode steady states never copy the input.
            let Some(view) = vnf.parse(dg) else {
                report.steps += 1;
                continue;
            };
            let session = view.session();
            if let Some(ov) = overload.as_mut() {
                if !ov.admit(session, monotonic_secs()) {
                    report.shed_quota += 1;
                    if let Some(src) = src {
                        note_congestion(congest, session, src, ov.stats().shed_quota);
                    }
                    continue;
                }
            }
            report.steps += 1;
            match vnf.process_view_into(view, 1, rng, &mut staging) {
                VnfDecision::Forwarded(n) => report.emitted += n as u64,
                VnfDecision::Decoded {
                    generation,
                    payload,
                    ..
                } => {
                    // Decoder egress: the recovered generation leaves as
                    // plain MTU-sized chunks. This allocates (fresh
                    // payload per decoded generation) — per-generation,
                    // not per-packet.
                    for chunk in chunk_generation(generation, &payload, block_size) {
                        report.emitted += 1;
                        staging.image(|arena| arena.extend_from_slice(&chunk.to_bytes()));
                    }
                }
                VnfDecision::Nothing => {}
            }
            let end = staging.images.len() as u32;
            if outputs.last().map_or(0, |&(_, end)| end) < end {
                outputs.push((session, end));
            }
        }
    }

    let routes = routes.lock();
    let mut start = 0;
    for &(session, end) in outputs.iter() {
        routes.lookup_into(session, addrs);
        for &image in &images[start..end as usize] {
            send.enqueue(image, addrs);
        }
        start = end as usize;
    }
}

/// Processes one received batch through the sharded relay data path.
///
/// Dispatch groups the batch's datagrams by owner shard ([`shard_of`]
/// over a header peek). Then, shard by shard: one engine-lock
/// acquisition codes its whole group straight into the scratch's
/// [`SendBatch`]; one route-lock acquisition attaches the destinations.
/// The caller flushes that
/// batch with a single `send_batch` call — which is the point: syscalls
/// are paid per *batch*, locks per *shard-group*, not per packet.
///
/// `home` is the index of the shard whose socket fed this batch (used
/// for the cross-shard counter, and as the fallback owner for
/// malformed datagrams so exactly one VNF counts them).
pub fn relay_batch(
    shards: &[RelayShard],
    home: usize,
    scratch: &mut BatchScratch,
    batch: &RecvBatch,
) -> BatchReport {
    relay_flush(shards, home, scratch, batch, 0..batch.len())
}

/// [`relay_batch`] over the datagrams `range` of `batch` only: how the
/// data loop cuts a receive of coalesced bursts into flushes of at most
/// [`RelayConfig::batch`](crate::RelayConfig::batch) datagrams.
pub(crate) fn relay_flush(
    shards: &[RelayShard],
    home: usize,
    scratch: &mut BatchScratch,
    batch: &RecvBatch,
    range: Range<usize>,
) -> BatchReport {
    let shards = shards.iter().map(|s| (&s.engine, &s.routes));
    run_batch(shards, home, scratch, range.len(), |i| {
        let (dg, src) = batch.get(range.start + i);
        (dg, Some(src))
    })
}

/// The body of [`relay_batch`] over any `len` datagrams: dispatch, run
/// each shard that has work, queue congestion frames, record metrics.
fn run_batch<'a>(
    shards: impl ExactSizeIterator<Item = (&'a Mutex<RelayEngine>, &'a Mutex<RouteCache>)>,
    home: usize,
    scratch: &mut BatchScratch,
    len: usize,
    datagram: impl Fn(usize) -> (&'a [u8], Option<SocketAddr>),
) -> BatchReport {
    let BatchScratch {
        slots,
        send,
        congest,
        obs,
    } = scratch;
    debug_assert_eq!(slots.len(), shards.len(), "scratch/shard count mismatch");
    let mut report = BatchReport::default();
    let started = match obs {
        Some(obs) => obs.sample_latency().then(Instant::now),
        None => None,
    };
    send.clear();
    congest.clear();
    for slot in slots.iter_mut() {
        slot.group.clear();
    }
    for i in 0..len {
        dispatch(slots, home, i, datagram(i).0, &mut report);
    }

    for ((engine, routes), slot) in shards.zip(slots.iter_mut()) {
        if slot.group.is_empty() {
            continue;
        }
        run_shard(engine, routes, slot, &datagram, send, congest, &mut report);
    }

    // Backpressure: one Congestion frame per shed (session, source)
    // pair, flushed with the same egress batch as the coded traffic.
    // This path only runs while shedding, so its small allocations
    // never touch the non-shedding steady state.
    for t in congest.drain(..) {
        let frame = Feedback::congestion(t.session, t.shed, t.total_shed).to_bytes();
        send.push_bytes(&frame, std::slice::from_ref(&t.src));
        report.congestion_out += 1;
    }
    report.queued = send.len() as u64;

    if let Some(obs) = obs {
        let elapsed = started.map(|t| t.elapsed().as_nanos() as u64);
        obs.record_batch(&report, len as u64, elapsed);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_dataplane::VnfRole;
    use ncvnf_rlnc::{CodedPacket, GenerationConfig, GenerationEncoder, SessionId};
    use rand::SeedableRng;

    fn cfg() -> GenerationConfig {
        GenerationConfig::new(32, 4).unwrap()
    }

    fn engine_with_role(role: VnfRole) -> Mutex<RelayEngine> {
        let mut vnf = CodingVnf::new(cfg(), 16);
        vnf.set_role(SessionId::new(1), role);
        Mutex::new(RelayEngine::new(vnf, StdRng::seed_from_u64(7)))
    }

    fn routes_to(addr: &str) -> Mutex<RouteCache> {
        let mut table = ForwardingTable::new();
        table.set(SessionId::new(1), vec![addr.to_string()]);
        let mut cache = RouteCache::new();
        cache.rebuild(&table);
        Mutex::new(cache)
    }

    #[test]
    fn forwarder_step_emits_one_wire_copy_per_hop() {
        let engine = engine_with_role(VnfRole::Forwarder);
        let routes = routes_to("127.0.0.1:9000");
        let mut scratch = RelayScratch::new();
        let enc = GenerationEncoder::new(cfg(), &[5u8; 128]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let wire = enc.coded_packet(SessionId::new(1), 0, &mut rng).to_bytes();
        let mut sent = Vec::new();
        let mut send = |hop: SocketAddr, bytes: &[u8]| {
            sent.push((hop, bytes.to_vec()));
            true
        };
        let report = relay_step(&engine, &routes, &mut scratch, &wire, &mut send);
        assert_eq!(report.emitted, 1);
        assert_eq!(report.send_attempts, 1);
        assert_eq!(report.sends_ok, 1);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].1, wire.to_vec(), "forwarder passes bytes through");
    }

    #[test]
    fn recoder_step_outputs_decodable_packets() {
        use ncvnf_rlnc::GenerationDecoder;
        let engine = engine_with_role(VnfRole::Recoder);
        let routes = routes_to("127.0.0.1:9001");
        let mut scratch = RelayScratch::new();
        let data: Vec<u8> = (0..128u32).map(|i| (i * 3) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut dec = GenerationDecoder::new(cfg());
        let mut steps = 0;
        while !dec.is_complete() {
            let wire = enc.coded_packet(SessionId::new(1), 0, &mut rng).to_bytes();
            let mut send = |_hop: SocketAddr, bytes: &[u8]| {
                let pkt = CodedPacket::from_bytes(bytes, 4).unwrap();
                let _ = dec.receive(pkt.coefficients(), pkt.payload());
                true
            };
            relay_step(&engine, &routes, &mut scratch, &wire, &mut send);
            steps += 1;
            assert!(steps < 64, "recode chain failed to converge");
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn unroutable_session_sends_nothing_but_still_codes() {
        let engine = engine_with_role(VnfRole::Recoder);
        let routes = Mutex::new(RouteCache::new());
        let mut scratch = RelayScratch::new();
        let enc = GenerationEncoder::new(cfg(), &[9u8; 128]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let wire = enc.coded_packet(SessionId::new(1), 0, &mut rng).to_bytes();
        let mut send = |_hop: SocketAddr, _bytes: &[u8]| panic!("no hops resolved");
        let report = relay_step(&engine, &routes, &mut scratch, &wire, &mut send);
        assert_eq!(report.send_attempts, 0);
        assert_eq!(engine.lock().vnf().stats().packets_in, 1);
    }

    #[test]
    fn malformed_datagram_is_counted_and_ignored() {
        let engine = engine_with_role(VnfRole::Recoder);
        let routes = routes_to("127.0.0.1:9002");
        let mut scratch = RelayScratch::new();
        let mut send = |_hop: SocketAddr, _bytes: &[u8]| panic!("nothing to send");
        let report = relay_step(&engine, &routes, &mut scratch, b"junk", &mut send);
        assert_eq!(report, StepReport::default());
        assert_eq!(engine.lock().vnf().stats().malformed, 1);
    }

    #[test]
    fn instrumented_scratch_records_step_metrics() {
        let registry = Registry::new();
        let engine = engine_with_role(VnfRole::Forwarder);
        let routes = routes_to("127.0.0.1:9003");
        let mut scratch = RelayScratch::instrumented(&registry);
        let enc = GenerationEncoder::new(cfg(), &[5u8; 128]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut send = |_hop: SocketAddr, _bytes: &[u8]| true;
        for _ in 0..4 {
            let wire = enc.coded_packet(SessionId::new(1), 0, &mut rng).to_bytes();
            relay_step(&engine, &routes, &mut scratch, &wire, &mut send);
        }
        // Counters batch in the scratch; dropping it performs the final
        // flush that makes the totals exact.
        drop(scratch);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("relay.steps"), Some(4));
        assert_eq!(snap.counter("relay.packets_emitted"), Some(4));
        assert_eq!(snap.histogram("relay.batch_fill").unwrap().count, 4);
        // Tick 0 is always sampled, so at least one latency point landed.
        assert!(snap.histogram("relay.step_ns").unwrap().count >= 1);
    }

    /// Frames of the retired sliding-window framing for session 1: a
    /// kind-2 data packet at full width and a kind-3 ack.
    fn retired_window_frames() -> [Vec<u8>; 2] {
        let mut data = vec![0xAC, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 255];
        data.extend_from_slice(&[7u8; 255 + 32]);
        [data, vec![0xAC, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]
    }

    fn shard_with_role(role: VnfRole) -> [RelayShard; 1] {
        let shards = [RelayShard::new(engine_with_role(role).into_inner())];
        *shards[0].routes.lock() = routes_to("127.0.0.1:9004").into_inner();
        shards
    }

    #[test]
    fn flood_over_quota_is_shed_and_control_frames_are_not() {
        let shards = shard_with_role(VnfRole::Recoder);
        let quota = QuotaConfig {
            rate_pps: 0.0,
            burst: 4.0,
        };
        shards[0]
            .engine
            .lock()
            .provision_quota(SessionId::new(1), quota);
        let enc = GenerationEncoder::new(cfg(), &[0x5E; 128]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let src: SocketAddr = ([127, 0, 0, 1], 4000).into();
        let mut batch = RecvBatch::new(32, 2048);
        for i in 0..24u64 {
            let pkt = enc.coded_packet(SessionId::new(1), i / 4, &mut rng);
            assert!(batch.push(&pkt.to_bytes(), src));
            // Feedback frames ride inside the flood.
            if i % 6 == 0 {
                assert!(batch.push(&Feedback::heartbeat(7, i as u16).to_bytes(), src));
            }
        }
        let mut scratch = BatchScratch::new(1);
        let report = relay_batch(&shards, 0, &mut scratch, &batch);
        // The bucket holds four tokens and never refills: four datagrams
        // are coded, the other twenty are shed on quota.
        assert_eq!(report.steps, 4);
        assert_eq!(report.shed_quota, 20);
        // Nothing that is not data was shed or lost.
        assert_eq!(report.feedback_frames, 4);
        // The shed source hears about it: one frame for (session, src).
        assert_eq!(report.congestion_out, 1);
        let engine = shards[0].engine.lock();
        assert_eq!(engine.vnf().stats().packets_in, 4);
        assert_eq!(engine.overload().unwrap().stats().shed_quota, 20);
    }

    /// `relay_step` is `relay_batch` on a batch of one: the same seeded
    /// datagram sequence — coded data, junk, feedback and retired
    /// sliding-window frames — yields byte-identical egress in the same
    /// order and equal VNF counters either way.
    #[test]
    fn relay_step_is_relay_batch_of_one() {
        const N: usize = 96;
        let enc = GenerationEncoder::new(cfg(), &[0xA7; 128]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let retired = retired_window_frames();
        let sequence: Vec<Vec<u8>> = (0..N)
            .map(|i| {
                if i % 7 == 3 {
                    vec![i as u8; 1 + i % 40]
                } else if i % 11 == 5 {
                    Feedback::heartbeat(3, i as u16).to_bytes().to_vec()
                } else if i % 13 == 0 {
                    retired[i % 2].clone()
                } else {
                    let generation = (i / 16) as u64;
                    enc.coded_packet(SessionId::new(1), generation, &mut rng)
                        .to_bytes()
                        .to_vec()
                }
            })
            .collect();

        let stepped = shard_with_role(VnfRole::Recoder);
        let mut scratch = RelayScratch::new();
        let mut step_egress = Vec::new();
        for dg in &sequence {
            let mut send = |hop: SocketAddr, bytes: &[u8]| {
                step_egress.push((bytes.to_vec(), hop));
                true
            };
            relay_step(
                &stepped[0].engine,
                &stepped[0].routes,
                &mut scratch,
                dg,
                &mut send,
            );
        }

        let batched = shard_with_role(VnfRole::Recoder);
        let mut scratch = BatchScratch::new(1);
        let mut batch = RecvBatch::new(32, 2048);
        let mut batch_egress = Vec::new();
        let src: SocketAddr = ([127, 0, 0, 1], 4000).into();
        for chunk in sequence.chunks(32) {
            batch.clear();
            for dg in chunk {
                assert!(batch.push(dg, src));
            }
            relay_batch(&batched, 0, &mut scratch, &batch);
            batch_egress.extend(scratch.send().iter().map(|(b, hop)| (b.to_vec(), hop)));
        }

        assert!(step_egress.len() > N / 2, "the sequence really was relayed");
        assert_eq!(step_egress, batch_egress);
        let (stepped, batched) = (stepped[0].engine.lock(), batched[0].engine.lock());
        assert_eq!(stepped.vnf().stats(), batched.vnf().stats());
        assert!(stepped.vnf().stats().malformed > 0);
    }

    /// In-place egress is the VNF's owned-packet output, serialized: one
    /// seeded sequence through `relay_batch`, and with the same RNG seed
    /// through `process_wire_into` + `CodedPacket::write_into`, yields the
    /// same bytes and the same `VnfStats`, whatever the role.
    #[test]
    fn in_place_egress_is_the_serialized_vnf_output() {
        let session = SessionId::new(1);
        let enc = GenerationEncoder::new(cfg(), &[0x3C; 128]).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut sequence: Vec<Vec<u8>> = Vec::new();
        // 40 generations through a 16-generation buffer: slots are
        // re-targeted as well as opened.
        for generation in 0..40u64 {
            let first = enc.coded_packet(session, generation, &mut rng).to_bytes();
            if generation % 3 == 0 {
                // An all-zero coefficient vector: never innovative, so
                // the buffer stays empty and it passes verbatim.
                let mut zero = first.to_vec();
                zero[8..12].fill(0);
                sequence.push(zero);
            }
            // The verbatim first packet, then the same again: not
            // innovative, and still answered with a recode.
            sequence.push(first.to_vec());
            sequence.push(first.to_vec());
            for _ in 0..generation % 5 {
                let pkt = enc.coded_packet(session, generation, &mut rng);
                sequence.push(pkt.to_bytes().to_vec());
            }
        }

        for role in [VnfRole::Recoder, VnfRole::Forwarder] {
            let RelayEngine {
                mut vnf, mut rng, ..
            } = engine_with_role(role).into_inner();
            let (mut owned, mut expected) = (Vec::new(), Vec::new());
            for dg in &sequence {
                vnf.process_wire_into(dg, 1, &mut rng, &mut owned);
                for pkt in owned.drain(..) {
                    let mut wire = Vec::new();
                    pkt.write_into(&mut wire);
                    expected.push(wire);
                    vnf.recycle(pkt);
                }
            }

            let shards = shard_with_role(role);
            let mut scratch = BatchScratch::new(1);
            let mut batch = RecvBatch::new(32, 2048);
            let src: SocketAddr = ([127, 0, 0, 1], 4000).into();
            let mut egress = Vec::new();
            for chunk in sequence.chunks(32) {
                batch.clear();
                for dg in chunk {
                    assert!(batch.push(dg, src));
                }
                relay_batch(&shards, 0, &mut scratch, &batch);
                egress.extend(scratch.send().iter().map(|(b, _)| b.to_vec()));
            }

            assert_eq!(
                egress.len(),
                sequence.len(),
                "{role:?}: one output per input"
            );
            assert_eq!(egress, expected, "{role:?}: egress bytes");
            let stats = shards[0].engine.lock().vnf().stats();
            assert_eq!(stats, vnf.stats(), "{role:?}: VNF counters");
            if role == VnfRole::Recoder {
                assert!(
                    stats.innovative_in < stats.packets_in,
                    "non-innovative inputs"
                );
            }
        }
    }

    #[test]
    fn route_cache_skips_unresolvable_hops() {
        let mut table = ForwardingTable::new();
        table.set(
            SessionId::new(1),
            vec!["127.0.0.1:4000".into(), "not-an-addr".into()],
        );
        table.set(SessionId::new(2), vec!["nodeA:4000".into()]);
        let mut cache = RouteCache::new();
        cache.rebuild(&table);
        assert_eq!(cache.sessions(), 1);
        let mut out = Vec::new();
        cache.lookup_into(SessionId::new(1), &mut out);
        assert_eq!(out, vec!["127.0.0.1:4000".parse::<SocketAddr>().unwrap()]);
        cache.lookup_into(SessionId::new(2), &mut out);
        assert!(out.is_empty());
    }
}
