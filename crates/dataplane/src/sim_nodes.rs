//! Simulator adapters: source, coding VNF and receiver behaviors.
//!
//! These wrap the transport-agnostic data-plane logic into
//! [`ncvnf_netsim::NodeBehavior`]s, adding what the wire adds: pacing at a
//! configured send rate, per-packet CPU cost at the relays, receiver
//! NACK-based retransmission and the first-generation ACK of Table II.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use rand::Rng;

use ncvnf_netsim::{Addr, Context, Datagram, NodeBehavior, SimDuration, SimTime};
use ncvnf_rlnc::{
    CodedPacket, GenerationConfig, ObjectDecoder, ObjectEncoder, RankTracker, ReceiveOutcome,
    RedundancyPolicy, SessionId,
};

use crate::cost::CodingCostModel;
use crate::dispatch::shard_of;
use crate::feedback::{Feedback, FeedbackKind};
use crate::vnf::{CodingVnf, VnfDecision};
use crate::{NC_DATA_PORT, NC_FEEDBACK_PORT};

/// One logical next hop in a forwarding table: either a single address or
/// a group of VNF instances in one data center, dispatched per
/// generation ("packets belonging to the same generation are dispatched
/// to the same VNF instance", Sec. IV-A).
#[derive(Debug, Clone)]
pub enum NextHop {
    /// A single downstream address.
    Unicast(Addr),
    /// Multiple equivalent VNF instances; one is chosen per
    /// (session, generation).
    Instances(Vec<Addr>),
}

impl NextHop {
    /// Resolves the concrete address for a packet of
    /// `(session, generation)`.
    ///
    /// # Panics
    ///
    /// Panics if an instance group is empty.
    pub fn resolve(&self, session: SessionId, generation: u64) -> Addr {
        match self {
            NextHop::Unicast(a) => *a,
            NextHop::Instances(addrs) => addrs[shard_of(session, generation, addrs.len())],
        }
    }
}

impl From<Addr> for NextHop {
    fn from(a: Addr) -> Self {
        NextHop::Unicast(a)
    }
}

/// Timer token used by sources for pacing.
const TOKEN_SEND: u64 = 1;
/// Receivers scan for stalled generations with this token.
const TOKEN_NACK_SCAN: u64 = 2;

/// Configuration of an [`ObjectSource`].
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Session id stamped on packets.
    pub session: SessionId,
    /// Generation layout.
    pub config: GenerationConfig,
    /// Extra coded packets per generation (NC0/NC1/NC2).
    pub redundancy: RedundancyPolicy,
    /// Send rate in on-the-wire bits per second (split across next hops).
    pub rate_bps: f64,
    /// Next hops; consecutive packets rotate across them (the source's
    /// outgoing flow split).
    pub next_hops: Vec<Addr>,
    /// CPU cost of encoding (bounds the send rate for large generations).
    pub cost: CodingCostModel,
    /// When true, emit original blocks with unit coefficient vectors
    /// instead of random combinations (the Non-NC baseline's source).
    pub systematic_only: bool,
}

/// A source node streaming one object as coded generations.
#[derive(Debug)]
pub struct ObjectSource {
    cfg: SourceConfig,
    encoder: Option<ObjectEncoder>,
    object_len: usize,
    /// (generation, systematic index) cursor through the fresh stream.
    next_generation: u64,
    emitted_in_generation: usize,
    /// Rank of what the current fresh generation's burst has carried so
    /// far. A random coefficient draw is occasionally linearly dependent on
    /// the burst's earlier packets (P ≈ 1/251 at g = 4 over GF(2^8));
    /// without redundancy such a generation could never decode from the
    /// burst alone, so dependent draws are redrawn (smart-source behaviour;
    /// retransmissions stay plain random draws).
    fresh_rank: RankTracker,
    /// Pending retransmission requests:
    /// (generation, packets to send, missing-block bitmap).
    retransmit_queue: VecDeque<(u64, u16, u32)>,
    next_hop_cursor: usize,
    packets_sent: u64,
    /// True while a pacing timer is outstanding; prevents feedback
    /// handling from arming a second (rate-multiplying) timer chain.
    pacer_armed: bool,
    /// Time the first generation finished leaving the source.
    first_generation_sent: Option<SimTime>,
    /// Time the generation-0 ACK came back (Table II's relayed RTT).
    first_generation_acked: Option<SimTime>,
    done_sending: bool,
}

impl ObjectSource {
    /// Creates a source that will stream `object` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the object is empty or `cfg.next_hops` is empty.
    pub fn new(cfg: SourceConfig, object: &[u8]) -> Self {
        assert!(!cfg.next_hops.is_empty(), "source needs next hops");
        let encoder =
            ObjectEncoder::new(cfg.config, cfg.session, object).expect("valid object data");
        let fresh_rank = RankTracker::new(cfg.config.blocks_per_generation());
        ObjectSource {
            object_len: object.len(),
            encoder: Some(encoder),
            cfg,
            next_generation: 0,
            emitted_in_generation: 0,
            fresh_rank,
            retransmit_queue: VecDeque::new(),
            next_hop_cursor: 0,
            packets_sent: 0,
            pacer_armed: false,
            first_generation_sent: None,
            first_generation_acked: None,
            done_sending: false,
        }
    }

    /// Creates a source streaming `object_len` synthetic bytes.
    ///
    /// # Panics
    ///
    /// Panics if `object_len` is zero or `cfg.next_hops` is empty.
    pub fn synthetic(cfg: SourceConfig, object_len: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut object = vec![0u8; object_len];
        rng.fill(&mut object[..]);
        Self::new(cfg, &object)
    }

    /// Bytes in the source object.
    pub fn object_len(&self) -> usize {
        self.object_len
    }

    /// Generations the object spans.
    pub fn generations(&self) -> u64 {
        self.encoder
            .as_ref()
            .expect("encoder present")
            .generations()
    }

    /// Total packets emitted (fresh + retransmitted).
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// When the first generation was fully emitted.
    pub fn first_generation_sent(&self) -> Option<SimTime> {
        self.first_generation_sent
    }

    /// When the generation-0 ACK arrived back from a receiver.
    pub fn first_generation_acked(&self) -> Option<SimTime> {
        self.first_generation_acked
    }

    /// Interval between packets at the configured rate, floored by the
    /// CPU cost of producing one coded packet.
    fn packet_interval(&self) -> SimDuration {
        let wire = self.cfg.config.packet_len() + Datagram::HEADER_OVERHEAD;
        let rate_gap = SimDuration::from_secs_f64(wire as f64 * 8.0 / self.cfg.rate_bps);
        let cpu_gap = if self.cfg.systematic_only {
            self.cfg.cost.forward_packet()
        } else {
            self.cfg
                .cost
                .recode_packet(&self.cfg.config, self.cfg.config.blocks_per_generation())
        };
        rate_gap.max(cpu_gap)
    }

    /// Produces the next packet to send, if any.
    fn next_packet<R: Rng + ?Sized>(&mut self, now: SimTime, rng: &mut R) -> Option<CodedPacket> {
        let encoder = self.encoder.as_ref().expect("encoder present");
        // Retransmissions take priority over fresh data.
        if let Some((generation, count, bitmap)) = self.retransmit_queue.front_mut() {
            let generation = *generation;
            // A coding source repairs with a fresh random combination; a
            // systematic (non-NC) source must resend the exact missing
            // block named by the bitmap.
            let pkt = if self.cfg.systematic_only {
                let idx =
                    (0..self.cfg.config.blocks_per_generation()).find(|i| *bitmap & (1 << i) != 0);
                match idx {
                    Some(i) => {
                        *bitmap &= !(1 << i);
                        encoder.systematic_packet(generation, i)
                    }
                    // Bitmap exhausted or unknown: cycle systematically.
                    None => encoder.systematic_packet(
                        generation,
                        (*count as usize) % self.cfg.config.blocks_per_generation(),
                    ),
                }
            } else {
                encoder.coded_packet(generation, rng)
            };
            if *count <= 1 {
                self.retransmit_queue.pop_front();
            } else {
                *count -= 1;
            }
            return Some(pkt);
        }
        if self.done_sending {
            return None;
        }
        let g = self.next_generation;
        let per_gen = self
            .cfg
            .redundancy
            .packets_per_generation(self.cfg.config.blocks_per_generation());
        let idx = self.emitted_in_generation;
        let pkt = if self.cfg.systematic_only && idx < self.cfg.config.blocks_per_generation() {
            let pkt = encoder.systematic_packet(g, idx);
            self.fresh_rank.absorb(pkt.coefficients());
            pkt
        } else {
            let mut pkt = encoder.coded_packet(g, rng);
            if !self.fresh_rank.is_full() {
                // Redraw dependent coefficient vectors (bounded, since a
                // redraw is dependent again with probability < 1/250).
                let mut redraws = 0;
                while !self.fresh_rank.absorb(pkt.coefficients()) && redraws < 16 {
                    pkt = encoder.coded_packet(g, rng);
                    redraws += 1;
                }
            }
            pkt
        };
        self.emitted_in_generation += 1;
        if self.emitted_in_generation >= per_gen {
            self.emitted_in_generation = 0;
            self.next_generation += 1;
            self.fresh_rank.reset();
            if g == 0 {
                self.first_generation_sent = Some(now);
            }
            if self.next_generation >= encoder.generations() {
                self.done_sending = true;
            }
        }
        Some(pkt)
    }
}

impl NodeBehavior for ObjectSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.pacer_armed = true;
        ctx.set_timer(SimDuration::ZERO, TOKEN_SEND);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let Ok(fb) = Feedback::from_bytes(&dgram.payload) else {
            return;
        };
        if fb.session != self.cfg.session {
            return;
        }
        match fb.kind {
            FeedbackKind::GenerationAck => {
                if fb.generation == 0 && self.first_generation_acked.is_none() {
                    self.first_generation_acked = Some(ctx.now());
                }
            }
            FeedbackKind::RetransmitRequest => {
                // Coalesce with an existing entry for the generation.
                if let Some(entry) = self
                    .retransmit_queue
                    .iter_mut()
                    .find(|(g, _, _)| *g == fb.generation)
                {
                    entry.1 = entry.1.max(fb.count);
                    entry.2 |= fb.missing_bitmap;
                } else {
                    self.retransmit_queue
                        .push_back((fb.generation, fb.count, fb.missing_bitmap));
                }
                // Wake the pacer if (and only if) it went idle after the
                // fresh stream ended.
                if !self.pacer_armed {
                    self.pacer_armed = true;
                    ctx.set_timer(SimDuration::ZERO, TOKEN_SEND);
                }
            }
            // Wake requests are controller-facing; a simulated source has
            // no use for them, and the simulator's ideal links never
            // congest, so backpressure frames are inert here too (the
            // live sender in `ncvnf-relay` reacts).
            FeedbackKind::Wake | FeedbackKind::Congestion => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != TOKEN_SEND {
            return;
        }
        let Some(pkt) = self.next_packet(ctx.now(), ctx.rng()) else {
            self.pacer_armed = false;
            return; // idle until a retransmit request arrives
        };
        let hop = self.cfg.next_hops[self.next_hop_cursor % self.cfg.next_hops.len()];
        self.next_hop_cursor += 1;
        self.packets_sent += 1;
        ctx.send(hop, NC_DATA_PORT, pkt.to_bytes());
        ctx.set_timer(self.packet_interval(), TOKEN_SEND);
    }
}

/// A coding VNF running inside the simulator.
///
/// Wraps a [`CodingVnf`] and adds per-packet CPU service time: packets are
/// processed one at a time and outputs leave when the (modelled) core is
/// free, which caps the VNF's coding throughput exactly like the paper's
/// `C(v)`.
pub struct VnfNode {
    vnf: CodingVnf,
    cost: CodingCostModel,
    /// Next hops per session with per-hop emission rates (outputs per
    /// input). The controller's conceptual-flow solution fixes each
    /// VNF's outgoing rate per edge (`f_m(out edge) / f_m(in)`); a coding
    /// point that receives 2C and owns a C-capacity egress must emit
    /// *one* (high-rank) combination per two inputs toward that hop
    /// rather than flood its queue with low-rank combos. Rate 1.0 is the
    /// paper's literal pipelined duplication.
    next_hops: HashMap<SessionId, Vec<(NextHop, f64)>>,
    /// Fractional emission accumulators per (session, hop index).
    emit_acc: HashMap<(SessionId, usize), f64>,
    busy_until: SimTime,
    next_token: u64,
    pending: HashMap<u64, Vec<(Addr, Bytes)>>,
    /// Reusable output buffer for the VNF's batch emit path; packets are
    /// recycled into the VNF's pool after serialization.
    forward_buf: Vec<CodedPacket>,
}

impl VnfNode {
    /// Creates a VNF node.
    pub fn new(vnf: CodingVnf, cost: CodingCostModel) -> Self {
        VnfNode {
            vnf,
            cost,
            next_hops: HashMap::new(),
            emit_acc: HashMap::new(),
            busy_until: SimTime::ZERO,
            next_token: 1000,
            pending: HashMap::new(),
            forward_buf: Vec::new(),
        }
    }

    /// Sets the next hops for a session (the forwarding-table entry),
    /// each at the default rate of one output per input.
    pub fn set_next_hops(&mut self, session: SessionId, hops: Vec<Addr>) {
        self.next_hops.insert(
            session,
            hops.into_iter().map(|a| (NextHop::from(a), 1.0)).collect(),
        );
    }

    /// Sets logical next hops (instance groups allowed), each at rate 1.0.
    pub fn set_logical_next_hops(&mut self, session: SessionId, hops: Vec<NextHop>) {
        self.next_hops
            .insert(session, hops.into_iter().map(|h| (h, 1.0)).collect());
    }

    /// Sets logical next hops with per-hop emission rates (outputs per
    /// input, usually `f_m(out edge) / f_m(into dc)` from the plan).
    ///
    /// # Panics
    ///
    /// Panics if any rate is not positive and finite.
    pub fn set_weighted_next_hops(&mut self, session: SessionId, hops: Vec<(NextHop, f64)>) {
        for &(_, r) in &hops {
            assert!(r.is_finite() && r > 0.0, "invalid emit rate {r}");
        }
        self.next_hops.insert(session, hops);
    }

    /// Sets a single recode output/input ratio applied to every hop of
    /// the session (default 1.0: the pure pipelined mode).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive and finite, or if the session's
    /// next hops have not been set yet.
    pub fn set_emit_ratio(&mut self, session: SessionId, ratio: f64) {
        assert!(ratio.is_finite() && ratio > 0.0, "invalid emit ratio");
        let hops = self
            .next_hops
            .get_mut(&session)
            .expect("set next hops before the emit ratio");
        for (_, r) in hops.iter_mut() {
            *r = ratio;
        }
    }

    /// Access to the wrapped VNF (roles, stats).
    pub fn vnf(&self) -> &CodingVnf {
        &self.vnf
    }

    /// Mutable access to the wrapped VNF.
    pub fn vnf_mut(&mut self) -> &mut CodingVnf {
        &mut self.vnf
    }
}

impl NodeBehavior for VnfNode {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        if dgram.dst.port != NC_DATA_PORT {
            return;
        }
        // Parse first so the per-session emit ratio can be applied.
        let g = self.vnf.config().blocks_per_generation();
        let Ok(pkt) = ncvnf_rlnc::CodedPacket::from_bytes(&dgram.payload, g) else {
            // Not an NC packet: let the VNF count it as malformed.
            self.vnf
                .process_wire_into(&dgram.payload, 0, ctx.rng(), &mut self.forward_buf);
            return;
        };
        let is_recoder = self
            .vnf
            .role(pkt.session())
            .is_some_and(|r| matches!(r, crate::VnfRole::Recoder));
        let session_hops = self
            .next_hops
            .get(&pkt.session())
            .cloned()
            .unwrap_or_default();
        // Decide, per hop, how many outputs this input triggers.
        //
        // Rate-matched coding point (rate < 1): emit only once the
        // generation's buffered rank clears g·(1−rate), so every emission
        // mixes packets from all upstream branches (maximal mixing);
        // already-full generations (repair traffic) always qualify. The
        // fractional accumulator keeps the long-run per-hop rate exact.
        let g = self.vnf.config().blocks_per_generation();
        let rank_before = self
            .vnf
            .generation_rank(pkt.session(), pkt.generation())
            .unwrap_or(0);
        let rank_after = (rank_before + 1).min(g);
        let mut per_hop: Vec<usize> = Vec::with_capacity(session_hops.len());
        for (h, &(_, rate)) in session_hops.iter().enumerate() {
            let k = if !is_recoder || (rate - 1.0).abs() < 1e-12 {
                1
            } else {
                let acc = self.emit_acc.entry((pkt.session(), h)).or_insert(0.0);
                *acc += rate;
                if *acc >= 1.0 {
                    let per_gen = ((rate * g as f64).round() as usize).clamp(1, g);
                    let threshold = g - per_gen;
                    if rank_after > threshold {
                        let k = acc.floor().min(g as f64);
                        *acc -= k;
                        k as usize
                    } else {
                        0 // hold the credit until the rank is high enough
                    }
                } else {
                    0
                }
            };
            per_hop.push(k);
        }
        let outputs: usize = if is_recoder { per_hop.iter().sum() } else { 1 };
        self.forward_buf.clear();
        let output = self
            .vnf
            .process_packet_into(&pkt, outputs, ctx.rng(), &mut self.forward_buf);
        let coding = match output {
            VnfDecision::Forwarded(_) => true,
            VnfDecision::Decoded {
                session,
                generation,
                payload,
            } => {
                // A decoder VNF forwards the *recovered payload* to its
                // destinations (Sec. III-A), re-chunked to MTU size.
                let chunk_size = self.vnf.config().block_size();
                for chunk in crate::decoded::chunk_generation(generation, &payload, chunk_size) {
                    let wire = chunk.to_bytes();
                    for (hop, _) in &session_hops {
                        let addr = hop.resolve(session, generation);
                        ctx.send(
                            Addr::new(addr.node, crate::NC_DECODED_PORT),
                            crate::NC_DECODED_PORT,
                            wire.clone(),
                        );
                    }
                }
                return;
            }
            VnfDecision::Nothing => return,
        };
        if session_hops.is_empty() || self.forward_buf.is_empty() {
            return;
        }
        // Model the CPU: serialize packet processing on one core.
        let role_cost = if coding
            && self
                .vnf
                .role(self.forward_buf[0].session())
                .is_some_and(|r| r.does_coding())
        {
            self.cost.recode_packet(
                &self.vnf.config(),
                self.vnf.config().blocks_per_generation(),
            )
        } else {
            self.cost.forward_packet()
        };
        let start = self.busy_until.max(ctx.now());
        let ready = start + role_cost;
        self.busy_until = ready;
        let mut out = Vec::new();
        if is_recoder {
            // Distribute the distinct recodes across hops per the per-hop
            // emission counts (each hop gets its own fresh combination).
            let mut it = self.forward_buf.iter();
            for (h, &k) in per_hop.iter().enumerate() {
                for _ in 0..k {
                    let Some(pkt) = it.next() else { break };
                    let addr = session_hops[h].0.resolve(pkt.session(), pkt.generation());
                    out.push((addr, pkt.to_bytes()));
                }
            }
        } else {
            // Forwarders duplicate the packet to every hop.
            for pkt in &self.forward_buf {
                let wire = pkt.to_bytes();
                for (hop, _) in &session_hops {
                    let addr = hop.resolve(pkt.session(), pkt.generation());
                    out.push((addr, wire.clone()));
                }
            }
        }
        // The emitted packets are on the wire now; recover their buffers.
        for pkt in self.forward_buf.drain(..) {
            self.vnf.recycle(pkt);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, out);
        ctx.set_timer(ready - ctx.now(), token);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if let Some(out) = self.pending.remove(&token) {
            for (hop, wire) in out {
                ctx.send(hop, NC_DATA_PORT, wire);
            }
        }
    }
}

/// A receiver node: decodes an object, measures goodput, NACKs stalls.
pub struct ReceiverNode {
    session: SessionId,
    config: GenerationConfig,
    decoder: ObjectDecoder,
    source: Addr,
    /// How often to scan for stalled generations.
    nack_interval: SimDuration,
    /// Innovative payload bytes over time.
    goodput: ncvnf_netsim::stats::ThroughputSeries,
    highest_generation_seen: u64,
    /// Last time any session packet arrived (detects end-of-stream).
    last_arrival: SimTime,
    /// Last time each incomplete generation made progress.
    last_progress: HashMap<u64, SimTime>,
    /// First time each generation was seen (for the lag estimator).
    first_seen: HashMap<u64, SimTime>,
    /// Generations we have requested repairs for (their completion lag
    /// reflects repair latency, not path spread, and must not feed the
    /// estimator — otherwise slow repairs inflate the threshold which
    /// slows repairs further).
    nacked: std::collections::HashSet<u64>,
    /// EWMA of first-packet-to-completion lag per generation, in ms.
    /// Paths through deep queues make later ranks arrive much later than
    /// the first; a fixed stall threshold would NACK packets that are
    /// merely queued (an RTO-style estimator, in spirit).
    complete_lag_ewma_ms: f64,
    completed_at: Option<SimTime>,
    gen0_acked: bool,
    packets_received: u64,
    innovative_received: u64,
    nacks_sent: u64,
}

impl ReceiverNode {
    /// Creates a receiver expecting `generations` generations of a
    /// session, NACKing to `source` when a generation stalls.
    pub fn new(
        session: SessionId,
        config: GenerationConfig,
        generations: u64,
        source: Addr,
        goodput_bin: SimDuration,
    ) -> Self {
        ReceiverNode {
            session,
            config,
            decoder: ObjectDecoder::new(config, generations),
            source,
            nack_interval: SimDuration::from_millis(50),
            goodput: ncvnf_netsim::stats::ThroughputSeries::new(goodput_bin),
            highest_generation_seen: 0,
            last_arrival: SimTime::ZERO,
            last_progress: HashMap::new(),
            first_seen: HashMap::new(),
            nacked: std::collections::HashSet::new(),
            complete_lag_ewma_ms: 0.0,
            completed_at: None,
            gen0_acked: false,
            packets_received: 0,
            innovative_received: 0,
            nacks_sent: 0,
        }
    }

    /// Overrides the stall-scan interval.
    pub fn set_nack_interval(&mut self, interval: SimDuration) {
        self.nack_interval = interval;
    }

    /// When the whole object finished decoding.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Goodput time series (innovative payload bytes).
    pub fn goodput(&self) -> &ncvnf_netsim::stats::ThroughputSeries {
        &self.goodput
    }

    /// Packets received (any kind).
    pub fn packets_received(&self) -> u64 {
        self.packets_received
    }

    /// Packets that increased decoding rank.
    pub fn innovative_received(&self) -> u64 {
        self.innovative_received
    }

    /// Retransmission requests sent.
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Consumes the node and returns the decoded object, if complete.
    pub fn into_object(self) -> Option<Vec<u8>> {
        self.decoder.into_object().ok()
    }

    /// Generations fully decoded so far.
    pub fn generations_complete(&self) -> usize {
        self.decoder.generations_complete()
    }
}

impl NodeBehavior for ReceiverNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.nack_interval, TOKEN_NACK_SCAN);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        if dgram.dst.port != NC_DATA_PORT {
            return;
        }
        let Ok(pkt) = CodedPacket::from_bytes(&dgram.payload, self.config.blocks_per_generation())
        else {
            return;
        };
        if pkt.session() != self.session {
            return;
        }
        self.packets_received += 1;
        self.last_arrival = ctx.now();
        self.highest_generation_seen = self.highest_generation_seen.max(pkt.generation());
        self.first_seen.entry(pkt.generation()).or_insert(ctx.now());
        let before = self.decoder.generations_complete();
        let outcome = match self.decoder.receive(&pkt) {
            Ok(o) => o,
            Err(_) => return,
        };
        if matches!(outcome, ReceiveOutcome::Innovative { .. }) {
            self.innovative_received += 1;
            self.goodput
                .record(ctx.now(), self.config.block_size() as u64);
            self.last_progress.insert(pkt.generation(), ctx.now());
        }
        let after = self.decoder.generations_complete();
        if after > before {
            self.last_progress.remove(&pkt.generation());
            let repaired = self.nacked.remove(&pkt.generation());
            if let Some(first) = self.first_seen.remove(&pkt.generation()) {
                if !repaired {
                    let lag = ctx.now().since(first).as_millis_f64();
                    self.complete_lag_ewma_ms = if self.complete_lag_ewma_ms == 0.0 {
                        lag
                    } else {
                        0.875 * self.complete_lag_ewma_ms + 0.125 * lag
                    };
                }
            }
            if pkt.generation() == 0 && !self.gen0_acked {
                self.gen0_acked = true;
                let fb = Feedback {
                    kind: FeedbackKind::GenerationAck,
                    session: self.session,
                    generation: 0,
                    count: 0,
                    missing_bitmap: 0,
                };
                ctx.send(self.source, NC_FEEDBACK_PORT, fb.to_bytes());
            }
            if self.decoder.is_complete() && self.completed_at.is_none() {
                self.completed_at = Some(ctx.now());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != TOKEN_NACK_SCAN {
            return;
        }
        if self.completed_at.is_none() {
            // Request more packets for generations that stalled: strictly
            // older than the newest one we have seen (the stream has moved
            // past them) and quiet for at least one scan interval.
            let now = ctx.now();
            let expected = self.decoder.generations_expected() as u64;
            // Normally a generation is only considered stalled once the
            // stream has moved past it; when the stream itself has gone
            // quiet (tail loss at end of transfer) every incomplete
            // generation is fair game.
            let stream_idle = now.since(self.last_arrival) >= self.nack_interval;
            let upper = if stream_idle {
                expected
            } else {
                self.highest_generation_seen.min(expected)
            };
            for g in 0..upper {
                let missing = self.missing_rank_of(g);
                if missing == 0 {
                    continue;
                }
                let quiet_since = self.last_progress.get(&g).copied().unwrap_or(SimTime::ZERO);
                // Stall threshold: the scan interval plus twice the
                // typical completion lag, so generations whose remaining
                // rank is merely in flight on a longer path are not
                // NACKed. Before any completion calibrates the estimator,
                // be conservative (10 scan intervals).
                let lag_ms = if self.complete_lag_ewma_ms > 0.0 {
                    self.complete_lag_ewma_ms
                } else {
                    5.0 * self.nack_interval.as_millis_f64()
                };
                // Cap the threshold: whatever the estimator says, a
                // generation quiet for many scan intervals is stalled.
                let lag_ms = lag_ms.min(10.0 * self.nack_interval.as_millis_f64());
                let threshold =
                    self.nack_interval + SimDuration::from_secs_f64(2.0 * lag_ms / 1000.0);
                if now.since(quiet_since) >= threshold {
                    // Name the exact missing blocks when decoding is still
                    // systematic (pivot columns = block indices).
                    let mut bitmap = 0u32;
                    for c in self.decoder.generation_missing_columns(g) {
                        if c < 32 {
                            bitmap |= 1 << c;
                        }
                    }
                    let fb = Feedback {
                        kind: FeedbackKind::RetransmitRequest,
                        session: self.session,
                        generation: g,
                        count: missing as u16,
                        missing_bitmap: bitmap,
                    };
                    self.nacks_sent += 1;
                    self.nacked.insert(g);
                    ctx.send(self.source, NC_FEEDBACK_PORT, fb.to_bytes());
                    self.last_progress.insert(g, now);
                }
            }
            ctx.set_timer(self.nack_interval, TOKEN_NACK_SCAN);
        }
    }
}

impl ReceiverNode {
    fn missing_rank_of(&self, _generation: u64) -> usize {
        // ObjectDecoder tracks aggregate missing rank; per-generation
        // detail comes from whether the generation is complete. We request
        // a full generation's worth minus what an incomplete decoder has;
        // a small overshoot only costs redundant packets.
        if self.decoder.is_complete() {
            0
        } else {
            self.per_generation_missing(_generation)
        }
    }

    fn per_generation_missing(&self, generation: u64) -> usize {
        self.decoder
            .generation_rank(generation)
            .map(|rank| self.config.blocks_per_generation() - rank)
            .unwrap_or(0)
    }
}
