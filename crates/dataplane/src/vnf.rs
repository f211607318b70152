//! The coding VNF packet processor (transport-agnostic core).

use rand::Rng;
use std::collections::{HashMap, VecDeque};

use ncvnf_rlnc::window::{WindowConfig, WindowDecoder, WindowOutcome, WindowRecoder};
use ncvnf_rlnc::{
    CodecError, CodedPacket, GenerationConfig, GenerationDecoder, PacketView, PayloadPool,
    PoolStats, Recoder, SessionId, WindowAck, WireKind,
};

use crate::buffer::SessionBuffer;
use crate::role::VnfRole;

/// Counters exposed by a [`CodingVnf`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VnfStats {
    /// NC packets received.
    pub packets_in: u64,
    /// NC packets emitted.
    pub packets_out: u64,
    /// Received packets that increased some generation's rank.
    pub innovative_in: u64,
    /// Packets that were not valid NC packets.
    pub malformed: u64,
    /// Packets for sessions this VNF has no role for.
    pub unknown_session: u64,
    /// Generations fully decoded (decoder role only).
    pub generations_decoded: u64,
    /// Decoder-role generation states dropped by the FIFO retention policy
    /// (mirrors the paper's 1024-generation buffer bound; without it a
    /// long-lived decoder VNF leaks one `GenerationDecoder` per generation
    /// forever).
    pub evicted_decoders: u64,
    /// Generation states dropped by the byte-denominated memory budget
    /// (pressure eviction, ordered by session priority then generation
    /// staleness — distinct from the per-session FIFO bound above).
    pub budget_evictions: u64,
    /// Sliding-window data packets received (wire kind 2).
    pub window_packets_in: u64,
    /// Sliding-window packets emitted (forwarded or recoded).
    pub window_packets_out: u64,
    /// Stream symbols delivered in order by windowed decoders.
    pub window_symbols_delivered: u64,
    /// Window acks absorbed (each may slide a recoder's floor forward).
    pub window_acks_in: u64,
}

/// What the VNF did with one input packet
/// ([`CodingVnf::process_view_into`]), beyond the packets emitted into
/// the caller's [`Sink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VnfDecision {
    /// This many packets were emitted into the sink.
    Forwarded(usize),
    /// A generation finished decoding (decoder role); deliver the payload.
    Decoded {
        /// Session of the decoded generation.
        session: SessionId,
        /// Generation number.
        generation: u64,
        /// Recovered generation payload.
        payload: Vec<u8>,
    },
    /// A windowed decoder delivered one or more in-order symbols.
    Delivered {
        /// Session of the windowed stream.
        session: SessionId,
        /// Absolute index of the first delivered symbol.
        first: u64,
        /// Delivered symbols, consecutive from `first`.
        payloads: Vec<Vec<u8>>,
    },
    /// Nothing to emit (redundant or stale packet, or unknown/malformed
    /// input).
    Nothing,
}

/// Where the packets one VNF step emits go. The role dispatch is written
/// once, over this: `Vec<CodedPacket>` collects owned packets (the
/// simulator, tests, [`CodingVnf::process_wire_into`]); a relay writes
/// each packet's wire image straight into its egress buffer instead.
/// Either way the packets and the [`VnfStats`] are the same.
pub trait Sink {
    /// The input packet travels on unchanged (a forwarder, or the
    /// pipelined first packet of an empty recode buffer).
    fn verbatim(&mut self, view: &PacketView<'_>, pool: &mut PayloadPool);

    /// A fresh random combination of a generation's buffer.
    ///
    /// # Errors
    ///
    /// [`CodecError::EmptyRecoder`] if nothing is buffered; nothing is
    /// emitted then.
    fn recode<R: Rng + ?Sized>(
        &mut self,
        recoder: &mut Recoder,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<(), CodecError>;

    /// A packet the VNF built from `pool` (a windowed recode); a sink
    /// that does not keep it hands its buffers back to `pool`.
    fn packet(&mut self, pkt: CodedPacket, pool: &mut PayloadPool);
}

impl Sink for Vec<CodedPacket> {
    fn verbatim(&mut self, view: &PacketView<'_>, pool: &mut PayloadPool) {
        self.push(view.to_owned_pooled(pool));
    }

    fn recode<R: Rng + ?Sized>(
        &mut self,
        recoder: &mut Recoder,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<(), CodecError> {
        self.push(recoder.recode_into(rng, pool)?);
        Ok(())
    }

    fn packet(&mut self, pkt: CodedPacket, _pool: &mut PayloadPool) {
        self.push(pkt);
    }
}

/// The recode buffer one input packet lands in: its generation's
/// [`Recoder`] or its stream's [`WindowRecoder`]. The pipelined emit loop
/// is written once over this.
enum RecodeBuffer<'a> {
    Generation(&'a mut Recoder),
    Window(&'a mut WindowRecoder),
}

impl RecodeBuffer<'_> {
    fn rank(&self) -> usize {
        match self {
            RecodeBuffer::Generation(r) => r.rank(),
            RecodeBuffer::Window(r) => r.rank(),
        }
    }

    fn absorb(&mut self, view: &PacketView<'_>) -> Result<bool, CodecError> {
        match self {
            RecodeBuffer::Generation(r) => r.absorb(view.coefficients(), view.payload()),
            RecodeBuffer::Window(r) => r.absorb(view.index(), view.coefficients(), view.payload()),
        }
    }

    fn recode<R: Rng + ?Sized, S: Sink>(
        &mut self,
        sink: &mut S,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<(), CodecError> {
        match self {
            RecodeBuffer::Generation(r) => sink.recode(r, rng, pool),
            RecodeBuffer::Window(r) => {
                let pkt = r.recode_into(rng, pool)?;
                sink.packet(pkt, pool);
                Ok(())
            }
        }
    }
}

/// Per-session state of the coding function.
#[derive(Debug)]
struct SessionState {
    role: VnfRole,
    buffer: SessionBuffer,
    /// Decoder role: generation states, bounded by the same FIFO retention
    /// policy as the recoder buffer (completed decoders stay until evicted
    /// so late duplicates of a finished generation are still absorbed).
    decoders: HashMap<u64, GenerationDecoder>,
    /// FIFO of decoder generations, oldest first.
    decoder_order: VecDeque<u64>,
    /// Recoder role: sliding-window recode buffer (created on the first
    /// windowed packet of the session).
    window_recoder: Option<WindowRecoder>,
    /// Decoder role: sliding-window in-order delivery state.
    window_decoder: Option<WindowDecoder>,
}

/// The virtual network coding function: a packet-in/packets-out state
/// machine, independent of any transport so the same logic runs inside
/// the simulator and behind real UDP sockets.
///
/// # Examples
///
/// ```
/// use ncvnf_dataplane::{CodingVnf, VnfRole};
/// use ncvnf_rlnc::{GenerationConfig, SessionId};
///
/// let mut vnf = CodingVnf::new(GenerationConfig::paper_default(), 1024);
/// vnf.set_role(SessionId::new(1), VnfRole::Recoder);
/// assert_eq!(vnf.role(SessionId::new(1)), Some(VnfRole::Recoder));
/// ```
#[derive(Debug)]
pub struct CodingVnf {
    config: GenerationConfig,
    /// Layout of sliding-window streams this VNF serves (symbol size
    /// defaults to the generation block size).
    window_config: WindowConfig,
    buffer_generations: usize,
    sessions: HashMap<SessionId, SessionState>,
    /// Recycled coefficient/payload buffers for emitted packets. Adapters
    /// return finished packets via [`recycle`](Self::recycle) so the emit
    /// path stops allocating once warm.
    pool: PayloadPool,
    stats: VnfStats,
    /// Byte cap on live generation state (recoder buffers + decoder
    /// matrices); `None` = unbounded (the pre-budget behavior).
    memory_budget: Option<usize>,
    /// Control-plane session priorities (0 = most important). Sessions
    /// without an entry rank last and are evicted first under pressure.
    priorities: HashMap<SessionId, u8>,
}

impl CodingVnf {
    /// Creates a VNF with the given generation layout and per-session
    /// buffer capacity (in generations).
    ///
    /// # Panics
    ///
    /// Panics if `buffer_generations` is zero.
    pub fn new(config: GenerationConfig, buffer_generations: usize) -> Self {
        assert!(buffer_generations > 0, "buffer capacity must be positive");
        let window_config = WindowConfig::new(config.block_size(), Self::DEFAULT_WINDOW_CAPACITY)
            .expect("block size is validated positive");
        CodingVnf {
            config,
            window_config,
            buffer_generations,
            sessions: HashMap::new(),
            pool: PayloadPool::new(),
            stats: VnfStats::default(),
            memory_budget: None,
            priorities: HashMap::new(),
        }
    }

    /// Caps the bytes of live generation state (recoder buffers and
    /// decoder matrices, estimated at full-generation cost). Exceeding
    /// the cap evicts whole generations, lowest-priority session first,
    /// stalest generation first within it. `None` removes the cap.
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.memory_budget = budget;
        if budget.is_some() {
            self.enforce_memory_budget();
        }
    }

    /// The configured generation-state byte cap, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// Caps the bytes the VNF's buffer pool may hold (idle + in flight);
    /// see [`PayloadPool::set_byte_budget`].
    pub fn set_pool_budget(&mut self, budget: Option<usize>) {
        self.pool.set_byte_budget(budget);
    }

    /// Memory pressure of the VNF's buffer pool against its byte budget
    /// (`0.0` when uncapped); see [`PayloadPool::pressure`].
    pub fn pool_pressure(&self) -> f64 {
        self.pool.pressure()
    }

    /// Assigns a control-plane priority for `session` (0 = most
    /// important). Under memory pressure, generations of lower-priority
    /// (higher-valued) sessions are evicted first.
    pub fn set_session_priority(&mut self, session: SessionId, priority: u8) {
        self.priorities.insert(session, priority);
    }

    /// The priority of `session` (sessions never provisioned rank last).
    pub fn session_priority(&self, session: SessionId) -> u8 {
        self.priorities.get(&session).copied().unwrap_or(u8::MAX)
    }

    /// Conservative byte cost of one live generation state: a full-rank
    /// coefficient matrix plus the buffered payload blocks.
    fn generation_state_cost(&self) -> usize {
        let g = self.config.blocks_per_generation();
        g * (g + self.config.block_size())
    }

    /// Live generation states across all sessions (recoder + decoder).
    fn live_generation_states(&self) -> usize {
        self.sessions
            .values()
            .map(|s| s.buffer.len() + s.decoders.len())
            .sum()
    }

    /// Estimated bytes of live generation state.
    pub fn estimated_state_bytes(&self) -> usize {
        self.live_generation_states() * self.generation_state_cost()
    }

    /// Evicts whole generations until the state estimate fits the
    /// budget: the victim is the lowest-priority session with live
    /// state (ties broken toward the higher session id, so the order is
    /// deterministic), and within it the stalest generation goes first.
    fn enforce_memory_budget(&mut self) {
        let Some(budget) = self.memory_budget else {
            return;
        };
        let cost = self.generation_state_cost().max(1);
        while self.live_generation_states() * cost > budget {
            let priorities = &self.priorities;
            let victim = self
                .sessions
                .iter()
                .filter(|(_, s)| s.buffer.len() + s.decoders.len() > 0)
                .max_by_key(|(id, _)| (priorities.get(*id).copied().unwrap_or(u8::MAX), id.value()))
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                break;
            };
            let state = self.sessions.get_mut(&victim).expect("victim exists");
            if let Some(evict) = state.decoder_order.pop_front() {
                state.decoders.remove(&evict);
            } else {
                state.buffer.evict_oldest();
            }
            self.stats.budget_evictions += 1;
        }
    }

    /// The generation layout in use.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// Assigns (or replaces) the role for a session.
    ///
    /// Re-applying the role a session already holds is idempotent: the
    /// buffered generation state survives, so a duplicate `NC_SETTINGS`
    /// delivery (the control plane retries un-ACKed pushes) cannot wipe
    /// in-flight generations. Switching to a *different* role clears
    /// the session's buffered state, since buffers and decoders of the
    /// old role are meaningless to the new one.
    pub fn set_role(&mut self, session: SessionId, role: VnfRole) {
        if self.sessions.get(&session).is_some_and(|s| s.role == role) {
            return;
        }
        self.sessions.insert(
            session,
            SessionState {
                role,
                buffer: SessionBuffer::new(self.config, session, self.buffer_generations),
                decoders: HashMap::new(),
                decoder_order: VecDeque::new(),
                window_recoder: None,
                window_decoder: None,
            },
        );
    }

    /// Removes a session entirely (on `NC_VNF_END` / session teardown).
    pub fn remove_session(&mut self, session: SessionId) -> bool {
        self.sessions.remove(&session).is_some()
    }

    /// The role assigned for `session`, if any.
    pub fn role(&self, session: SessionId) -> Option<VnfRole> {
        self.sessions.get(&session).map(|s| s.role)
    }

    /// Sessions currently configured.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Counters.
    pub fn stats(&self) -> VnfStats {
        self.stats
    }

    /// Buffered rank of a generation (recoder role), if present.
    pub fn generation_rank(&self, session: SessionId, generation: u64) -> Option<usize> {
        self.sessions
            .get(&session)
            .and_then(|s| s.buffer.get(generation))
            .map(|r| r.rank())
    }

    /// Live decoder generation states for a session (decoder role). The
    /// retention policy keeps this at or below the configured buffer
    /// capacity regardless of how many generations have flowed through.
    pub fn decoder_count(&self, session: SessionId) -> usize {
        self.sessions.get(&session).map_or(0, |s| s.decoders.len())
    }

    /// Counters of the VNF's internal buffer pool (hit rate ≈ 1.0 once the
    /// forward/recode steady state is allocation-free).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Processes one raw wire datagram of either data framing — the one
    /// VNF step: check the NC header ("each VNF ... checks if a packet has
    /// the network coding protocol header"), then forward / recode /
    /// decode by the session's role.
    ///
    /// [`parse`](Self::parse) then [`process_view_into`](Self::process_view_into)
    /// with `out` as the sink: emitted packets are appended to `out`
    /// (reuse it across calls) and draw their buffers from the VNF's
    /// pool; return them via [`recycle`](Self::recycle) after sending and
    /// the steady state is allocation-free.
    pub fn process_wire_into<R: Rng + ?Sized>(
        &mut self,
        data: &[u8],
        outputs: usize,
        rng: &mut R,
        out: &mut Vec<CodedPacket>,
    ) -> VnfDecision {
        match self.parse(data) {
            Some(view) => self.process_view_into(view, outputs, rng, out),
            None => VnfDecision::Nothing,
        }
    }

    /// [`process_wire_into`](Self::process_wire_into) for a packet that
    /// is already parsed and owned (the simulator's nodes).
    pub fn process_packet_into<R: Rng + ?Sized>(
        &mut self,
        pkt: &CodedPacket,
        outputs: usize,
        rng: &mut R,
        out: &mut Vec<CodedPacket>,
    ) -> VnfDecision {
        self.process_view_into(pkt.view(), outputs, rng, out)
    }

    /// Parses a datagram of either data framing at this VNF's generation
    /// size as a borrowed [`PacketView`]; a datagram that does not parse
    /// is counted in [`VnfStats::malformed`].
    pub fn parse<'a>(&mut self, data: &'a [u8]) -> Option<PacketView<'a>> {
        let view = PacketView::parse(data, self.config.blocks_per_generation()).ok();
        self.stats.malformed += u64::from(view.is_none());
        view
    }

    /// Forwards / recodes / decodes one parsed packet by its session's
    /// role, emitting into `sink`.
    ///
    /// The recode and decode steady states read coefficients and payload
    /// straight from the view; the input is copied only when it travels
    /// on verbatim (forwarder role, or the pipelined first packet of an
    /// empty recode buffer). A recoding role emits exactly `outputs`
    /// packets for this input (0 = absorb only; the simulator uses this
    /// to match a coding point's emission rate to its planned outgoing
    /// flow); other roles ignore `outputs`.
    pub fn process_view_into<R: Rng + ?Sized, S: Sink>(
        &mut self,
        view: PacketView<'_>,
        outputs: usize,
        rng: &mut R,
        sink: &mut S,
    ) -> VnfDecision {
        let decision = self.code(view, outputs, rng, sink);
        // Budgeted relays pay one branch here; the default (uncapped)
        // hot path skips the enforcement scan entirely.
        if self.memory_budget.is_some() {
            self.enforce_memory_budget();
        }
        decision
    }

    /// Default in-flight window for sliding-window sessions (symbols).
    pub const DEFAULT_WINDOW_CAPACITY: usize = 32;

    /// The sliding-window layout this VNF applies to windowed streams.
    pub fn window_config(&self) -> WindowConfig {
        self.window_config
    }

    /// Replaces the sliding-window layout. Sessions keep their existing
    /// windowed state; the new layout applies to windows created after
    /// this call (push it before traffic starts, like a role).
    pub fn set_window_config(&mut self, window: WindowConfig) {
        self.window_config = window;
    }

    /// Absorbs a window ack (wire kind 3): a recoder slides its buffer
    /// floor so symbols the receiver already has stop occupying rows.
    /// Returns `false` if the session is unknown (the ack should still
    /// be forwarded upstream — acks are addressed to the sender, relays
    /// only eavesdrop).
    pub fn handle_window_ack(&mut self, ack: &WindowAck) -> bool {
        let Some(state) = self.sessions.get_mut(&ack.session) else {
            self.stats.unknown_session += 1;
            return false;
        };
        self.stats.window_acks_in += 1;
        if let Some(recoder) = state.window_recoder.as_mut() {
            recoder.handle_ack(ack.cumulative);
        }
        true
    }

    /// The cumulative ack a windowed decoder session should report (the
    /// next in-order symbol index it needs), if the session has windowed
    /// state.
    pub fn window_cumulative_ack(&self, session: SessionId) -> Option<u64> {
        self.sessions
            .get(&session)?
            .window_decoder
            .as_ref()
            .map(|d| d.cumulative_ack())
    }

    fn code<R: Rng + ?Sized, S: Sink>(
        &mut self,
        view: PacketView<'_>,
        outputs: usize,
        rng: &mut R,
        sink: &mut S,
    ) -> VnfDecision {
        let window = view.kind() == WireKind::Window;
        let session = view.session();
        if window {
            self.stats.window_packets_in += 1;
        } else {
            self.stats.packets_in += 1;
        }
        let Some(state) = self.sessions.get_mut(&session) else {
            self.stats.unknown_session += 1;
            return VnfDecision::Nothing;
        };
        let emitted = match state.role {
            VnfRole::Forwarder => {
                sink.verbatim(&view, &mut self.pool);
                1
            }
            VnfRole::Recoder => {
                let mut buffer = if window {
                    RecodeBuffer::Window(
                        state
                            .window_recoder
                            .get_or_insert_with(|| WindowRecoder::new(self.window_config, session)),
                    )
                } else {
                    RecodeBuffer::Generation(state.buffer.recoder_for(view.index()))
                };
                let first = buffer.rank() == 0;
                match buffer.absorb(&view) {
                    Ok(innovative) => self.stats.innovative_in += u64::from(innovative),
                    Err(_) => {
                        self.stats.malformed += 1;
                        return VnfDecision::Nothing;
                    }
                }
                if outputs == 0 {
                    return VnfDecision::Nothing;
                }
                let mut emitted = 0;
                for i in 0..outputs {
                    // Pipelined: the very first packet of an empty buffer
                    // passes through verbatim, later emissions are fresh
                    // recombinations.
                    if first && i == 0 {
                        sink.verbatim(&view, &mut self.pool);
                    } else {
                        match buffer.recode(sink, rng, &mut self.pool) {
                            Ok(()) => {}
                            Err(CodecError::EmptyRecoder) => sink.verbatim(&view, &mut self.pool),
                            Err(_) => break,
                        }
                    }
                    emitted += 1;
                }
                emitted
            }
            VnfRole::Decoder if window => {
                let decoder = state
                    .window_decoder
                    .get_or_insert_with(|| WindowDecoder::new(self.window_config));
                return match decoder.receive(view.index(), view.coefficients(), view.payload()) {
                    Ok(WindowOutcome::Delivered { first, payloads }) => {
                        self.stats.innovative_in += 1;
                        self.stats.window_symbols_delivered += payloads.len() as u64;
                        VnfDecision::Delivered {
                            session,
                            first,
                            payloads,
                        }
                    }
                    Ok(WindowOutcome::Innovative) => {
                        self.stats.innovative_in += 1;
                        VnfDecision::Nothing
                    }
                    Ok(WindowOutcome::Redundant | WindowOutcome::Stale) => VnfDecision::Nothing,
                    Err(_) => {
                        self.stats.malformed += 1;
                        VnfDecision::Nothing
                    }
                };
            }
            VnfRole::Decoder => {
                let generation = view.index();
                if !state.decoders.contains_key(&generation) {
                    if state.decoder_order.len() >= self.buffer_generations {
                        if let Some(evict) = state.decoder_order.pop_front() {
                            state.decoders.remove(&evict);
                            self.stats.evicted_decoders += 1;
                        }
                    }
                    state.decoder_order.push_back(generation);
                    state
                        .decoders
                        .insert(generation, GenerationDecoder::new(self.config));
                }
                let decoder = state.decoders.get_mut(&generation).expect("just ensured");
                if decoder.is_complete() {
                    return VnfDecision::Nothing;
                }
                return match decoder.receive(view.coefficients(), view.payload()) {
                    Ok(outcome) => {
                        if matches!(outcome, ncvnf_rlnc::ReceiveOutcome::Innovative { .. }) {
                            self.stats.innovative_in += 1;
                        }
                        if decoder.is_complete() {
                            let payload = decoder
                                .decoded_payload()
                                .expect("complete decoder yields payload");
                            self.stats.generations_decoded += 1;
                            VnfDecision::Decoded {
                                session,
                                generation,
                                payload,
                            }
                        } else {
                            VnfDecision::Nothing
                        }
                    }
                    Err(_) => {
                        self.stats.malformed += 1;
                        VnfDecision::Nothing
                    }
                };
            }
        };
        if window {
            self.stats.window_packets_out += emitted as u64;
        } else {
            self.stats.packets_out += emitted as u64;
        }
        VnfDecision::Forwarded(emitted)
    }

    /// Returns a finished packet's buffers to the VNF's pool (call after
    /// the packet has been serialized/sent and no clones remain alive).
    pub fn recycle(&mut self, pkt: CodedPacket) {
        self.pool.recycle(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncvnf_rlnc::GenerationEncoder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GenerationConfig {
        GenerationConfig::new(16, 4).unwrap()
    }

    fn encoder(data: &[u8]) -> GenerationEncoder {
        GenerationEncoder::new(cfg(), data).unwrap()
    }

    /// One pipelined step over an owned packet: the decision and what was
    /// emitted.
    fn step(
        vnf: &mut CodingVnf,
        pkt: &CodedPacket,
        rng: &mut StdRng,
    ) -> (VnfDecision, Vec<CodedPacket>) {
        let mut out = Vec::new();
        let decision = vnf.process_packet_into(pkt, 1, rng, &mut out);
        (decision, out)
    }

    #[test]
    fn forwarder_passes_packets_unchanged() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(1), VnfRole::Forwarder);
        let enc = encoder(&[1u8; 64]);
        let mut rng = StdRng::seed_from_u64(1);
        let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        let (decision, out) = step(&mut vnf, &pkt, &mut rng);
        assert_eq!(decision, VnfDecision::Forwarded(1));
        assert_eq!(out, vec![pkt]);
        assert_eq!(vnf.stats().packets_out, 1);
    }

    #[test]
    fn recoder_first_packet_verbatim_then_recodes() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(1), VnfRole::Recoder);
        let enc = encoder(&[7u8; 64]);
        let mut rng = StdRng::seed_from_u64(2);
        let p1 = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        let (decision, out) = step(&mut vnf, &p1, &mut rng);
        assert_eq!(decision, VnfDecision::Forwarded(1));
        assert_eq!(out, vec![p1.clone()]);
        let p2 = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        let (decision, out) = step(&mut vnf, &p2, &mut rng);
        assert_eq!(decision, VnfDecision::Forwarded(1));
        // Output is a fresh combination, not necessarily p2.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].session(), SessionId::new(1));
        assert_eq!(out[0].generation(), 0);
        assert!(vnf.stats().innovative_in >= 2);
    }

    #[test]
    fn decoder_emits_payload_once_complete() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(3), VnfRole::Decoder);
        let data: Vec<u8> = (0..64).collect();
        let enc = encoder(&data);
        let mut rng = StdRng::seed_from_u64(3);
        let mut decoded = None;
        for _ in 0..32 {
            let pkt = enc.coded_packet(SessionId::new(3), 5, &mut rng);
            if let (
                VnfDecision::Decoded {
                    session,
                    generation,
                    payload,
                },
                _,
            ) = step(&mut vnf, &pkt, &mut rng)
            {
                decoded = Some((session, generation, payload));
                break;
            }
        }
        let (session, generation, payload) = decoded.expect("should decode");
        assert_eq!(session, SessionId::new(3));
        assert_eq!(generation, 5);
        assert_eq!(payload, data);
        assert_eq!(vnf.stats().generations_decoded, 1);
    }

    #[test]
    fn unknown_session_and_malformed_are_counted() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        let enc = encoder(&[1u8; 64]);
        let mut rng = StdRng::seed_from_u64(4);
        let pkt = enc.coded_packet(SessionId::new(9), 0, &mut rng);
        assert_eq!(step(&mut vnf, &pkt, &mut rng).0, VnfDecision::Nothing);
        assert_eq!(vnf.stats().unknown_session, 1);
        let mut out = Vec::new();
        assert_eq!(
            vnf.process_wire_into(b"not an nc packet", 1, &mut rng, &mut out),
            VnfDecision::Nothing
        );
        assert_eq!(vnf.stats().malformed, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn same_role_reapply_keeps_in_flight_state() {
        // Duplicate NC_SETTINGS delivery must not clear buffers: after
        // re-applying Recoder, the buffered generation still has rank,
        // so the next packet recodes instead of passing verbatim.
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(1), VnfRole::Recoder);
        let enc = encoder(&[1u8; 64]);
        let mut rng = StdRng::seed_from_u64(5);
        let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        step(&mut vnf, &pkt, &mut rng);
        assert_eq!(vnf.generation_rank(SessionId::new(1), 0), Some(1));
        vnf.set_role(SessionId::new(1), VnfRole::Recoder);
        assert_eq!(
            vnf.generation_rank(SessionId::new(1), 0),
            Some(1),
            "idempotent re-apply keeps the buffered generation"
        );
    }

    #[test]
    fn different_role_replacement_clears_state() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(1), VnfRole::Recoder);
        let enc = encoder(&[1u8; 64]);
        let mut rng = StdRng::seed_from_u64(5);
        let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        step(&mut vnf, &pkt, &mut rng);
        // Switch roles and back: the buffered state is gone, so the
        // next packet is "first" again and passes verbatim.
        vnf.set_role(SessionId::new(1), VnfRole::Forwarder);
        vnf.set_role(SessionId::new(1), VnfRole::Recoder);
        assert_eq!(vnf.generation_rank(SessionId::new(1), 0), None);
        let p2 = enc.coded_packet(SessionId::new(1), 0, &mut rng);
        assert_eq!(step(&mut vnf, &p2, &mut rng).1, vec![p2]);
    }

    #[test]
    fn memory_budget_evicts_lowest_priority_session_first() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(1), VnfRole::Recoder);
        vnf.set_role(SessionId::new(2), VnfRole::Recoder);
        vnf.set_session_priority(SessionId::new(1), 0); // provisioned
        assert_eq!(vnf.session_priority(SessionId::new(1)), 0);
        assert_eq!(vnf.session_priority(SessionId::new(2)), u8::MAX);
        let mut rng = StdRng::seed_from_u64(9);
        let enc1 = encoder(&[1u8; 64]);
        let enc2 = encoder(&[2u8; 64]);
        // Open two generations per session.
        for g in 0..2 {
            let p = enc1.coded_packet(SessionId::new(1), g, &mut rng);
            step(&mut vnf, &p, &mut rng);
            let p = enc2.coded_packet(SessionId::new(2), g, &mut rng);
            step(&mut vnf, &p, &mut rng);
        }
        assert_eq!(vnf.estimated_state_bytes(), 4 * (4 * (4 + 16)));
        // Cap at two generations' worth: both of session 2's go first,
        // oldest first.
        vnf.set_memory_budget(Some(2 * 4 * (4 + 16)));
        assert_eq!(vnf.stats().budget_evictions, 2);
        assert!(vnf.generation_rank(SessionId::new(1), 0).is_some());
        assert!(vnf.generation_rank(SessionId::new(1), 1).is_some());
        assert!(vnf.generation_rank(SessionId::new(2), 0).is_none());
        assert!(vnf.generation_rank(SessionId::new(2), 1).is_none());
        // The next packet that would exceed the cap evicts as it lands.
        let p = enc2.coded_packet(SessionId::new(2), 5, &mut rng);
        step(&mut vnf, &p, &mut rng);
        assert_eq!(
            vnf.stats().budget_evictions,
            3,
            "the unprovisioned session keeps cannibalizing itself"
        );
        assert!(vnf.generation_rank(SessionId::new(1), 0).is_some());
    }

    #[test]
    fn memory_budget_uses_staleness_within_a_session() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(1), VnfRole::Recoder);
        let mut rng = StdRng::seed_from_u64(10);
        let enc = encoder(&[3u8; 64]);
        for g in 0..3 {
            let p = enc.coded_packet(SessionId::new(1), g, &mut rng);
            step(&mut vnf, &p, &mut rng);
        }
        vnf.set_memory_budget(Some(2 * 4 * (4 + 16)));
        assert!(
            vnf.generation_rank(SessionId::new(1), 0).is_none(),
            "oldest evicted"
        );
        assert!(vnf.generation_rank(SessionId::new(1), 1).is_some());
        assert!(vnf.generation_rank(SessionId::new(1), 2).is_some());
    }

    #[test]
    fn windowed_stream_recodes_and_delivers_end_to_end() {
        use ncvnf_rlnc::window::{WindowConfig, WindowEncoder};
        use ncvnf_rlnc::PayloadPool;

        let wcfg = WindowConfig::new(16, 4).unwrap();
        let mut relay = CodingVnf::new(cfg(), 8);
        relay.set_window_config(wcfg);
        relay.set_role(SessionId::new(7), VnfRole::Recoder);
        let mut sink = CodingVnf::new(cfg(), 8);
        sink.set_window_config(wcfg);
        sink.set_role(SessionId::new(7), VnfRole::Decoder);

        let mut enc = WindowEncoder::new(wcfg, SessionId::new(7));
        let mut pool = PayloadPool::new();
        let mut rng = StdRng::seed_from_u64(21);
        let mut relayed = Vec::new();
        let mut delivered = Vec::new();
        for tag in 0..6u8 {
            let idx = enc.push(&[tag; 16]).unwrap();
            let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
            relayed.clear();
            let d = relay.process_wire_into(&pkt.to_bytes(), 1, &mut rng, &mut relayed);
            assert_eq!(d, VnfDecision::Forwarded(1));
            for out in relayed.drain(..) {
                let mut unused = Vec::new();
                if let VnfDecision::Delivered { payloads, .. } =
                    sink.process_wire_into(&out.to_bytes(), 1, &mut rng, &mut unused)
                {
                    delivered.extend(payloads);
                }
                relay.recycle(out);
            }
            // The sink acks; the relay's recode buffer and the source
            // window both slide forward.
            if let Some(cum) = sink.window_cumulative_ack(SessionId::new(7)) {
                let ack = WindowAck {
                    session: SessionId::new(7),
                    cumulative: cum,
                    repair_wanted: 0,
                };
                assert!(relay.handle_window_ack(&ack));
                enc.handle_ack(ack.cumulative);
            }
        }
        assert_eq!(delivered.len(), 6);
        for (tag, sym) in delivered.iter().enumerate() {
            assert_eq!(sym, &vec![tag as u8; 16]);
        }
        assert_eq!(relay.stats().window_packets_in, 6);
        assert_eq!(relay.stats().window_acks_in, 6);
        assert_eq!(sink.stats().window_symbols_delivered, 6);
    }

    #[test]
    fn window_forwarder_and_unknown_session_paths() {
        use ncvnf_rlnc::window::{WindowConfig, WindowEncoder};
        use ncvnf_rlnc::PayloadPool;

        let wcfg = WindowConfig::new(16, 4).unwrap();
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_window_config(wcfg);
        assert_eq!(vnf.window_config(), wcfg);
        let mut enc = WindowEncoder::new(wcfg, SessionId::new(5));
        let mut pool = PayloadPool::new();
        let mut rng = StdRng::seed_from_u64(22);
        let idx = enc.push(&[9u8; 16]).unwrap();
        let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
        let wire = pkt.to_bytes();
        let mut out = Vec::new();
        // No role for session 5 yet: counted, nothing emitted.
        assert_eq!(
            vnf.process_wire_into(&wire, 1, &mut rng, &mut out),
            VnfDecision::Nothing
        );
        assert_eq!(vnf.stats().unknown_session, 1);
        // Forwarder role: verbatim pass-through.
        vnf.set_role(SessionId::new(5), VnfRole::Forwarder);
        assert_eq!(
            vnf.process_wire_into(&wire, 1, &mut rng, &mut out),
            VnfDecision::Forwarded(1)
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload(), &[9u8; 16]);
        // Garbage is counted malformed.
        assert_eq!(
            vnf.process_wire_into(b"junk", 1, &mut rng, &mut out),
            VnfDecision::Nothing
        );
        assert_eq!(vnf.stats().malformed, 1);
    }

    #[test]
    fn one_entry_serves_both_framings_and_refuses_acks() {
        use ncvnf_rlnc::window::{WindowConfig, WindowEncoder};
        use ncvnf_rlnc::{PayloadPool, WireKind};

        let session = SessionId::new(5);
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_window_config(WindowConfig::new(16, 4).unwrap());
        vnf.set_role(session, VnfRole::Recoder);
        let mut rng = StdRng::seed_from_u64(23);
        let generational = encoder(&[3u8; 64]).coded_packet(session, 0, &mut rng);
        let mut wenc = WindowEncoder::new(vnf.window_config(), session);
        let idx = wenc.push(&[4u8; 16]).unwrap();
        let windowed = wenc
            .systematic_packet_pooled(idx, &mut PayloadPool::new())
            .unwrap();
        let ack = WindowAck {
            session,
            cumulative: 0,
            repair_wanted: 0,
        };

        let mut out = Vec::new();
        for wire in [generational.to_bytes(), windowed.to_bytes()] {
            let decision = vnf.process_wire_into(&wire, 1, &mut rng, &mut out);
            assert_eq!(decision, VnfDecision::Forwarded(1));
        }
        assert_eq!(out, vec![generational, windowed]);
        assert_eq!(out[1].kind(), WireKind::Window);
        // An ack is not data: it is refused, not misread as a generation.
        assert_eq!(
            vnf.process_wire_into(&ack.encode(), 1, &mut rng, &mut out),
            VnfDecision::Nothing
        );
        let stats = vnf.stats();
        assert_eq!((stats.packets_in, stats.packets_out), (1, 1));
        assert_eq!((stats.window_packets_in, stats.window_packets_out), (1, 1));
        assert_eq!(stats.malformed, 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn remove_session_stops_processing() {
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(SessionId::new(1), VnfRole::Forwarder);
        assert!(vnf.remove_session(SessionId::new(1)));
        assert!(!vnf.remove_session(SessionId::new(1)));
        assert_eq!(vnf.session_count(), 0);
    }
}
