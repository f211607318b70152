//! The coding VNF packet processor (transport-agnostic core).

use rand::Rng;
use std::collections::{HashMap, VecDeque};

use ncvnf_rlnc::{
    CodecError, CodedPacket, GenerationConfig, GenerationDecoder, PacketView, PayloadPool,
    PoolStats, Recoder, SessionId,
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
    buffer_generations: usize,
    sessions: HashMap<SessionId, SessionState>,
    /// Recycled coefficient/payload buffers for emitted packets. Adapters
    /// return finished packets via [`recycle`](Self::recycle) so the emit
    /// path stops allocating once warm.
    pool: PayloadPool,
    stats: VnfStats,
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
        CodingVnf {
            config,
            buffer_generations,
            sessions: HashMap::new(),
            pool: PayloadPool::new(),
            stats: VnfStats::default(),
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

    /// Processes one raw wire datagram — the one
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

    /// Parses a datagram at this VNF's generation
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
        let session = view.session();
        self.stats.packets_in += 1;
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
                let recoder = state.buffer.recoder_for(view.generation());
                let first = recoder.rank() == 0;
                match recoder.absorb(view.coefficients(), view.payload()) {
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
                        match sink.recode(recoder, rng, &mut self.pool) {
                            Ok(()) => {}
                            Err(CodecError::EmptyRecoder) => sink.verbatim(&view, &mut self.pool),
                            Err(_) => break,
                        }
                    }
                    emitted += 1;
                }
                emitted
            }
            VnfRole::Decoder => {
                let generation = view.generation();
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
        self.stats.packets_out += emitted as u64;
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
    fn retired_window_kinds_are_refused_as_malformed() {
        let session = SessionId::new(5);
        let mut vnf = CodingVnf::new(cfg(), 8);
        vnf.set_role(session, VnfRole::Recoder);
        let mut rng = StdRng::seed_from_u64(23);
        let generational = encoder(&[3u8; 64]).coded_packet(session, 0, &mut rng);
        // A full-width kind-2 data packet and a kind-3 ack of session 5,
        // as the retired sliding-window framing wrote them.
        let mut windowed = vec![0xAC, 2, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 4];
        windowed.extend_from_slice(&[1, 0, 0, 0]);
        windowed.extend_from_slice(&[4u8; 16]);
        let ack = [0xAC, 3, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

        let mut out = Vec::new();
        for wire in [&windowed[..], &ack[..]] {
            let decision = vnf.process_wire_into(wire, 1, &mut rng, &mut out);
            assert_eq!(decision, VnfDecision::Nothing);
        }
        let decision = vnf.process_wire_into(&generational.to_bytes(), 1, &mut rng, &mut out);
        assert_eq!(decision, VnfDecision::Forwarded(1));
        assert_eq!(out, vec![generational]);
        let stats = vnf.stats();
        assert_eq!((stats.packets_in, stats.packets_out), (1, 1));
        assert_eq!(stats.malformed, 2);
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
