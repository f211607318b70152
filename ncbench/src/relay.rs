//! `relay_mtu` / `relay_small`: a live one-shard relay on loopback,
//! driven closed-loop by one generator thread.
//!
//! Per slice: a capacity phase keeps two bursts of 32 datagrams in
//! flight (`send_batch` / `recv_batch`) and counts arrivals at the sink,
//! then a ping-pong phase keeps one datagram in flight and times each
//! trip. The open-loop blast this replaces overflowed the relay's
//! receive buffer whenever the generator ran late; a closed loop cannot.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncvnf_control::{ForwardingTable, SenderConfig, Signal, SignalSender, VnfRoleWire};
use ncvnf_dataplane::{CodingVnf, VnfRole};
use ncvnf_relay::{
    relay_batch, BatchScratch, DatagramSocket, RecvBatch, RelayConfig, RelayEngine, RelayNode,
    RelayShard, RelayStats, SendBatch,
};
use ncvnf_rlnc::{GenerationConfig, GenerationDecoder, GenerationEncoder, PacketView, SessionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::affinity::on_first_cpu;
use crate::inputs::{derive, generation_data, Ring, SESSION};
use crate::stats::{median, quantile, PerSlice, Percentiles};
use crate::trace::Tracer;
use crate::{timed_setup, Options, Report};

/// Block size of `relay_mtu`, the paper's MTU-sized payload.
pub(crate) const MTU_BLOCK: usize = 1460;
/// Block size of `relay_small`.
pub(crate) const SMALL_BLOCK: usize = 64;
/// Blocks per generation (paper default).
pub(crate) const G: usize = 4;
/// Generations the relay buffers (its default).
pub(crate) const BUFFERED_GENERATIONS: usize = 1024;
/// Generations in the pre-serialised ring: four times what the relay
/// buffers, so every generation it meets has been evicted since last lap.
const RING_GENERATIONS: u64 = 4096;
/// Datagrams per burst: one `sendmmsg` / `recvmmsg`.
pub(crate) const BURST: usize = 32;
/// Bursts kept in flight in the capacity phase.
const BURSTS_IN_FLIGHT: usize = 2;
/// A datagram not at the sink this long after it was sent has failed.
/// Longer than any stall the hypervisor imposes: with 50 ms, a
/// descheduled vCPU timed bursts out whose datagrams then arrived late
/// and put the ping-pong phase out of step.
const BURST_TIMEOUT: Duration = Duration::from_millis(250);
/// Receive-buffer size per datagram: above any datagram of these
/// workloads (MTU-sized at most).
const DATAGRAM_BUF: usize = 2048;
/// Generations the correctness pass decodes.
const CHECK_GENERATIONS: u64 = 256;

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A `RelayNode` that is shut down when dropped, so a discarded set-up
/// leaves no threads behind.
pub(crate) struct LiveRelay(Option<RelayNode>);

impl LiveRelay {
    pub(crate) fn spawn(config: RelayConfig) -> io::Result<LiveRelay> {
        on_first_cpu(|| RelayNode::spawn(config)).map(LiveRelay::from)
    }

    pub(crate) fn node(&self) -> &RelayNode {
        self.0.as_ref().expect("live until dropped")
    }
}

impl From<RelayNode> for LiveRelay {
    fn from(node: RelayNode) -> LiveRelay {
        LiveRelay(Some(node))
    }
}

impl Drop for LiveRelay {
    fn drop(&mut self) {
        if let Some(node) = self.0.take() {
            node.shutdown();
        }
    }
}

/// Configures `relay` as a recoder for [`SESSION`] forwarding to
/// `next_hop`, over its control socket with fenced, ACKed pushes.
pub(crate) fn wire_recoder(
    relay: &RelayNode,
    config: GenerationConfig,
    next_hop: SocketAddr,
) -> Result<(), String> {
    let session = SessionId::new(SESSION);
    let mut sender = SignalSender::new(1, SenderConfig::default()).map_err(|e| e.to_string())?;
    let mut table = ForwardingTable::new();
    table.set(session, vec![next_hop.to_string()]);
    for signal in [
        Signal::NcSettings {
            session,
            role: VnfRoleWire::Recoder,
            data_port: relay.data_addr.port(),
            block_size: config.block_size() as u32,
            generation_size: config.blocks_per_generation() as u32,
            buffer_generations: BUFFERED_GENERATIONS as u32,
        },
        Signal::NcForwardTab {
            table: table.to_text(),
        },
    ] {
        sender
            .push(relay.control_addr, &signal)
            .map_err(|e| format!("wiring the relay: {e}"))?;
    }
    Ok(())
}

/// The traced slice's relay: a bench-owned thread running the same
/// public calls as `RelayNode`'s data loop (`recv_batch` →
/// `relay_batch` → `send_batch`), one span each under a batch parent.
struct TracedRelay {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    thread: Option<JoinHandle<Tracer>>,
}

impl TracedRelay {
    fn spawn(config: GenerationConfig, seed: u64, next_hop: SocketAddr) -> io::Result<TracedRelay> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let addr = socket.local_addr()?;
        let session = SessionId::new(SESSION);
        let mut vnf = CodingVnf::new(config, BUFFERED_GENERATIONS);
        vnf.set_role(session, VnfRole::Recoder);
        let shards = [RelayShard::new(RelayEngine::new(
            vnf,
            StdRng::seed_from_u64(seed),
        ))];
        let mut table = ForwardingTable::new();
        table.set(session, vec![next_hop.to_string()]);
        shards[0].routes().lock().rebuild(&table);
        let running = Arc::new(AtomicBool::new(true));
        let run = Arc::clone(&running);
        let thread = on_first_cpu(|| {
            std::thread::spawn(move || {
                let mut tracer = Tracer::new();
                let mut batch = RecvBatch::new(BURST, DATAGRAM_BUF);
                let mut scratch = BatchScratch::new(1);
                let mut op = 0u64;
                while run.load(Ordering::Relaxed) {
                    // The receive span includes the wait for the batch's
                    // first datagram; a timed-out wait records nothing.
                    let t0 = Instant::now();
                    let got = socket.recv_batch(&mut batch);
                    let t1 = Instant::now();
                    if !matches!(got, Ok(n) if n > 0) {
                        continue;
                    }
                    op += 1;
                    let parent = tracer.record("relay.node.batch", None, op, t0, t0);
                    tracer.record("relay.socket.recv_batch", Some(parent), op, t0, t1);
                    let report = tracer.span("relay.engine.relay_batch", parent, || {
                        relay_batch(&shards, 0, &mut scratch, &batch)
                    });
                    let sent = tracer.span("relay.socket.send_batch", parent, || {
                        socket.send_batch(scratch.send()).unwrap_or(0)
                    });
                    tracer.end(parent);
                    tracer.count("datagrams_in", batch.len() as u64);
                    tracer.count("datagrams_queued", report.queued);
                    tracer.count("datagrams_out", sent as u64);
                }
                tracer
            })
        });
        Ok(TracedRelay {
            addr,
            running,
            thread: Some(thread),
        })
    }

    fn finish(mut self) -> Tracer {
        self.running.store(false, Ordering::SeqCst);
        self.thread
            .take()
            .expect("joined once")
            .join()
            .expect("traced relay thread")
    }
}

impl Drop for TracedRelay {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The load generator and the sink, on one thread.
struct Generator {
    ring: Ring,
    next: usize,
    /// Where datagrams are sent: the relay under test, once it is up.
    relay: SocketAddr,
    tx: UdpSocket,
    sink: UdpSocket,
    send: SendBatch,
    recv: RecvBatch,
    /// Datagrams handed to the socket.
    sent: u64,
    /// Datagrams that reached the sink.
    received: u64,
    in_flight: usize,
}

impl Generator {
    fn new(ring: Ring) -> io::Result<Generator> {
        let tx = UdpSocket::bind(("127.0.0.1", 0))?;
        let sink = UdpSocket::bind(("127.0.0.1", 0))?;
        sink.set_nonblocking(true)?;
        Ok(Generator {
            ring,
            next: 0,
            relay: sink.local_addr()?,
            tx,
            sink,
            send: SendBatch::new(),
            recv: RecvBatch::new(BURST, DATAGRAM_BUF),
            sent: 0,
            received: 0,
            in_flight: 0,
        })
    }

    fn sink_addr(&self) -> io::Result<SocketAddr> {
        self.sink.local_addr()
    }

    fn send_burst(&mut self) -> io::Result<()> {
        self.send.clear();
        for _ in 0..BURST {
            self.send
                .push_bytes(self.ring.get(self.next), &[self.relay]);
            self.next += 1;
        }
        self.sent += BURST as u64;
        self.in_flight += self.tx.send_batch(&self.send)?;
        Ok(())
    }

    /// Polls the sink until a batch arrives; `Ok(0)` once nothing has
    /// arrived for [`BURST_TIMEOUT`]. The generator spins rather than
    /// blocks: a generator that sleeps in `recv` parks its vCPU, and
    /// whether the hypervisor then polls or halts it made a whole slice
    /// run at either 300k or 200k datagrams/s.
    fn poll_batch(&mut self) -> io::Result<usize> {
        let start = Instant::now();
        loop {
            match self.sink.recv_batch(&mut self.recv) {
                Ok(n) => return Ok(n),
                Err(e) if !is_timeout(&e) => return Err(e),
                Err(_) if start.elapsed() >= BURST_TIMEOUT => return Ok(0),
                Err(_) => std::hint::spin_loop(),
            }
        }
    }

    /// [`poll_batch`](Self::poll_batch) for a single datagram; `None`
    /// on timeout.
    fn poll_one(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        let start = Instant::now();
        loop {
            match self.sink.recv_from(buf) {
                Ok((n, _)) => return Ok(Some(n)),
                Err(e) if !is_timeout(&e) => return Err(e),
                Err(_) if start.elapsed() >= BURST_TIMEOUT => return Ok(None),
                Err(_) => std::hint::spin_loop(),
            }
        }
    }

    /// Receives whatever is still in flight (or gives it up after the
    /// burst timeout).
    fn drain(&mut self) -> io::Result<()> {
        while self.in_flight > 0 {
            match self.poll_batch()? {
                0 => self.in_flight = 0,
                n => {
                    self.received += n as u64;
                    self.in_flight = self.in_flight.saturating_sub(n);
                }
            }
        }
        Ok(())
    }

    /// Capacity phase: [`BURSTS_IN_FLIGHT`] bursts in flight for `dur`.
    /// Returns datagrams per second at the sink and appends each burst's
    /// send → last-arrival time (µs) to `transits`.
    fn capacity(&mut self, dur: Duration, transits: &mut Vec<f64>) -> io::Result<f64> {
        let mut sent_at: VecDeque<Instant> = VecDeque::new();
        let mut burst_got = 0usize;
        let before = self.received;
        let start = Instant::now();
        while start.elapsed() < dur {
            while self.in_flight <= (BURSTS_IN_FLIGHT - 1) * BURST {
                self.send_burst()?;
                sent_at.push_back(Instant::now());
            }
            let n = self.poll_batch()?;
            if n == 0 {
                // Whatever was in flight is lost; start over.
                self.in_flight = 0;
                burst_got = 0;
                sent_at.clear();
                continue;
            }
            self.received += n as u64;
            self.in_flight = self.in_flight.saturating_sub(n);
            burst_got += n;
            while burst_got >= BURST {
                burst_got -= BURST;
                if let Some(t) = sent_at.pop_front() {
                    transits.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        let pps = (self.received - before) as f64 / start.elapsed().as_secs_f64();
        self.drain()?;
        Ok(pps)
    }

    /// Ping-pong phase: one datagram in flight for `dur`; appends each
    /// generator-send → sink-receive time (µs) to `rtts`.
    fn ping_pong(&mut self, dur: Duration, rtts: &mut Vec<f64>) -> io::Result<()> {
        let mut buf = vec![0u8; DATAGRAM_BUF];
        // A datagram given up on earlier may still arrive; one left in
        // the sink would answer every later ping one trip early.
        while self.sink.recv_from(&mut buf).is_ok() {
            self.received += 1;
        }
        let start = Instant::now();
        while start.elapsed() < dur {
            let t0 = Instant::now();
            self.tx.send_to(self.ring.get(self.next), self.relay)?;
            self.next += 1;
            self.sent += 1;
            if self.poll_one(&mut buf)?.is_some() {
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
                self.received += 1;
            }
        }
        Ok(())
    }

    /// One slice: three quarters capacity, one quarter ping-pong.
    fn slice(&mut self, dur: Duration, m: &mut Measured) -> io::Result<()> {
        let pps = self.capacity(dur * 3 / 4, &mut m.transits)?;
        m.pps.push(pps);
        let first = m.rtts.len();
        self.ping_pong(dur / 4, &mut m.rtts)?;
        m.rtt_p50.push(median(&mut m.rtts[first..].to_vec()));
        Ok(())
    }
}

/// What the generator saw over the measured slices.
#[derive(Default)]
struct Measured {
    pps: PerSlice,
    rtt_p50: PerSlice,
    rtts: Vec<f64>,
    transits: Vec<f64>,
}

/// Sends [`CHECK_GENERATIONS`] fresh generations through the relay,
/// decodes the sink's output and compares it with the source. Every
/// sink datagram must parse and carry the session. A generation is fed
/// coded packets until it decodes (a pipelined recoder's output is
/// non-innovative about once in 256), so only wrong bytes, foreign
/// datagrams or a stuck relay fail the pass.
fn correctness_pass(
    gen: &mut Generator,
    config: GenerationConfig,
    opts: &Options,
    report: &mut Report,
) -> io::Result<()> {
    gen.drain()?;
    let session = SessionId::new(SESSION);
    let generations = if opts.smoke { 16 } else { CHECK_GENERATIONS };
    let check_seed = derive(opts.seed, 0xC0FFEE);
    let mut rng = StdRng::seed_from_u64(derive(check_seed, u64::MAX));
    let mut buf = vec![0u8; DATAGRAM_BUF];
    let mut bad = 0u64;
    // Generation ids continue past the ring's so the relay has no state
    // for them.
    for k in 0..generations {
        let generation = RING_GENERATIONS + k;
        let mut source = generation_data(check_seed, generation, config);
        let encoder = GenerationEncoder::new(config, &source).expect("layout matches");
        if opts.self_test && k == 0 {
            source[0] ^= 0xFF;
        }
        let mut decoder = GenerationDecoder::new(config);
        let mut ok = true;
        let mut fed = 0;
        while !decoder.is_complete() && fed < 4 * G {
            let wire = encoder
                .coded_packet(session, generation, &mut rng)
                .to_bytes();
            gen.tx.send_to(&wire, gen.relay)?;
            fed += 1;
            let parsed = gen
                .poll_one(&mut buf)?
                .and_then(|n| PacketView::parse(&buf[..n], G).ok())
                .filter(|view| view.session() == session && view.generation() == generation);
            ok &= parsed
                .is_some_and(|view| decoder.receive(view.coefficients(), view.payload()).is_ok());
        }
        ok &= decoder.decoded_payload().is_ok_and(|got| got == source);
        if !ok {
            bad += 1;
        }
    }
    if bad > 0 {
        report.correct = false;
        report.note(format!(
            "correctness: {bad} of {generations} generations wrong at the sink"
        ));
    } else {
        report.note(format!(
            "correctness: {generations} generations decoded byte-identical at the sink"
        ));
    }
    Ok(())
}

struct Bench {
    gen: Generator,
    relay: LiveRelay,
}

fn set_up(config: GenerationConfig, seed: u64) -> Result<Bench, String> {
    let ring = Ring::build(seed, config, RING_GENERATIONS, G + 1);
    let mut gen = Generator::new(ring).map_err(|e| e.to_string())?;
    let relay = LiveRelay::spawn(RelayConfig {
        generation: config,
        buffer_generations: BUFFERED_GENERATIONS,
        seed: derive(seed, 1),
        heartbeat: None,
        registry: None,
        shards: 1,
        batch: BURST,
    })
    .map_err(|e| e.to_string())?;
    let sink = gen.sink_addr().map_err(|e| e.to_string())?;
    wire_recoder(relay.node(), config, sink)?;
    gen.relay = relay.node().data_addr;
    Ok(Bench { gen, relay })
}

fn node_metrics(before: RelayStats, after: RelayStats, relay: &RelayNode, report: &mut Report) {
    let d_in = (after.datagrams_in - before.datagrams_in).max(1) as f64;
    let d_batches = (after.batches - before.batches).max(1) as f64;
    report.set("relay.node.batch_fill", d_in / d_batches);
    report.set(
        "relay.node.out_per_in",
        (after.datagrams_out - before.datagrams_out) as f64 / d_in,
    );
    report.set(
        "relay.node.shed_total",
        (after.total_shed() - before.total_shed()) as f64,
    );
    report.set(
        "relay.node.io_errors",
        (after.io_errors - before.io_errors) as f64,
    );
    let snapshot = relay.handle().snapshot();
    if let Some(h) = snapshot.histogram("relay.batch_ns") {
        report.set("relay.node.batch_ns_p50", h.quantile(0.5) as f64);
    }
}

pub(crate) fn run(
    name: &str,
    block: usize,
    opts: &Options,
    report: &mut Report,
) -> Result<(), String> {
    let config = GenerationConfig::new(block, G).map_err(|e| e.to_string())?;
    let (bench, setup_s) = timed_setup(opts.setup_repeats(), || set_up(config, opts.seed));
    let Bench { mut gen, relay } = bench?;
    let io = |e: io::Error| e.to_string();

    gen.capacity(opts.warm_up(), &mut Vec::new()).map_err(io)?;
    let (sent0, received0) = (gen.sent, gen.received);
    let before = relay.node().handle().stats();
    let mut m = Measured::default();
    for _ in 0..opts.timed_slices() {
        gen.slice(opts.slice(), &mut m).map_err(io)?;
    }
    let after = relay.node().handle().stats();
    let (sent, received) = (gen.sent - sent0, gen.received - received0);
    report.count(sent, sent.saturating_sub(received));

    let rtt = Percentiles::of(&mut m.rtts);
    let transit = Percentiles::of(&mut m.transits);
    report.note(format!(
        "relay_pps best slice {:.0}, median {} datagrams/s, closed loop, {} in flight",
        m.pps.max(),
        m.pps,
        BURSTS_IN_FLIGHT * BURST
    ));
    report.note(format!(
        "hop_rtt_p50_us best slice {:.2}, median {}; all samples: {rtt} us",
        m.rtt_p50.min(),
        m.rtt_p50
    ));
    report.note(format!("burst transit: {transit} us"));
    report.note(format!(
        "sent {sent} delivered {received} ({block} B blocks, g={G})"
    ));

    if opts.trace {
        node_metrics(before, after, relay.node(), report);
        report.set("relay.node.hop_rtt_p99_us", quantile(&m.rtts, 0.99));
        report.set("relay.node.burst_transit_p50_us", transit.p50);
        correctness_pass(&mut gen, config, opts, report).map_err(io)?;
        drop(relay);
        traced_slice(name, &mut gen, config, opts, m.pps.max(), report)?;
    } else {
        // Two busy threads on two vCPUs: interference only ever slows a
        // slice, so the best slice is the steadier estimate (README,
        // "Best slice or median").
        report.set("ops_per_s", m.pps.max());
        report.set("latency_us", m.rtt_p50.min());
        report.set("wire_overhead_ratio", sent as f64 / received.max(1) as f64);
        report.set("setup_s", setup_s);
        correctness_pass(&mut gen, config, opts, report).map_err(io)?;
    }
    Ok(())
}

/// Runs one slice against the bench-owned traced relay, writes the
/// trace, and reports the tracing overhead against `timed_pps`.
fn traced_slice(
    name: &str,
    gen: &mut Generator,
    config: GenerationConfig,
    opts: &Options,
    timed_pps: f64,
    report: &mut Report,
) -> Result<(), String> {
    let io = |e: io::Error| e.to_string();
    let sink = gen.sink_addr().map_err(io)?;
    let relay = TracedRelay::spawn(config, derive(opts.seed, 1), sink).map_err(io)?;
    gen.relay = relay.addr;
    let (sent0, received0) = (gen.sent, gen.received);
    gen.capacity(opts.warm_up(), &mut Vec::new()).map_err(io)?;
    let mut m = Measured::default();
    for _ in 0..opts.timed_slices() {
        gen.slice(opts.slice(), &mut m).map_err(io)?;
    }
    let tracer = relay.finish();
    let (sent, received) = (gen.sent - sent0, gen.received - received0);
    report.count(sent, sent.saturating_sub(received));
    tracer.report(name, timed_pps, m.pps.max(), report)
}

/// `relay.node.residual.ns_per_packet`: what is left of the relay's
/// per-packet time once the measured rungs are taken out — wake-ups,
/// lock waits, scheduling. The rungs plus the residual sum to
/// 1e9 / ops_per_s by construction.
pub(crate) fn residual(name: &str, report: &mut Report) {
    let size = match name {
        "relay_mtu" => "1460",
        "relay_small" => "64",
        _ => return,
    };
    let rung = |stem: &str| {
        report
            .get(&format!("{stem}_{size}.ns_per_packet"))
            .unwrap_or(0.0)
    };
    let (engine, recv, send) = (
        rung("relay.engine.batch"),
        rung("relay.socket.recv_batch"),
        rung("relay.socket.send_batch"),
    );
    let Some(pps) = report.get("trace.timed_ops_per_s").filter(|p| *p > 0.0) else {
        return;
    };
    let residual = 1e9 / pps - engine - recv - send;
    report.set("relay.node.residual.ns_per_packet", residual);
    report.note(format!(
        "per packet: {:.0} ns = engine {engine:.0} + recv_batch {recv:.0} + send_batch {send:.0} + residual {residual:.0}",
        1e9 / pps
    ));
}
