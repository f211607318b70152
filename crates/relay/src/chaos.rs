//! Deterministic fault injection on real UDP sockets.
//!
//! The paper's robustness experiments shape the bottleneck link with
//! `netem`; this module is the same idea for the in-process testbed:
//! [`FaultSocket`] wraps a real `UdpSocket` behind the
//! [`DatagramSocket`] trait and injects seeded drop / duplicate /
//! reorder / delay / corrupt / truncate faults (mirroring
//! `netsim::LossModel` semantics, but on the live socket path), plus
//! crash-after-N-packets to simulate a VNF dying mid-transfer and an
//! egress bandwidth throttle to shape a bottleneck link. Every decision
//! is drawn from a seeded `StdRng` in packet order, so a test that
//! replays the same traffic sees the same pathology. Corruption and
//! truncation *parameters* (which bytes flip, how short the prefix is)
//! are derived from the gate draw's own mantissa bits rather than extra
//! RNG calls, so per-datagram RNG consumption stays constant no matter
//! which gates fire.
//!
//! Faults can be applied on egress (`send_to`), ingress (`recv_from`),
//! or both — a chain test typically enables one direction per relay so
//! each network hop is perturbed exactly once.
//!
//! **Batched paths.** The relay's batched loops go through the same
//! six-gate draws, one per datagram, in arrival order:
//! `recv_batch` receives the first datagram exactly like `recv_from`,
//! then drains the queue with `try_recv_from` (ending the batch —
//! without releasing the reorder stash, since no timeout expired — when
//! the queue is momentarily empty); `send_batch` uses the trait's
//! `send_to`-loop default. The RNG is consumed only per *wire* datagram
//! in both modes, so a pinned `NCVNF_CHAOS_SEED` reproduces the same
//! fault pattern whether the relay runs batched or unbatched —
//! `tests/sharded_relay.rs` pins this equivalence.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::socket::{bind_loopback_data, DatagramSocket, RecvBatch};

/// Which directions of a [`FaultSocket`] inject faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDirections {
    /// Apply faults to received datagrams.
    pub ingress: bool,
    /// Apply faults to sent datagrams.
    pub egress: bool,
}

/// Fault plan for one socket. Rates are per-datagram probabilities; the
/// gates are drawn independently in a fixed order (drop, duplicate,
/// reorder, delay, corrupt, truncate) and the first that fires wins, so
/// the RNG consumption per datagram is constant and runs are
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// RNG seed for all fault decisions.
    pub seed: u64,
    /// Probability a datagram is silently dropped.
    pub drop_rate: f64,
    /// Probability a datagram is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a datagram is held back and swapped with the next one.
    pub reorder_rate: f64,
    /// Probability a datagram is delayed by [`delay`](Self::delay).
    pub delay_rate: f64,
    /// Probability a datagram has 1–3 bytes flipped in place (positions
    /// and masks derived from the gate draw, so runs are reproducible).
    pub corrupt_rate: f64,
    /// Probability a datagram is delivered as a strict prefix of itself
    /// (possibly empty; the length is derived from the gate draw).
    pub truncate_rate: f64,
    /// Extra latency applied to delayed datagrams.
    pub delay: Duration,
    /// After this many datagrams (sent + received), the socket "crashes":
    /// sends are blackholed and receives go silent, as if the VNF died.
    pub crash_after: Option<u64>,
    /// Egress bandwidth ceiling in bits/sec: sends that would exceed it
    /// sleep until the paced departure time, like a `netem` rate limit
    /// on the bottleneck link. `None` leaves sends unpaced.
    pub egress_bps: Option<f64>,
    /// Directions faults apply to.
    pub directions: FaultDirections,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xC405,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            delay: Duration::from_millis(2),
            crash_after: None,
            egress_bps: None,
            directions: FaultDirections {
                ingress: false,
                egress: true,
            },
        }
    }
}

impl FaultConfig {
    /// A fault-free plan with the given seed (faults added via `with_*`).
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// Sets the drop probability.
    #[must_use]
    pub fn with_drop(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate out of range");
        self.drop_rate = rate;
        self
    }

    /// Sets the duplication probability.
    #[must_use]
    pub fn with_duplicate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "duplicate rate out of range");
        self.duplicate_rate = rate;
        self
    }

    /// Sets the reorder probability.
    #[must_use]
    pub fn with_reorder(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "reorder rate out of range");
        self.reorder_rate = rate;
        self
    }

    /// Sets the delay probability and latency.
    #[must_use]
    pub fn with_delay(mut self, rate: f64, delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&rate), "delay rate out of range");
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Sets the byte-corruption probability.
    #[must_use]
    pub fn with_corrupt(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "corrupt rate out of range");
        self.corrupt_rate = rate;
        self
    }

    /// Sets the truncation probability.
    #[must_use]
    pub fn with_truncate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "truncate rate out of range");
        self.truncate_rate = rate;
        self
    }

    /// Crashes the socket after `n` datagrams.
    #[must_use]
    pub fn with_crash_after(mut self, n: u64) -> Self {
        self.crash_after = Some(n);
        self
    }

    /// Caps egress at `bps` bits per second.
    #[must_use]
    pub fn with_egress_throttle(mut self, bps: f64) -> Self {
        assert!(bps > 0.0, "throttle must be positive");
        self.egress_bps = Some(bps);
        self
    }

    /// Sets which directions inject faults.
    #[must_use]
    pub fn with_directions(mut self, ingress: bool, egress: bool) -> Self {
        self.directions = FaultDirections { ingress, egress };
        self
    }
}

/// What a [`FaultSocket`] did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Datagrams passed through unharmed (either direction).
    pub delivered: u64,
    /// Datagrams silently dropped (including blackholed sends after a
    /// crash).
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Datagrams swapped with their successor.
    pub reordered: u64,
    /// Datagrams delayed.
    pub delayed: u64,
    /// Datagrams with bytes flipped.
    pub corrupted: u64,
    /// Datagrams delivered as a shortened prefix.
    pub truncated: u64,
    /// Sends that had to wait for the egress throttle.
    pub throttled: u64,
    /// True once the socket crashed.
    pub crashed: bool,
}

/// The per-datagram outcomes a fault draw can pick (besides clean
/// delivery). `Corrupt`/`Truncate` carry the raw bits of their gate
/// draw, from which the mutation parameters are derived — no extra RNG
/// consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultDraw {
    Clean,
    Drop,
    Duplicate,
    Reorder,
    Delay,
    Corrupt(u64),
    Truncate(u64),
}

/// Flips 1–3 bytes of `data` in place, at positions and with XOR masks
/// taken from `bits` (a gate draw's IEEE-754 bit pattern). Masks are
/// forced odd so a flip never degenerates to a no-op.
fn corrupt_bytes(data: &mut [u8], bits: u64) {
    if data.is_empty() {
        return;
    }
    let flips = 1 + (bits % 3) as usize;
    for i in 0..flips {
        let pos = ((bits >> (11 + 13 * i)) as usize) % data.len();
        data[pos] ^= ((bits >> (7 * i)) as u8) | 1;
    }
}

/// Length of the delivered prefix for a truncated `n`-byte datagram:
/// strictly shorter than `n`, possibly zero (an empty UDP datagram is
/// legal and the parse paths must survive it).
fn truncated_len(n: usize, bits: u64) -> usize {
    if n == 0 {
        0
    } else {
        (bits as usize) % n
    }
}

struct FaultState {
    rng: StdRng,
    stats: FaultStats,
    events: u64,
    /// Held-back egress datagram awaiting its swap partner.
    stash_tx: Option<(Vec<u8>, SocketAddr)>,
    /// Held-back ingress datagram awaiting its swap partner.
    stash_rx: Option<(Vec<u8>, SocketAddr)>,
    /// Ingress datagrams ready to deliver before touching the wire
    /// (duplicates and released reorder stashes).
    pending_rx: Vec<(Vec<u8>, SocketAddr)>,
    read_timeout: Option<Duration>,
    /// Earliest departure time the egress throttle allows next.
    next_tx: Option<Instant>,
}

impl FaultState {
    /// Draws the per-datagram gates in fixed order; constant RNG
    /// consumption keeps fault sequences reproducible. The corrupt and
    /// truncate gates reuse their own draw's bit pattern as the mutation
    /// parameter, so firing (or not) never changes how much entropy a
    /// datagram consumes.
    fn draw(&mut self, config: &FaultConfig) -> FaultDraw {
        let drop = self.rng.gen::<f64>() < config.drop_rate;
        let dup = self.rng.gen::<f64>() < config.duplicate_rate;
        let reorder = self.rng.gen::<f64>() < config.reorder_rate;
        let delay = self.rng.gen::<f64>() < config.delay_rate;
        let corrupt = self.rng.gen::<f64>();
        let truncate = self.rng.gen::<f64>();
        if drop {
            FaultDraw::Drop
        } else if dup {
            FaultDraw::Duplicate
        } else if reorder {
            FaultDraw::Reorder
        } else if delay {
            FaultDraw::Delay
        } else if corrupt < config.corrupt_rate {
            FaultDraw::Corrupt(corrupt.to_bits())
        } else if truncate < config.truncate_rate {
            FaultDraw::Truncate(truncate.to_bits())
        } else {
            FaultDraw::Clean
        }
    }

    /// Reserves a departure slot for an `n`-byte datagram under the
    /// egress throttle; returns how long the caller must sleep (outside
    /// the lock) before putting it on the wire.
    fn throttle_wait(&mut self, config: &FaultConfig, n: usize) -> Duration {
        let Some(bps) = config.egress_bps else {
            return Duration::ZERO;
        };
        let now = Instant::now();
        let start = self.next_tx.map_or(now, |t| t.max(now));
        let gap = Duration::from_secs_f64((n as f64 * 8.0) / bps);
        self.next_tx = Some(start + gap);
        if start > now {
            self.stats.throttled += 1;
        }
        start.saturating_duration_since(now)
    }

    /// Counts one datagram toward the crash budget; returns true if the
    /// socket is (now) crashed.
    fn tick_crash(&mut self, config: &FaultConfig) -> bool {
        if self.stats.crashed {
            return true;
        }
        self.events += 1;
        if let Some(limit) = config.crash_after {
            if self.events > limit {
                self.stats.crashed = true;
            }
        }
        self.stats.crashed
    }
}

/// A cloneable handle for inspecting (and crashing) a [`FaultSocket`]
/// from the test harness while the relay owns the socket.
#[derive(Clone)]
pub struct FaultHandle {
    state: Arc<Mutex<FaultState>>,
}

impl FaultHandle {
    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats
    }

    /// Kills the socket immediately: subsequent sends are blackholed and
    /// receives go silent.
    pub fn crash(&self) {
        self.state.lock().stats.crashed = true;
    }
}

/// A [`DatagramSocket`] that perturbs traffic according to a
/// [`FaultConfig`].
pub struct FaultSocket {
    inner: UdpSocket,
    config: FaultConfig,
    state: Arc<Mutex<FaultState>>,
}

impl FaultSocket {
    /// Wraps an already-bound socket.
    pub fn wrap(inner: UdpSocket, config: FaultConfig) -> (FaultSocket, FaultHandle) {
        let state = Arc::new(Mutex::new(FaultState {
            rng: StdRng::seed_from_u64(config.seed),
            stats: FaultStats::default(),
            events: 0,
            stash_tx: None,
            stash_rx: None,
            pending_rx: Vec::new(),
            read_timeout: None,
            next_tx: None,
        }));
        let handle = FaultHandle {
            state: Arc::clone(&state),
        };
        (
            FaultSocket {
                inner,
                config,
                state,
            },
            handle,
        )
    }

    /// Binds a fresh loopback socket with an OS-assigned port and a
    /// data-sized receive queue, and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_loopback(config: FaultConfig) -> io::Result<(FaultSocket, FaultHandle)> {
        let inner = bind_loopback_data()?;
        Ok(Self::wrap(inner, config))
    }

    /// One faulted receive: queued duplicates and released reorder
    /// stashes first, then the wire, one six-gate draw per wire datagram.
    ///
    /// `blocking` waits under the read timeout, and a timeout releases
    /// the reorder stash late rather than losing it. Non-blocking, a
    /// momentarily empty queue is `WouldBlock` *without* releasing the
    /// stash — no read timeout has expired, so the held-back datagram
    /// keeps waiting for its swap partner exactly as it would between
    /// two blocking receives.
    fn recv_faulted(&self, buf: &mut [u8], blocking: bool) -> io::Result<(usize, SocketAddr)> {
        loop {
            {
                let mut st = self.state.lock();
                if st.stats.crashed {
                    if blocking {
                        let nap = st.read_timeout.unwrap_or(CRASHED_POLL);
                        drop(st);
                        std::thread::sleep(nap);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "fault socket crashed",
                    ));
                }
                if let Some((data, src)) = st.pending_rx.pop() {
                    let n = data.len().min(buf.len());
                    buf[..n].copy_from_slice(&data[..n]);
                    return Ok((n, src));
                }
            }
            let result = if blocking {
                self.inner.recv_from(buf)
            } else {
                DatagramSocket::try_recv_from(&self.inner, buf)
            };
            let mut st = self.state.lock();
            let (n, src) = match result {
                Ok(x) => x,
                Err(e) => {
                    if blocking {
                        if let Some((data, src)) = st.stash_rx.take() {
                            let n = data.len().min(buf.len());
                            buf[..n].copy_from_slice(&data[..n]);
                            return Ok((n, src));
                        }
                    }
                    return Err(e);
                }
            };
            if st.tick_crash(&self.config) {
                st.stats.dropped += 1;
                continue;
            }
            if !self.config.directions.ingress {
                st.stats.delivered += 1;
                return Ok((n, src));
            }
            match st.draw(&self.config) {
                FaultDraw::Drop => {
                    st.stats.dropped += 1;
                    continue;
                }
                FaultDraw::Duplicate => {
                    st.stats.delivered += 1;
                    st.stats.duplicated += 1;
                    st.pending_rx.push((buf[..n].to_vec(), src));
                    return Ok((n, src));
                }
                FaultDraw::Reorder => {
                    if st.stash_rx.is_none() {
                        st.stats.reordered += 1;
                        st.stash_rx = Some((buf[..n].to_vec(), src));
                        continue;
                    }
                    st.stats.delivered += 1;
                    return Ok((n, src));
                }
                FaultDraw::Delay => {
                    st.stats.delivered += 1;
                    st.stats.delayed += 1;
                    let delay = self.config.delay;
                    drop(st);
                    std::thread::sleep(delay);
                    return Ok((n, src));
                }
                FaultDraw::Corrupt(bits) => {
                    st.stats.delivered += 1;
                    st.stats.corrupted += 1;
                    corrupt_bytes(&mut buf[..n], bits);
                    return Ok((n, src));
                }
                FaultDraw::Truncate(bits) => {
                    st.stats.delivered += 1;
                    st.stats.truncated += 1;
                    return Ok((truncated_len(n, bits), src));
                }
                FaultDraw::Clean => {
                    st.stats.delivered += 1;
                    // A packet was successfully received: any held-back
                    // predecessor is now "overtaken" and released next.
                    if let Some(held) = st.stash_rx.take() {
                        st.pending_rx.push(held);
                    }
                    return Ok((n, src));
                }
            }
        }
    }
}

/// How long a crashed socket's `recv_from` sleeps before reporting
/// `WouldBlock` when no read timeout was configured.
const CRASHED_POLL: Duration = Duration::from_millis(20);

impl DatagramSocket for FaultSocket {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        // Decide under the lock, do socket I/O (and sleeps) outside it.
        let (draw, release, crashed, wait) = {
            let mut st = self.state.lock();
            if st.tick_crash(&self.config) {
                st.stats.dropped += 1;
                (FaultDraw::Drop, None, true, Duration::ZERO)
            } else if !self.config.directions.egress {
                st.stats.delivered += 1;
                // The throttle models the link, not a fault: it paces
                // even when egress fault gates are off.
                let wait = st.throttle_wait(&self.config, buf.len());
                (FaultDraw::Clean, None, false, wait)
            } else {
                let mut draw = st.draw(&self.config);
                // A held-back datagram rides out with this send. If the
                // stash is occupied, a fresh reorder draw degrades to a
                // clean delivery (one hold-back slot, like a one-deep
                // netem reorder queue).
                let release = st.stash_tx.take();
                if draw == FaultDraw::Reorder {
                    if release.is_some() {
                        draw = FaultDraw::Clean;
                    } else {
                        st.stash_tx = Some((buf.to_vec(), addr));
                    }
                }
                match draw {
                    FaultDraw::Drop => st.stats.dropped += 1,
                    FaultDraw::Duplicate => {
                        st.stats.delivered += 1;
                        st.stats.duplicated += 1;
                    }
                    FaultDraw::Delay => {
                        st.stats.delivered += 1;
                        st.stats.delayed += 1;
                    }
                    FaultDraw::Reorder => {
                        st.stats.delivered += 1;
                        st.stats.reordered += 1;
                    }
                    FaultDraw::Corrupt(_) => {
                        st.stats.delivered += 1;
                        st.stats.corrupted += 1;
                    }
                    FaultDraw::Truncate(_) => {
                        st.stats.delivered += 1;
                        st.stats.truncated += 1;
                    }
                    FaultDraw::Clean => st.stats.delivered += 1,
                }
                // Reserve a paced departure slot per wire datagram this
                // call will emit; slots are monotonic, so the last
                // reservation's wait covers them all.
                let mut wait = Duration::ZERO;
                match draw {
                    FaultDraw::Drop | FaultDraw::Reorder => {}
                    FaultDraw::Duplicate => {
                        st.throttle_wait(&self.config, buf.len());
                        wait = st.throttle_wait(&self.config, buf.len());
                    }
                    FaultDraw::Truncate(bits) => {
                        wait = st.throttle_wait(&self.config, truncated_len(buf.len(), bits));
                    }
                    _ => wait = st.throttle_wait(&self.config, buf.len()),
                }
                if let Some((held, _)) = &release {
                    wait = st.throttle_wait(&self.config, held.len());
                }
                (draw, release, false, wait)
            }
        };
        if crashed {
            // Blackhole: pretend the bytes left, exactly like a dead VM
            // whose peers keep sending into the void.
            return Ok(buf.len());
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        match draw {
            FaultDraw::Drop => {}
            FaultDraw::Duplicate => {
                self.inner.send_to(buf, addr)?;
                self.inner.send_to(buf, addr)?;
            }
            FaultDraw::Delay => {
                std::thread::sleep(self.config.delay);
                self.inner.send_to(buf, addr)?;
            }
            FaultDraw::Reorder => {
                // Held back: it leaves with the next datagram (below).
            }
            FaultDraw::Corrupt(bits) => {
                let mut copy = buf.to_vec();
                corrupt_bytes(&mut copy, bits);
                self.inner.send_to(&copy, addr)?;
            }
            FaultDraw::Truncate(bits) => {
                self.inner
                    .send_to(&buf[..truncated_len(buf.len(), bits)], addr)?;
            }
            FaultDraw::Clean => {
                self.inner.send_to(buf, addr)?;
            }
        }
        if let Some((held, held_addr)) = release {
            self.inner.send_to(&held, held_addr)?;
        }
        Ok(buf.len())
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.recv_faulted(buf, true)
    }

    fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.recv_faulted(buf, false)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.state.lock().read_timeout = dur;
        self.inner.set_read_timeout(dur)
    }

    // `send_batch` deliberately keeps the trait's `send_to`-loop default:
    // each outgoing datagram takes its own six-gate draw in flush order,
    // byte-identical to an unbatched run under the same seed.

    fn recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        batch.clear();
        // First datagram: the full blocking faulted path, so timeout
        // expiry (including the late stash release) behaves exactly as
        // it does unbatched.
        batch.recv_one(|entry| self.recv_from(entry))?;
        // Drain whatever is immediately available, one draw per wire
        // datagram.
        while let Ok(true) = batch.recv_one(|entry| self.try_recv_from(entry)) {}
        Ok(batch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (FaultSocket, FaultHandle, UdpSocket) {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let (sock, handle) = FaultSocket::bind_loopback(
            FaultConfig::new(7)
                .with_drop(0.5)
                .with_directions(false, true),
        )
        .unwrap();
        (sock, handle, sink)
    }

    #[test]
    fn seeded_drops_are_deterministic() {
        let observed: Vec<u64> = (0..2)
            .map(|_| {
                let (sock, handle, sink) = pair();
                let to = sink.local_addr().unwrap();
                for i in 0..100u8 {
                    sock.send_to(&[i], to).unwrap();
                }
                let mut buf = [0u8; 8];
                let mut got = 0u64;
                while sink.recv_from(&mut buf).is_ok() {
                    got += 1;
                }
                let stats = handle.stats();
                assert_eq!(stats.delivered, got, "every non-drop arrives");
                assert_eq!(stats.delivered + stats.dropped, 100);
                got
            })
            .collect();
        assert_eq!(observed[0], observed[1], "same seed, same loss pattern");
        assert!(observed[0] > 20 && observed[0] < 80, "≈50% loss");
    }

    #[test]
    fn duplicates_deliver_twice() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let (sock, handle) =
            FaultSocket::bind_loopback(FaultConfig::new(3).with_duplicate(1.0)).unwrap();
        let to = sink.local_addr().unwrap();
        for i in 0..10u8 {
            sock.send_to(&[i], to).unwrap();
        }
        let mut buf = [0u8; 8];
        let mut got = 0;
        while sink.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 20, "every datagram arrives twice");
        assert_eq!(handle.stats().duplicated, 10);
    }

    #[test]
    fn reorder_swaps_adjacent_datagrams() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        // Reorder every packet: stash 0, send 1 then 0, stash 2, ...
        let (sock, handle) =
            FaultSocket::bind_loopback(FaultConfig::new(5).with_reorder(1.0)).unwrap();
        let to = sink.local_addr().unwrap();
        for i in 0..4u8 {
            sock.send_to(&[i], to).unwrap();
        }
        let mut order = Vec::new();
        let mut buf = [0u8; 8];
        while let Ok((n, _)) = sink.recv_from(&mut buf) {
            assert_eq!(n, 1);
            order.push(buf[0]);
        }
        assert_eq!(order, vec![1, 0, 3, 2], "adjacent pairs swapped");
        assert!(handle.stats().reordered >= 2);
    }

    #[test]
    fn crash_after_n_blackholes_sends_and_silences_receives() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let (sock, handle) =
            FaultSocket::bind_loopback(FaultConfig::new(1).with_crash_after(3)).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        let to = sink.local_addr().unwrap();
        for i in 0..10u8 {
            sock.send_to(&[i], to).unwrap(); // all "succeed"
        }
        let mut buf = [0u8; 8];
        let mut got = 0;
        while sink.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 3, "only the pre-crash datagrams escaped");
        assert!(handle.stats().crashed);
        // Receives on the crashed socket look like silence, not errors.
        let err = sock.recv_from(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn handle_crash_kills_a_healthy_socket() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let (sock, handle) = FaultSocket::bind_loopback(FaultConfig::new(2)).unwrap();
        let to = sink.local_addr().unwrap();
        sock.send_to(b"a", to).unwrap();
        handle.crash();
        sock.send_to(b"b", to).unwrap();
        let mut buf = [0u8; 8];
        let mut got = 0;
        while sink.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 1, "post-crash sends are blackholed");
    }

    #[test]
    fn corruption_flips_bytes_deterministically() {
        let payloads: Vec<Vec<Vec<u8>>> = (0..2)
            .map(|_| {
                let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
                sink.set_read_timeout(Some(Duration::from_millis(100)))
                    .unwrap();
                let (sock, handle) =
                    FaultSocket::bind_loopback(FaultConfig::new(17).with_corrupt(1.0)).unwrap();
                let to = sink.local_addr().unwrap();
                for i in 0..10u8 {
                    sock.send_to(&[i, i, i, i], to).unwrap();
                }
                let mut buf = [0u8; 16];
                let mut got = Vec::new();
                while let Ok((n, _)) = sink.recv_from(&mut buf) {
                    got.push(buf[..n].to_vec());
                }
                assert_eq!(got.len(), 10, "corruption never loses datagrams");
                assert_eq!(handle.stats().corrupted, 10);
                for (i, p) in got.iter().enumerate() {
                    assert_eq!(p.len(), 4, "corruption preserves length");
                    let clean = [i as u8; 4];
                    assert_ne!(p[..], clean[..], "mask forced odd: never a no-op");
                }
                got
            })
            .collect();
        assert_eq!(payloads[0], payloads[1], "same seed, same bit flips");
    }

    #[test]
    fn truncation_shortens_never_lengthens() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let (sock, handle) =
            FaultSocket::bind_loopback(FaultConfig::new(23).with_truncate(1.0)).unwrap();
        let to = sink.local_addr().unwrap();
        for i in 0..10u8 {
            sock.send_to(&[i; 32], to).unwrap();
        }
        let mut buf = [0u8; 64];
        let mut got = 0u64;
        while let Ok((n, _)) = sink.recv_from(&mut buf) {
            assert!(n < 32, "always a strict prefix, got {n}");
            got += 1;
        }
        assert_eq!(got, 10, "truncation never loses datagrams");
        assert_eq!(handle.stats().truncated, 10);
    }

    #[test]
    fn ingress_corruption_mutates_received_bytes() {
        let sender = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let (sock, handle) = FaultSocket::bind_loopback(
            FaultConfig::new(29)
                .with_corrupt(1.0)
                .with_directions(true, false),
        )
        .unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let to = sock.local_addr().unwrap();
        sender.send_to(&[7u8; 8], to).unwrap();
        let mut buf = [0u8; 16];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        assert_eq!(n, 8);
        assert_ne!(buf[..8], [7u8; 8], "ingress corruption flipped bytes");
        assert_eq!(handle.stats().corrupted, 1);
    }

    #[test]
    fn egress_throttle_paces_the_wire() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        // 100 datagrams x 125 bytes = 100_000 bits; at 1 Mbit/s the tail
        // datagram cannot depart before ~100ms.
        let (sock, handle) =
            FaultSocket::bind_loopback(FaultConfig::new(31).with_egress_throttle(1e6)).unwrap();
        let to = sink.local_addr().unwrap();
        let start = Instant::now();
        for _ in 0..100 {
            sock.send_to(&[0u8; 125], to).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(80),
            "throttle slowed the burst: {elapsed:?}"
        );
        let mut buf = [0u8; 256];
        let mut got = 0u64;
        while sink.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 100, "pacing never drops");
        assert!(handle.stats().throttled > 50, "most sends queued");
    }

    #[test]
    fn ingress_faults_drop_on_receive() {
        let sender = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let (sock, handle) = FaultSocket::bind_loopback(
            FaultConfig::new(11)
                .with_drop(0.5)
                .with_directions(true, false),
        )
        .unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let to = sock.local_addr().unwrap();
        for i in 0..50u8 {
            sender.send_to(&[i], to).unwrap();
        }
        let mut buf = [0u8; 8];
        let mut got = 0u64;
        while sock.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        let stats = handle.stats();
        assert_eq!(stats.delivered, got);
        assert!(stats.dropped > 5, "ingress drops occurred: {stats:?}");
        assert_eq!(stats.delivered + stats.dropped, 50);
    }
}
