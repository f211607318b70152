//! The one loop that runs a transfer endpoint over a socket, and the two
//! entry points built on it. A wait too short for a park sleeps, a slice
//! at a time; a longer one parks in the socket, so an arriving frame ends
//! it at once: a socket timeout never paces anything (DESIGN.md §10).

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver as ChanReceiver};

use ncvnf_rlnc::ObjectEncoder;

use super::receiver::Reassembly;
use super::source::Source;
use super::{recovery_since, Endpoint, RecoveryConfig, RecoveryStats, Step, TransferConfig};
use crate::metrics::TransferObs;
use crate::socket::{bind_loopback_data, is_timeout, DatagramSocket, SendBatch};

/// How far past the time asked for a socket read timeout may return.
/// Linux keeps `SO_RCVTIMEO` in scheduler ticks, rounded up, plus one:
/// measured at HZ=250, 1 ms asked waits 8 ms, 5 ms → 12 ms, 10 ms →
/// 16 ms (DESIGN.md §10). Two ticks at HZ=100 bounds it.
pub(super) const SOCKET_OVERSHOOT: Duration = Duration::from_millis(20);

/// How long an endpoint with nothing outstanding parks in its socket
/// between looks at its shutdown flag.
const IDLE_PARK: Duration = Duration::from_millis(10);

/// Longest stretch an endpoint sleeps without polling its socket, so
/// what lands during a short wait is handled within this.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// Runs `endpoint` over `socket` (frames up to `frame_len` bytes) until
/// it is done or `running` turns false: every queued frame is polled in
/// at the instant it is taken, then a poll with the socket drained says
/// how long to wait. Every park hands the socket back in blocking mode.
///
/// # Errors
///
/// Propagates a failed send; receive errors only end a drain or a park.
fn drive(
    socket: &dyn DatagramSocket,
    endpoint: &mut impl Endpoint,
    frame_len: usize,
    running: &dyn Fn() -> bool,
) -> io::Result<()> {
    let (mut buf, mut out) = (vec![0u8; frame_len], SendBatch::new());
    // The length of a frame a park received, handed over by the next poll.
    let mut held = None;
    while running() {
        let frame = held
            .take()
            .or_else(|| socket.try_recv_from(&mut buf).ok().map(|(n, _)| n));
        let now = Instant::now();
        let step = endpoint.poll(now, frame.map(|n| &buf[..n]), &mut out);
        if !out.is_empty() {
            socket.send_batch(&out)?;
            out.clear();
        }
        // With nothing outstanding there is no deadline: park until a
        // frame arrives (or `running` is due a look).
        let deadline = match step {
            Step::Done => return Ok(()),
            Step::Wait(_) if frame.is_some() => continue,
            Step::Wait(at) => at.unwrap_or(now + SOCKET_OVERSHOOT + IDLE_PARK),
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if left <= SOCKET_OVERSHOOT {
            std::thread::sleep(left.min(POLL_SLICE));
            continue;
        }
        let parked = socket
            .set_read_timeout(Some(left - SOCKET_OVERSHOOT))
            .and_then(|()| socket.recv_from(&mut buf));
        let _ = socket.set_read_timeout(None);
        match parked {
            Ok((n, _)) => held = Some(n),
            Err(ref e) if is_timeout(e) => {}
            Err(_) => std::thread::sleep(POLL_SLICE),
        }
    }
    Ok(())
}

/// Streams `object` at `rate_bps` while answering receiver feedback,
/// until every generation is ACKed (or retries/idle budgets run out).
/// Feedback arrives on `socket` itself, so the caller binds it and tells
/// the receiver its address; the socket is handed back in blocking mode.
///
/// With `recovery.max_retries == 0` the transfer is best-effort: nothing
/// is awaited, the call returns once the last generation has left, and
/// the static [`TransferConfig::redundancy`] is all the protection there
/// is.
///
/// Everything the protocol does is recorded into `obs` (the
/// `recovery.*` and `rlnc.redundancy.*` metrics plus repair-burst trace
/// events); the returned [`RecoveryStats`] is the delta this call
/// contributed.
///
/// # Errors
///
/// Propagates socket errors from the data path (feedback I/O errors are
/// absorbed).
///
/// # Panics
///
/// Panics if `next_hops` is empty or `object` does not frame.
pub fn send_object_reliable<S: DatagramSocket>(
    socket: &S,
    config: &TransferConfig,
    recovery: &RecoveryConfig,
    object: &[u8],
    next_hops: &[SocketAddr],
    obs: &TransferObs,
) -> io::Result<RecoveryStats> {
    let encoder =
        ObjectEncoder::new(config.generation, config.session, object).expect("valid object");
    let now = Instant::now();
    let mut source = Source::new(config, recovery, &encoder, next_hops, &obs.recovery, now);
    drive(socket, &mut source, 64, &|| true)?;
    Ok(source.close(obs))
}

/// Outcome of a receive.
#[derive(Debug)]
pub struct ReliableReport {
    /// The decoded object (empty if incomplete at shutdown).
    pub object: Vec<u8>,
    /// Data packets received.
    pub packets: u64,
    /// Wall-clock duration until completion.
    pub elapsed: Duration,
    /// The receiver-side feedback counters.
    pub stats: RecoveryStats,
}

/// A background receiver for one transfer: reassembles the object and —
/// given the source's address — acknowledges progress and NACKs losses
/// back to it.
pub struct ReliableReceiver {
    /// The UDP address the receiver listens on.
    pub addr: SocketAddr,
    done: ChanReceiver<ReliableReport>,
    running: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReliableReceiver {
    /// Spawns a receiver expecting `generations` generations, sending
    /// feedback to `source`: it ACKs each generation as it decodes and
    /// NACKs generations that have lost packets, as soon as later
    /// arrivals show it (see [`RecoveryConfig`] for the ceilings). With
    /// no source (`None`) it is a best-effort receiver that only
    /// listens. Feedback counters, decode-progress metrics and
    /// `generation_decoded` trace events are recorded into `obs`; the
    /// report's [`RecoveryStats`] is this receiver's delta.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(
        config: &TransferConfig,
        recovery: &RecoveryConfig,
        generations: u64,
        source: impl Into<Option<SocketAddr>>,
        obs: &TransferObs,
    ) -> io::Result<ReliableReceiver> {
        let mut rx = Reassembly::new(config, recovery, generations, source.into(), obs);
        let socket = bind_loopback_data()?;
        let addr = socket.local_addr()?;
        let (tx, done) = bounded(1);
        let running = Arc::new(AtomicBool::new(true));
        let run = Arc::clone(&running);
        let metrics = obs.recovery.clone();
        let thread = std::thread::spawn(move || {
            let before = recovery_since(&metrics, &RecoveryStats::default());
            let start = Instant::now();
            // Feedback that fails to leave is dropped like a lost
            // datagram: the receiver carries on.
            while drive(&socket, &mut rx, 65536, &|| run.load(Ordering::Relaxed)).is_err() {}
            // Shut down before completion: nothing to show.
            let (object, end) = rx
                .done
                .take()
                .unwrap_or_else(|| (Vec::new(), Instant::now()));
            let _ = tx.send(ReliableReport {
                object,
                packets: rx.packets,
                elapsed: end.duration_since(start),
                stats: recovery_since(&metrics, &before),
            });
        });
        Ok(ReliableReceiver {
            addr,
            done,
            running,
            thread: Some(thread),
        })
    }

    /// Waits up to `timeout` for the transfer to finish.
    pub fn wait(mut self, timeout: Duration) -> Option<ReliableReport> {
        let report = self.done.recv_timeout(timeout).ok();
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        report
    }
}
