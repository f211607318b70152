//! The datagram-socket abstraction the relay data path runs over.
//!
//! The loops in this crate that a test wants to put faults under — the
//! relay's data and control loops and the transfer source — speak
//! [`DatagramSocket`] instead of `std::net::UdpSocket` directly. (The
//! transfer receiver binds a plain `UdpSocket` of its own: loss towards
//! it is injected at the relay or the source that feeds it.) A plain
//! `UdpSocket` implements the trait by delegation; the chaos harness
//! ([`crate::chaos::FaultSocket`]) wraps one with deterministic seeded
//! Internet pathologies (drop/duplicate/reorder/delay/crash), so
//! integration tests can subject the *live* socket path to the paper's
//! loss experiments without leaving loopback.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Largest number of datagrams moved per batched socket operation.
///
/// Matches [`ncvnf_sysnet::MAX_BATCH`] so one relay flush maps to one
/// `recvmmsg`/`sendmmsg` syscall.
pub const MAX_BATCH: usize = ncvnf_sysnet::MAX_BATCH;

/// Receive-side batch: fixed datagram slots plus per-slot metadata.
///
/// Allocated once per data thread and reused forever — at steady state
/// a [`DatagramSocket::recv_batch`] call touches no heap. Slot buffers
/// keep their full capacity; `meta` records the filled length and
/// source of each received datagram.
pub struct RecvBatch {
    bufs: Vec<Vec<u8>>,
    meta: Vec<(usize, SocketAddr)>,
    count: usize,
}

impl RecvBatch {
    /// A batch of `slots` datagram buffers of `buf_len` bytes each.
    #[must_use]
    pub fn new(slots: usize, buf_len: usize) -> Self {
        let slots = slots.clamp(1, MAX_BATCH);
        let placeholder: SocketAddr = ([0, 0, 0, 0], 0).into();
        Self {
            bufs: (0..slots).map(|_| vec![0u8; buf_len]).collect(),
            meta: vec![(0, placeholder); slots],
            count: 0,
        }
    }

    /// Number of datagrams the last `recv_batch` filled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the last `recv_batch` filled no datagrams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Datagram `i` of the last fill: payload bytes and source address.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> (&[u8], SocketAddr) {
        assert!(i < self.count);
        let (len, src) = self.meta[i];
        (&self.bufs[i][..len], src)
    }

    /// Iterates over the filled datagrams.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], SocketAddr)> {
        (0..self.count).map(|i| self.get(i))
    }

    /// Appends a datagram by hand (test/bench harnesses and socket
    /// implementations that fill slots one at a time). Returns `false`
    /// when the batch is full.
    pub fn push(&mut self, bytes: &[u8], src: SocketAddr) -> bool {
        if self.count >= self.bufs.len() || bytes.len() > self.bufs[self.count].len() {
            return false;
        }
        self.bufs[self.count][..bytes.len()].copy_from_slice(bytes);
        self.meta[self.count] = (bytes.len(), src);
        self.count += 1;
        true
    }

    /// Empties the batch (slot capacity is retained).
    pub fn clear(&mut self) {
        self.count = 0;
    }

    /// Raw slot access for socket implementations: `(bufs, meta)`.
    /// Implementations fill slots `0..n` and then call
    /// [`Self::set_filled`]`(n)`.
    pub fn parts_mut(&mut self) -> (&mut [Vec<u8>], &mut [(usize, SocketAddr)]) {
        (&mut self.bufs, &mut self.meta)
    }

    /// Declares how many slots the socket implementation filled.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the slot count.
    pub fn set_filled(&mut self, n: usize) {
        assert!(n <= self.bufs.len());
        self.count = n;
    }
}

/// Send-side batch: datagrams serialized back-to-back into one arena,
/// each described by `(offset, len, destination)`.
///
/// Serializing once and fanning out by reference means a packet routed
/// to `k` next hops costs one serialization and `k` arena-range
/// segments — and on Linux the whole batch flushes in one `sendmmsg`
/// whose entries are per-destination runs of equal-length datagrams,
/// each cut back into datagrams by the kernel (`UDP_SEGMENT`).
#[derive(Debug, Default)]
pub struct SendBatch {
    arena: Vec<u8>,
    segs: Vec<(u32, u32, SocketAddr)>,
}

impl SendBatch {
    /// An empty send batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes one wire image via `write` (appending to the arena)
    /// and enqueues it for every address in `dests`.
    pub fn push_wire(&mut self, write: impl FnOnce(&mut Vec<u8>), dests: &[SocketAddr]) {
        let start = self.arena.len();
        write(&mut self.arena);
        let len = (self.arena.len() - start) as u32;
        if len == 0 {
            return;
        }
        for &dest in dests {
            self.segs.push((start as u32, len, dest));
        }
    }

    /// Copies pre-serialized `bytes` into the arena for every address
    /// in `dests`.
    pub fn push_bytes(&mut self, bytes: &[u8], dests: &[SocketAddr]) {
        self.push_wire(|arena| arena.extend_from_slice(bytes), dests);
    }

    /// Number of enqueued datagrams (serialized image × destination).
    #[must_use]
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether nothing is enqueued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Iterates over enqueued datagrams as `(bytes, destination)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], SocketAddr)> {
        self.segs
            .iter()
            .map(|&(off, len, dest)| (&self.arena[off as usize..(off + len) as usize], dest))
    }

    /// Arena and segment views for batched socket implementations.
    #[must_use]
    pub fn parts(&self) -> (&[u8], &[(u32, u32, SocketAddr)]) {
        (&self.arena, &self.segs)
    }

    /// Empties the batch (arena/segment capacity is retained).
    pub fn clear(&mut self) {
        self.arena.clear();
        self.segs.clear();
    }
}

/// True for the error an expired read timeout surfaces as: the "nothing
/// arrived" every receive loop in this crate expects and carries on from.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// An unconnected datagram endpoint (the `UdpSocket` API subset the relay
/// uses).
pub trait DatagramSocket: Send + Sync {
    /// Sends `buf` to `addr`; returns bytes sent.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize>;

    /// Receives one datagram into `buf`; returns size and sender.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including read-timeout expiry as
    /// `WouldBlock`/`TimedOut`).
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;

    /// Receives one datagram only if one is already queued: never
    /// blocks, whatever the read timeout says. This is how a loop that
    /// also has deadlines to meet polls its socket — socket timeouts are
    /// tick-granular (DESIGN.md §10) and must not pace anything.
    ///
    /// # Errors
    ///
    /// An empty queue is `WouldBlock`; other socket errors propagate.
    fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;

    /// The local address the socket is bound to.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// Sets the blocking-receive timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;

    /// Receives up to a batch of datagrams: blocks (under the read
    /// timeout) for the first, then takes whatever else is immediately
    /// available. Returns the number received.
    ///
    /// The default implementation receives exactly one datagram via
    /// [`Self::recv_from`], so every existing socket (including the
    /// chaos harness) is batch-capable with unchanged semantics;
    /// `UdpSocket` overrides it with a single `recvmmsg` on Linux.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; timeout expiry surfaces as
    /// `WouldBlock`/`TimedOut` with the batch left empty.
    fn recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        batch.clear();
        let (bufs, meta) = batch.parts_mut();
        let (n, src) = self.recv_from(&mut bufs[0])?;
        meta[0] = (n, src);
        batch.set_filled(1);
        Ok(1)
    }

    /// Sends every datagram in `batch`; returns how many went out.
    ///
    /// Per-datagram failures are tolerated (skipped), matching UDP's
    /// fire-and-forget contract — a vanished loopback peer must not
    /// stall the rest of the flush. The default implementation loops
    /// [`Self::send_to`]; `UdpSocket` overrides it with
    /// [`ncvnf_sysnet::send_batch`] on Linux (one message per destination
    /// run; each destination's datagrams still leave in batch order).
    ///
    /// # Errors
    ///
    /// Only batch-level failures (e.g. an unusable socket) are raised.
    fn send_batch(&self, batch: &SendBatch) -> io::Result<usize> {
        let mut sent = 0;
        for (bytes, dest) in batch.iter() {
            if self.send_to(bytes, dest).is_ok() {
                sent += 1;
            }
        }
        Ok(sent)
    }
}

impl DatagramSocket for UdpSocket {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        UdpSocket::send_to(self, buf, addr)
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        UdpSocket::recv_from(self, buf)
    }

    fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        ncvnf_sysnet::recv_nowait(self, buf)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        UdpSocket::local_addr(self)
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        UdpSocket::set_read_timeout(self, dur)
    }

    fn recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        if !ncvnf_sysnet::batched_syscalls_available() {
            // Portable fallback: one datagram per call.
            batch.clear();
            let (bufs, meta) = batch.parts_mut();
            let (n, src) = UdpSocket::recv_from(self, &mut bufs[0])?;
            meta[0] = (n, src);
            batch.set_filled(1);
            return Ok(1);
        }
        batch.clear();
        let (bufs, meta) = batch.parts_mut();
        let got = ncvnf_sysnet::recv_batch(self, bufs, meta)?;
        batch.set_filled(got);
        Ok(got)
    }

    fn send_batch(&self, batch: &SendBatch) -> io::Result<usize> {
        if !ncvnf_sysnet::batched_syscalls_available() {
            let mut sent = 0;
            for (bytes, dest) in batch.iter() {
                if UdpSocket::send_to(self, bytes, dest).is_ok() {
                    sent += 1;
                }
            }
            return Ok(sent);
        }
        let (arena, segs) = batch.parts();
        ncvnf_sysnet::send_batch(self, arena, segs)
    }
}

impl<S: DatagramSocket + ?Sized> DatagramSocket for &S {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        (**self).send_to(buf, addr)
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        (**self).recv_from(buf)
    }

    fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        (**self).try_recv_from(buf)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        (**self).local_addr()
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        (**self).set_read_timeout(dur)
    }

    fn recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        (**self).recv_batch(batch)
    }

    fn send_batch(&self, batch: &SendBatch) -> io::Result<usize> {
        (**self).send_batch(batch)
    }
}
