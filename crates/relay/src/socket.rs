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

use ncvnf_sysnet::{Area, RecvMeta, MAX_GRO_SEGMENTS, MAX_MESSAGE_LEN};

/// Largest number of datagrams moved per batched socket operation.
///
/// Matches [`ncvnf_sysnet::MAX_BATCH`] so one relay flush maps to one
/// `recvmmsg`/`sendmmsg` syscall.
pub const MAX_BATCH: usize = ncvnf_sysnet::MAX_BATCH;

/// Receive queue asked for by a socket that takes a transfer's data
/// stream (`SO_RCVBUF`, capped by the kernel's `net.core.rmem_max`). The
/// Linux default, about 208 KB, holds under 10 ms of a 200 Mbit/s
/// stream: a reader that the scheduler stalls for longer loses datagrams
/// nobody dropped on purpose.
pub(crate) const DATA_RECV_BUFFER: usize = 4 << 20;

/// Binds a loopback socket with an OS-assigned port and asks for a
/// [`DATA_RECV_BUFFER`] receive queue; a refused request keeps the
/// kernel's default.
pub(crate) fn bind_loopback_data() -> io::Result<UdpSocket> {
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    ncvnf_sysnet::set_recv_buffer(&socket, DATA_RECV_BUFFER);
    Ok(socket)
}

/// Receive-side batch: up to [`MAX_BATCH`] messages in entries of one
/// contiguous [`Area`], and a view `(entry, offset, len)` per datagram
/// over them.
///
/// A message is one datagram, or — on a socket with `UDP_GRO` — a burst
/// the kernel handed over whole, which the batch cuts back into its
/// datagrams ([`RecvMeta::datagrams`]); readers see datagrams either
/// way. Allocated once per data thread and reused forever — at steady
/// state a [`DatagramSocket::recv_batch`] call touches no heap.
pub struct RecvBatch {
    /// Entry `e` is `area[e * entry_len..][..entry_len]`.
    area: Area,
    entry_len: usize,
    /// One per entry; the first `filled` describe the last fill.
    meta: Vec<RecvMeta>,
    filled: usize,
    views: Vec<(u32, u32, u32)>,
}

impl RecvBatch {
    /// A batch of `slots` datagram buffers of `buf_len` bytes each.
    #[must_use]
    pub fn new(slots: usize, buf_len: usize) -> Self {
        let (slots, entry_len) = (slots.clamp(1, MAX_BATCH), buf_len.max(1));
        let area_len = slots * entry_len;
        assert!(area_len <= u32::MAX as usize, "views hold u32 offsets");
        Self {
            area: Area::new(area_len).expect("receive area mapping"),
            entry_len,
            meta: vec![RecvMeta::default(); slots],
            filled: 0,
            views: Vec::with_capacity(slots),
        }
    }

    /// A batch of `slots` messages for a socket with `UDP_GRO` on
    /// ([`ncvnf_sysnet::enable_gro`]): entries no UDP message overflows,
    /// and views reserved for a full burst in each.
    #[must_use]
    pub fn coalescing(slots: usize) -> Self {
        let mut batch = Self::new(slots, MAX_MESSAGE_LEN);
        batch.views.reserve(batch.meta.len() * MAX_GRO_SEGMENTS);
        batch
    }

    /// Number of datagrams the last `recv_batch` filled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the last `recv_batch` filled no datagrams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Datagrams of the last fill that arrived inside a multi-segment
    /// message.
    #[must_use]
    pub fn coalesced(&self) -> usize {
        let messages = self.meta[..self.filled].iter();
        let coalesced = messages.filter(|m| m.segment > 0);
        coalesced.map(|m| m.datagrams().count()).sum()
    }

    /// Datagram `i` of the last fill: payload bytes and source address.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> (&[u8], SocketAddr) {
        let (entry, start, len) = self.views[i];
        let bytes = &self.area[start as usize..][..len as usize];
        (bytes, self.meta[entry as usize].src)
    }

    /// Iterates over the filled datagrams.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], SocketAddr)> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends a datagram by hand (test and bench harnesses). Returns
    /// `false` when the batch is full or `bytes` overflow an entry.
    pub fn push(&mut self, bytes: &[u8], src: SocketAddr) -> bool {
        self.recv_one(|entry| {
            let dst = entry
                .get_mut(..bytes.len())
                .ok_or(io::ErrorKind::InvalidInput)?;
            dst.copy_from_slice(bytes);
            Ok((bytes.len(), src))
        })
        .unwrap_or(false)
    }

    /// Receives one datagram into the next free entry with `recv`
    /// (shaped like `recv_from`): how a socket that delivers a datagram
    /// per call fills the batch. `Ok(false)`, without calling `recv`,
    /// when every entry is taken.
    ///
    /// # Errors
    ///
    /// Whatever `recv` returns.
    pub fn recv_one(
        &mut self,
        recv: impl FnOnce(&mut [u8]) -> io::Result<(usize, SocketAddr)>,
    ) -> io::Result<bool> {
        let Some(entry) = self.area.chunks_exact_mut(self.entry_len).nth(self.filled) else {
            return Ok(false);
        };
        let (len, src) = recv(entry)?;
        // A `recv` that reports more than the entry holds (the whole
        // datagram's length, say) filled it with a cut datagram: the view
        // stays inside the entry.
        self.meta[self.filled] = RecvMeta {
            len: len.min(self.entry_len),
            src,
            segment: 0,
            truncated: len > self.entry_len,
        };
        self.index(self.filled);
        self.filled += 1;
        Ok(true)
    }

    /// Empties the batch (entries and view capacity are retained).
    pub fn clear(&mut self) {
        self.filled = 0;
        self.views.clear();
    }

    /// One `recvmmsg` into every entry — blocking for the first message
    /// if `wait`, for none otherwise — then the datagrams' views.
    fn recv_from_socket(&mut self, sock: &UdpSocket, wait: bool) -> io::Result<usize> {
        self.clear();
        let recv = if wait {
            ncvnf_sysnet::recv_batch
        } else {
            ncvnf_sysnet::recv_batch_nowait
        };
        let got = recv(sock, &mut self.area, self.entry_len, &mut self.meta)?;
        for entry in 0..got {
            self.index(entry);
        }
        self.filled = got;
        Ok(self.len())
    }

    /// Appends the views of entry `entry`'s datagrams.
    fn index(&mut self, entry: usize) {
        let base = entry * self.entry_len;
        let views = self.meta[entry].datagrams();
        let view = |(off, len)| (entry as u32, (base + off) as u32, len as u32);
        self.views.extend(views.map(view));
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
        let image = self.stage(write);
        self.enqueue(image, dests);
    }

    /// Serializes one wire image via `write` into the arena without
    /// enqueueing it; returns its `(offset, len)` for
    /// [`enqueue`](Self::enqueue) once its destinations are known.
    pub fn stage(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> (u32, u32) {
        let start = self.arena.len();
        write(&mut self.arena);
        (start as u32, (self.arena.len() - start) as u32)
    }

    /// Enqueues a [`stage`](Self::stage)d image for every address in
    /// `dests` (an empty image is never sent).
    pub fn enqueue(&mut self, (offset, len): (u32, u32), dests: &[SocketAddr]) {
        if len == 0 {
            return;
        }
        for &dest in dests {
            self.segs.push((offset, len, dest));
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

/// Fills `batch` with `try_recv`, a one-datagram receive that never
/// blocks, until the queue is empty or the batch full. An empty queue is
/// `try_recv`'s `WouldBlock`.
fn recv_queued(
    batch: &mut RecvBatch,
    mut try_recv: impl FnMut(&mut [u8]) -> io::Result<(usize, SocketAddr)>,
) -> io::Result<usize> {
    batch.clear();
    batch.recv_one(&mut try_recv)?;
    while let Ok(true) = batch.recv_one(&mut try_recv) {}
    Ok(batch.len())
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
        batch.recv_one(|entry| self.recv_from(entry))?;
        Ok(batch.len())
    }

    /// [`Self::recv_batch`] that never blocks: takes up to a batch of
    /// datagrams already queued. This is the relay's poll before it parks
    /// (DESIGN.md §14).
    ///
    /// The default implementation loops [`Self::try_recv_from`] until the
    /// queue is empty or the batch full, so a socket that draws a fault
    /// per datagram (the chaos harness) draws exactly as many as it
    /// delivers or drops; `UdpSocket` overrides it with one non-blocking
    /// `recvmmsg` on Linux.
    ///
    /// # Errors
    ///
    /// An empty queue is `WouldBlock`, with the batch left empty; other
    /// socket errors propagate.
    fn try_recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        recv_queued(batch, |entry| self.try_recv_from(entry))
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
            batch.recv_one(|entry| UdpSocket::recv_from(self, entry))?;
            return Ok(batch.len());
        }
        batch.recv_from_socket(self, true)
    }

    fn try_recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        if !ncvnf_sysnet::batched_syscalls_available() {
            return recv_queued(batch, |entry| ncvnf_sysnet::recv_nowait(self, entry));
        }
        batch.recv_from_socket(self, false)
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

    fn try_recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        (**self).try_recv_batch(batch)
    }

    fn send_batch(&self, batch: &SendBatch) -> io::Result<usize> {
        (**self).send_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_over_reported_length_stays_inside_its_entry() {
        let src: SocketAddr = ([127, 0, 0, 1], 9).into();
        let mut batch = RecvBatch::new(4, 8);
        let over = batch.recv_one(|entry| {
            entry.fill(1);
            Ok((entry.len() + 100, src))
        });
        assert!(over.unwrap());
        assert!(batch.push(&[2; 8], src));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.get(0), (&[1u8; 8][..], src), "cut at its entry");
        assert_eq!(batch.get(1), (&[2u8; 8][..], src));
    }

    #[test]
    fn an_empty_poll_is_would_block_and_leaves_the_batch_empty() {
        let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let mut batch = RecvBatch::new(4, 16);
        assert!(batch.push(&[9; 4], tx.local_addr().unwrap()));
        let err = rx.try_recv_batch(&mut batch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(batch.is_empty(), "the last fill is gone");
        for i in 0..6u8 {
            tx.send_to(&[i; 3], rx.local_addr().unwrap()).unwrap();
        }
        // Loopback delivery is synchronous with the send.
        assert_eq!(rx.try_recv_batch(&mut batch).unwrap(), 4, "a batch full");
        assert_eq!(rx.try_recv_batch(&mut batch).unwrap(), 2, "then the rest");
        assert_eq!(batch.get(1).0, [5; 3]);
    }
}
