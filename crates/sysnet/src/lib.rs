//! Thin, dependency-free wrappers over the Linux batched-UDP syscalls.
//!
//! The relay's per-datagram socket cost dominates its loopback
//! throughput: one `recvfrom` plus one `sendto` per packet caps a
//! single-threaded relay orders of magnitude below what the coding
//! engine sustains in memory — and on either side the cost is not the
//! syscall entry but one trip through the UDP/IP stack per packet, which
//! the `mmsg` calls alone do not save. This crate provides the primitives
//! the sharded relay runtime needs to close that gap, with no external
//! dependencies (the workspace is hermetic — there is no `libc` crate,
//! so the declarations bind directly against the C library `std`
//! already links):
//!
//! - [`recv_batch`]: one `recvmmsg(2)` call filling up to [`MAX_BATCH`]
//!   messages into an [`Area`] (a zeroed anonymous mapping).
//!   `MSG_WAITFORONE` makes the call block only for the *first* message
//!   (honouring `SO_RCVTIMEO`), then drain whatever else is queued
//!   without further waiting. After [`enable_gro`] a message may be a
//!   whole burst, handed over with its segment size and cut back by
//!   [`RecvMeta::datagrams`].
//! - [`send_batch`]: one `sendmmsg(2)` entry per *destination run*, not
//!   per datagram. Datagrams in a caller-owned arena that share a
//!   destination and a length leave as one message that gathers them in
//!   place and has the kernel cut it back into datagrams at the bottom
//!   of the stack (`UDP_SEGMENT`), so a flush of 32 pays for one trip,
//!   not 32. A coalesced message the kernel refuses is re-sent datagram
//!   by datagram in the same call ([`egress_counts`] tells how often);
//!   per-datagram failures (e.g. `ECONNREFUSED` bounced off a loopback
//!   sink that went away) are skipped, not fatal.
//! - [`bind_reuseport`]: binds a UDP socket with `SO_REUSEPORT` set
//!   *before* `bind`, so several shard sockets can share one advertised
//!   port and the kernel spreads the receive load across them.
//! - [`recv_nowait`]: one `recvfrom(2)` with `MSG_DONTWAIT` — a poll of
//!   the receive queue that never blocks and never touches the socket's
//!   mode or read timeout.
//!
//! The syscall bindings are written for the generic 64-bit Linux ABI and
//! built only on Linux x86_64 and aarch64. On every other target the
//! batched entry points return [`io::ErrorKind::Unsupported`]; callers
//! (the `ncvnf-relay` socket layer) fall back to portable
//! one-datagram-per-syscall loops, so the workspace builds and behaves
//! identically — just slower — elsewhere.
//! [`enable_gro`] answers `false` there; [`recv_nowait`] works everywhere
//! (toggling `O_NONBLOCK` around a plain receive where it must).
//!
//! All unsafe code in the workspace lives in this crate; `ncvnf-relay`
//! itself keeps `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{io, ops, ptr::NonNull};

/// Datagrams that left inside a multi-segment message (process-wide).
static EGRESS_COALESCED: AtomicU64 = AtomicU64::new(0);
/// Coalesced messages the kernel refused (process-wide).
static EGRESS_REFUSED: AtomicU64 = AtomicU64::new(0);

/// Largest number of datagrams one [`recv_batch`] call moves.
///
/// 32 matches the relay's batch flush size: big enough to amortize the
/// syscall, small enough that per-batch stack state (iovecs, headers,
/// address storage) stays a few KiB.
pub const MAX_BATCH: usize = 32;

/// An entry length that holds any UDP message (≤ 65,527 B) whole.
pub const MAX_MESSAGE_LEN: usize = 1 << 16;

/// Most datagrams in a coalesced message: `UDP_MAX_SEGMENTS` (older: 64).
pub const MAX_GRO_SEGMENTS: usize = 128;

/// What [`recv_batch`] learned about one received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvMeta {
    /// Bytes the kernel wrote into the message's entry.
    pub len: usize,
    /// Sender.
    pub src: SocketAddr,
    /// `UDP_GRO` segment size (the last may be shorter); 0 if plain.
    pub segment: usize,
    /// `MSG_TRUNC`: the message was longer than its entry.
    pub truncated: bool,
}

impl Default for RecvMeta {
    fn default() -> Self {
        RecvMeta {
            len: 0,
            src: SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0)),
            segment: 0,
            truncated: false,
        }
    }
}

impl RecvMeta {
    /// The message's datagrams as `(offset, len)` in its entry: a plain
    /// one as `recv_from` gives it, a coalesced one per segment — plus, if
    /// cut, one empty datagram for the rest, so no segment goes on cut.
    pub fn datagrams(&self) -> impl Iterator<Item = (usize, usize)> {
        let cut = self.segment > 0 && self.truncated;
        let (step, whole) = match self.segment {
            0 => (self.len.max(1), self.len),
            seg if cut => (seg, self.len - self.len % seg),
            seg => (seg, self.len),
        };
        let count = whole.div_ceil(step).max(usize::from(self.segment == 0));
        (0..count)
            .map(move |k| (k * step, step.min(whole - k * step)))
            .chain(cut.then_some((whole, 0)))
    }
}

/// Receives up to `n = meta.len().min(MAX_BATCH)` messages in one
/// `recvmmsg`: message `i` lands in entry `i` of `area` (`n` entries of
/// `entry_len` > 0 bytes) and is described by `meta[i]`. Blocks (under
/// the read timeout) for the first, then drains; returns the count.
///
/// # Errors
///
/// Propagates socket errors; read-timeout expiry surfaces as
/// `WouldBlock`/`TimedOut` exactly like `UdpSocket::recv_from`. On
/// other targets returns `Unsupported`.
pub fn recv_batch(
    sock: &UdpSocket,
    area: &mut [u8],
    entry_len: usize,
    meta: &mut [RecvMeta],
) -> io::Result<usize> {
    let n = meta.len().min(MAX_BATCH);
    imp::recv_batch(sock, &mut area[..n * entry_len], entry_len, &mut meta[..n])
}

/// Asks for a burst as one message (`UDP_GRO`); whether the kernel
/// agreed. Receive into [`MAX_MESSAGE_LEN`] entries then, or it is cut.
#[must_use]
pub fn enable_gro(sock: &UdpSocket) -> bool {
    imp::set_gro(sock, true)
}

/// Turns `UDP_GRO` off again: every message is one datagram.
pub fn disable_gro(sock: &UdpSocket) {
    imp::set_gro(sock, false);
}

/// Asks for a receive queue of `bytes` (`SO_RCVBUF`; Linux caps the
/// request at `net.core.rmem_max`); whether the kernel took the request.
pub fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> bool {
    imp::set_recv_buffer(sock, bytes)
}

/// Zeroed bytes in an anonymous private mapping of their own (heap
/// elsewhere): initialized, yet a page is resident only once written.
pub struct Area {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: an `Area` owns its memory exclusively, as a `Box<[u8]>` does.
unsafe impl Send for Area {}

impl ops::Deref for Area {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` heads `len` initialized bytes owned by `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl ops::DerefMut for Area {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as for `deref`; `&mut self` makes the access exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// Sends `segs` (offset, length, destination — all referencing `arena`)
/// with one `sendmmsg` entry per *run*: the datagrams of one destination,
/// in order, for as long as each is as long as the run's first. A shorter
/// one may close a run; a run holds at most 64 datagrams and 65,507
/// bytes (one UDP payload). Destinations may interleave — runs are
/// gathered per destination within each 64 datagrams of `segs`, and each
/// destination's datagrams leave in the order given. A run of several is
/// one message with a `UDP_SEGMENT` control message, its iovec pointing
/// into `arena` (no copy); a run of one is a plain datagram.
///
/// Returns the number of *datagrams* the kernel accepted. A coalesced
/// message it refuses (a segment beyond the egress MTU, no
/// transmit-checksum offload, a pending socket error, a kernel without
/// `UDP_SEGMENT`) is re-sent datagram by datagram inside the same call;
/// a plain datagram it refuses (e.g. `ECONNREFUSED` from a vanished
/// loopback peer) is skipped and the rest still goes out — the tolerance
/// of a `send_to` loop.
///
/// # Errors
///
/// On other targets returns `Unsupported`; Linux per-datagram
/// failures are tolerated as described above rather than raised.
///
/// # Panics
///
/// Panics if a segment reaches outside `arena`.
pub fn send_batch(
    sock: &UdpSocket,
    arena: &[u8],
    segs: &[(u32, u32, SocketAddr)],
) -> io::Result<usize> {
    imp::send_batch(sock, arena, segs)
}

/// `(coalesced, refused)` over every socket of this process since it
/// started (relaxed counters): datagrams [`send_batch`] sent inside a
/// multi-segment message, and coalesced messages the kernel refused and
/// that were re-sent datagram by datagram. A growing `refused` means an
/// egress device or path MTU that does not take `UDP_SEGMENT`.
#[must_use]
pub fn egress_counts() -> (u64, u64) {
    (
        EGRESS_COALESCED.load(Ordering::Relaxed),
        EGRESS_REFUSED.load(Ordering::Relaxed),
    )
}

/// Binds a UDP socket to `addr` with `SO_REUSEPORT` enabled.
///
/// Several sockets bound this way to the same address share one port;
/// the kernel hashes incoming datagrams across them, giving each relay
/// shard its own receive queue behind a single advertised endpoint.
///
/// # Errors
///
/// Propagates `socket`/`setsockopt`/`bind` failures. On targets without
/// the batched syscalls returns `Unsupported`; callers fall back to one socket (or
/// one port per shard).
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    imp::bind_reuseport(addr)
}

/// Receives one datagram if one is already queued, without blocking:
/// the socket's blocking mode and read timeout are neither consulted
/// nor changed.
///
/// # Errors
///
/// An empty queue surfaces as `WouldBlock`; other socket errors
/// propagate.
pub fn recv_nowait(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
    imp::recv_nowait(sock, buf)
}

/// Whether this build has real batched syscalls (Linux on x86_64 or
/// aarch64) or the `Unsupported` stubs.
#[must_use]
pub fn batched_syscalls_available() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

// The declarations below use the generic 64-bit Linux ABI (constants,
// `msghdr`/`iovec` layouts, `off_t`); every other target, Linux on
// another architecture included, takes the portable fallback.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::{Area, RecvMeta, EGRESS_COALESCED, EGRESS_REFUSED, MAX_BATCH};
    use std::io;
    use std::mem::{self, MaybeUninit};
    use std::net::{SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::ptr::{self, NonNull};
    use std::sync::atomic::Ordering;

    // Generic Linux ABI values; mips, sparc, alpha, parisc differ.
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    const SO_REUSEPORT: i32 = 15;
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    const MSG_TRUNC: i32 = 0x20;
    const MSG_WAITFORONE: i32 = 0x10000;
    const MSG_DONTWAIT: i32 = 0x40;
    const PROT_RW: i32 = 0x1 | 0x2;
    const MAP_ANON: i32 = 0x02 | 0x20; // MAP_PRIVATE | MAP_ANONYMOUS
    const MADV_NOHUGEPAGE: i32 = 15;

    /// Most datagrams one coalesced message may carry: the kernel's
    /// `UDP_MAX_SEGMENTS` on every release that has `UDP_SEGMENT`
    /// (newer ones allow 128). Also the run builder's window, so its
    /// per-call state is fixed-size stack arrays.
    const MAX_SEGMENTS: usize = 64;

    /// Most payload bytes one coalesced message may carry: the largest
    /// UDP payload an IPv4 packet holds (65,535 − 20 − 8).
    const MAX_RUN_BYTES: usize = 65_507;

    /// `struct iovec` (POSIX, 64-bit Linux layout).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct sockaddr_storage`: opaque, 128 bytes, 8-aligned.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage {
        data: [u8; 128],
    }

    impl SockAddrStorage {
        const fn zeroed() -> Self {
            Self { data: [0; 128] }
        }
    }

    /// `struct msghdr` (glibc, 64-bit): the compiler inserts the same
    /// padding after `namelen` and `flags` that C does.
    #[repr(C)]
    struct MsgHdr {
        name: *mut SockAddrStorage,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// A `struct cmsghdr` carrying one `SOL_UDP` value, bytes per
    /// datagram: a `u16` `UDP_SEGMENT` out, an `int` `UDP_GRO` in.
    /// `repr(C)` pads either to `CMSG_SPACE` of it, 24 bytes on 64-bit.
    #[repr(C)]
    #[derive(Default)]
    struct UdpCmsg<T> {
        /// `cmsg_len`: `CMSG_LEN(sizeof(T))`, header plus value.
        len: usize,
        level: i32,
        ty: i32,
        size: T,
    }

    extern "C" {
        fn recvmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn sendmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvfrom(
            fd: i32,
            buf: *mut u8,
            len: usize,
            flags: i32,
            addr: *mut SockAddrStorage,
            addrlen: *mut u32,
        ) -> isize;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const u8, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrStorage, len: u32) -> i32;
        fn close(fd: i32) -> i32;
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: isize) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// Encodes `addr` as a `sockaddr_in`/`sockaddr_in6`; returns the
    /// populated length.
    fn encode_addr(addr: &SocketAddr, out: &mut SockAddrStorage) -> u32 {
        match addr {
            SocketAddr::V4(a) => {
                out.data[..2].copy_from_slice(&AF_INET.to_ne_bytes());
                out.data[2..4].copy_from_slice(&a.port().to_be_bytes());
                out.data[4..8].copy_from_slice(&a.ip().octets());
                16
            }
            SocketAddr::V6(a) => {
                out.data[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                out.data[2..4].copy_from_slice(&a.port().to_be_bytes());
                out.data[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
                out.data[8..24].copy_from_slice(&a.ip().octets());
                out.data[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                28
            }
        }
    }

    /// Decodes a kernel-filled `sockaddr_storage` back to a `SocketAddr`.
    fn decode_addr(st: &SockAddrStorage) -> Option<SocketAddr> {
        let family = u16::from_ne_bytes([st.data[0], st.data[1]]);
        let port = u16::from_be_bytes([st.data[2], st.data[3]]);
        if family == AF_INET {
            let mut ip = [0u8; 4];
            ip.copy_from_slice(&st.data[4..8]);
            Some(SocketAddr::V4(SocketAddrV4::new(ip.into(), port)))
        } else if family == AF_INET6 {
            let flowinfo = u32::from_be_bytes([st.data[4], st.data[5], st.data[6], st.data[7]]);
            let mut ip = [0u8; 16];
            ip.copy_from_slice(&st.data[8..24]);
            let scope = u32::from_ne_bytes([st.data[24], st.data[25], st.data[26], st.data[27]]);
            Some(SocketAddr::V6(SocketAddrV6::new(
                ip.into(),
                port,
                flowinfo,
                scope,
            )))
        } else {
            None
        }
    }

    pub(super) fn recv_batch(
        sock: &UdpSocket,
        area: &mut [u8],
        entry_len: usize,
        meta: &mut [RecvMeta],
    ) -> io::Result<usize> {
        let n = meta.len();
        // Only the `n` entries the kernel may fill are set up: a batch
        // of one costs one header, not MAX_BATCH of them.
        let mut addrs = [const { MaybeUninit::<SockAddrStorage>::uninit() }; MAX_BATCH];
        let mut cmsgs = [const { MaybeUninit::<UdpCmsg<i32>>::uninit() }; MAX_BATCH];
        let mut iovs = [const { MaybeUninit::<IoVec>::uninit() }; MAX_BATCH];
        let mut hdrs = [const { MaybeUninit::<MMsgHdr>::uninit() }; MAX_BATCH];
        for (i, entry) in area.chunks_exact_mut(entry_len).enumerate() {
            let iov = iovs[i].write(IoVec {
                base: entry.as_mut_ptr(),
                len: entry.len(),
            });
            let cmsg = cmsgs[i].write(UdpCmsg::default());
            hdrs[i].write(MMsgHdr {
                hdr: MsgHdr {
                    name: addrs[i].write(SockAddrStorage::zeroed()),
                    namelen: mem::size_of::<SockAddrStorage>() as u32,
                    iov,
                    iovlen: 1,
                    control: ptr::from_mut(cmsg).cast(),
                    controllen: mem::size_of::<UdpCmsg<i32>>(),
                    flags: 0,
                },
                len: 0,
            });
        }
        // SAFETY: headers `0..n` were written above: `area` is n entries.
        let hdrs = unsafe { hdrs[..n].assume_init_mut() };
        // MSG_WAITFORONE: block (under SO_RCVTIMEO) for the first
        // message only, then drain without waiting. Null timeout: the
        // socket's own read timeout governs the initial wait.
        //
        // SAFETY: each of the `n` headers points at its own address
        // slot, control buffer, iovec and entry of `area`, all
        // exclusively borrowed and alive for the whole call; the kernel
        // writes at most `entry_len` bytes per entry, 128 per address
        // and `controllen` per control buffer.
        let got = unsafe {
            recvmmsg(
                sock.as_raw_fd(),
                hdrs.as_mut_ptr(),
                n as u32,
                MSG_WAITFORONE,
                ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        let got = got as usize;
        // SAFETY: address slots and control buffers `0..n` were
        // initialized above (the kernel has since filled the first `got`).
        let (addrs, cmsgs) =
            unsafe { (addrs[..n].assume_init_ref(), cmsgs[..n].assume_init_ref()) };
        for i in 0..got {
            let src = match decode_addr(&addrs[i]) {
                Some(src) => src,
                None => sock.local_addr()?,
            };
            // Zeroed unless the kernel wrote a segment size (`UDP_GRO`).
            let c = &cmsgs[i];
            let gro = (c.level, c.ty) == (SOL_UDP, UDP_GRO);
            meta[i] = RecvMeta {
                len: hdrs[i].len as usize,
                src,
                segment: if gro { c.size.max(0) as usize } else { 0 },
                truncated: hdrs[i].hdr.flags & MSG_TRUNC != 0,
            };
        }
        Ok(got)
    }

    /// Sets an `int` socket option; whether the kernel took it.
    fn set_int(fd: i32, level: i32, name: i32, value: i32) -> bool {
        // SAFETY: the value pointer is a live i32 and the length its size.
        unsafe { setsockopt(fd, level, name, ptr::from_ref(&value).cast(), 4) == 0 }
    }

    pub(super) fn set_gro(sock: &UdpSocket, on: bool) -> bool {
        set_int(sock.as_raw_fd(), SOL_UDP, UDP_GRO, i32::from(on))
    }

    pub(super) fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> bool {
        let bytes = i32::try_from(bytes).unwrap_or(i32::MAX);
        set_int(sock.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, bytes)
    }

    impl Area {
        /// Maps `len` (> 0) zeroed bytes; `mmap`'s error if that fails.
        pub fn new(len: usize) -> io::Result<Area> {
            // SAFETY: a fresh private anonymous mapping aliases nothing.
            let p = unsafe { mmap(ptr::null_mut(), len, PROT_RW, MAP_ANON, -1, 0) };
            let ptr = NonNull::new(p).filter(|_| p as isize != -1);
            let ptr = ptr.ok_or_else(io::Error::last_os_error)?;
            // Base pages: a huge page is resident whole from its first write.
            // SAFETY: `ptr` heads the `len` bytes just mapped; advice only.
            unsafe { madvise(ptr.as_ptr(), len, MADV_NOHUGEPAGE) };
            Ok(Area { ptr, len })
        }
    }

    impl Drop for Area {
        fn drop(&mut self) {
            // SAFETY: `new` mapped exactly this, and no borrow outlives `self`.
            unsafe { munmap(self.ptr.as_ptr(), self.len) };
        }
    }

    pub(super) fn recv_nowait(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        let mut addr = SockAddrStorage::zeroed();
        let mut addrlen = mem::size_of::<SockAddrStorage>() as u32;
        // SAFETY: `buf`, `addr` and `addrlen` are live, exclusively
        // borrowed locals for the whole call; the kernel writes at most
        // `buf.len()` bytes to `buf` and at most `addrlen` (128) bytes to
        // `addr`, and `sock` keeps the descriptor open.
        let got = unsafe {
            recvfrom(
                sock.as_raw_fd(),
                buf.as_mut_ptr(),
                buf.len(),
                MSG_DONTWAIT,
                &mut addr,
                &mut addrlen,
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        let src = match decode_addr(&addr) {
            Some(src) => src,
            None => sock.local_addr()?,
        };
        Ok((got as usize, src))
    }

    pub(super) fn send_batch(
        sock: &UdpSocket,
        arena: &[u8],
        segs: &[(u32, u32, SocketAddr)],
    ) -> io::Result<usize> {
        let fd = sock.as_raw_fd();
        Ok(segs
            .chunks(MAX_SEGMENTS)
            .map(|window| send_window(fd, arena, window))
            .sum())
    }

    /// Sends up to [`MAX_SEGMENTS`] datagrams, one message per run (the
    /// rule is on [`super::send_batch`]); returns the datagrams accepted.
    fn send_window(fd: i32, arena: &[u8], window: &[(u32, u32, SocketAddr)]) -> usize {
        assert!(window.len() <= MAX_SEGMENTS);
        let mut iovs = [const { MaybeUninit::<IoVec>::uninit() }; MAX_SEGMENTS];
        // Headers keep pointers into `iovs` while later runs are still
        // being written, so every access goes through this one pointer.
        let iovs = iovs.as_mut_ptr().cast::<IoVec>();
        let mut addrs = [const { MaybeUninit::<SockAddrStorage>::uninit() }; MAX_SEGMENTS];
        let mut cmsgs = [const { MaybeUninit::<UdpCmsg<u16>>::uninit() }; MAX_SEGMENTS];
        let mut hdrs = [const { MaybeUninit::<MMsgHdr>::uninit() }; MAX_SEGMENTS];
        // Bit `j`: datagram `j` of the window already sits in a run.
        let mut taken = 0u64;
        let mut n_iovs = 0;
        let mut n_msgs = 0;
        for (i, &(_, seg_len, dest)) in window.iter().enumerate() {
            if taken >> i & 1 == 1 {
                continue;
            }
            let first = n_iovs;
            let mut bytes = 0;
            for (j, &(off, len, to)) in window.iter().enumerate().skip(i) {
                if taken >> j & 1 == 1 || to != dest {
                    continue;
                }
                // The next datagram for `dest`: it joins the run or ends
                // it — never skipped, so per-destination order holds. (An
                // empty datagram always travels alone: the kernel would
                // not emit an empty last segment.)
                let (off, len) = (off as usize, len as usize);
                if j != i && (len == 0 || len > seg_len as usize || bytes + len > MAX_RUN_BYTES) {
                    break;
                }
                let wire = &arena[off..off + len];
                // The kernel only reads from send iovecs; the cast to
                // *mut is required by the shared iovec layout.
                let iov = IoVec {
                    base: wire.as_ptr().cast_mut(),
                    len,
                };
                // SAFETY: a datagram is taken once, so `n_iovs` stays
                // below `window.len()`, at most the array's length.
                unsafe { iovs.add(n_iovs).write(iov) };
                n_iovs += 1;
                taken |= 1 << j;
                bytes += len;
                if len < seg_len as usize {
                    break;
                }
            }
            let segments = n_iovs - first;
            let name = addrs[n_msgs].write(SockAddrStorage::zeroed());
            let namelen = encode_addr(&dest, name);
            let (control, controllen) = if segments > 1 {
                // Two or more segments fit MAX_RUN_BYTES, so the length
                // of each fits the control message's u16.
                let cmsg = cmsgs[n_msgs].write(UdpCmsg {
                    len: mem::offset_of!(UdpCmsg<u16>, size) + mem::size_of::<u16>(),
                    level: SOL_UDP,
                    ty: UDP_SEGMENT,
                    size: seg_len as u16,
                });
                (ptr::from_mut(cmsg).cast(), mem::size_of::<UdpCmsg<u16>>())
            } else {
                (ptr::null_mut(), 0)
            };
            hdrs[n_msgs].write(MMsgHdr {
                hdr: MsgHdr {
                    name,
                    namelen,
                    iov: iovs.wrapping_add(first),
                    iovlen: segments,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            });
            n_msgs += 1;
        }
        // SAFETY: headers `0..n_msgs` were written above, one per run.
        let hdrs = unsafe { hdrs[..n_msgs].assume_init_mut() };
        // SAFETY: every header points at its own written address slot,
        // at `iovlen` written iovecs — each a range of `arena`, bounds
        // checked by the slicing above — and, when `controllen` is not
        // 0, at its own written control message; all of it outlives the
        // call.
        unsafe { submit(fd, hdrs) }
    }

    /// Hands `hdrs` to `sendmmsg` and returns the datagrams accepted
    /// (one per iovec). `sendmmsg` stops at the first message the kernel
    /// refuses: a plain datagram is skipped and the rest still go out,
    /// the tolerance of a `send_to` loop; a coalesced message is re-sent
    /// one datagram at a time first, so a path that does not take
    /// `UDP_SEGMENT` costs one failed call per run and loses nothing.
    ///
    /// # Safety
    ///
    /// Every header's name, iovecs (and the bytes they cover) and
    /// control buffer must be valid for reads for the whole call.
    unsafe fn submit(fd: i32, hdrs: &mut [MMsgHdr]) -> usize {
        let mut accepted = 0;
        let mut coalesced = 0;
        let mut next = 0;
        while next < hdrs.len() {
            let rest = &mut hdrs[next..];
            // SAFETY: `rest` is a live slice of headers whose pointers
            // the caller vouches for; the kernel writes only each `len`.
            let sent = unsafe { sendmmsg(fd, rest.as_mut_ptr(), rest.len() as u32, 0) };
            let sent = sent.max(0) as usize;
            for h in &rest[..sent] {
                accepted += h.hdr.iovlen;
                if h.hdr.iovlen > 1 {
                    coalesced += h.hdr.iovlen;
                }
            }
            next += sent;
            if let Some(refused) = hdrs.get(next) {
                if refused.hdr.iovlen > 1 {
                    EGRESS_REFUSED.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: the caller's guarantee covers this header.
                    accepted += unsafe { resend_plain(fd, &refused.hdr) };
                }
                next += 1;
            }
        }
        if coalesced > 0 {
            EGRESS_COALESCED.fetch_add(coalesced as u64, Ordering::Relaxed);
        }
        accepted
    }

    /// Sends each datagram of the refused coalesced message `run` on its
    /// own, in order; returns how many the kernel accepted.
    ///
    /// # Safety
    ///
    /// As for [`submit`], for `run`.
    unsafe fn resend_plain(fd: i32, run: &MsgHdr) -> usize {
        let mut hdrs = [const { MaybeUninit::<MMsgHdr>::uninit() }; MAX_SEGMENTS];
        assert!(run.iovlen <= MAX_SEGMENTS);
        for (i, hdr) in hdrs[..run.iovlen].iter_mut().enumerate() {
            hdr.write(MMsgHdr {
                hdr: MsgHdr {
                    name: run.name,
                    namelen: run.namelen,
                    // In bounds: `run.iov` heads `run.iovlen` iovecs.
                    iov: run.iov.wrapping_add(i),
                    iovlen: 1,
                    control: ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        // SAFETY: headers `0..run.iovlen` were written above; each points
        // at `run`'s address and one of its iovecs, which the caller
        // vouches for. Single-iovec headers never come back here.
        unsafe { submit(fd, hdrs[..run.iovlen].assume_init_mut()) }
    }

    pub(super) fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let domain = match addr {
            SocketAddr::V4(_) => i32::from(AF_INET),
            SocketAddr::V6(_) => i32::from(AF_INET6),
        };
        let fd = unsafe { socket(domain, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let close_on_err = |fd: i32| {
            let err = io::Error::last_os_error();
            unsafe { close(fd) };
            err
        };
        if !set_int(fd, SOL_SOCKET, SO_REUSEPORT, 1) {
            return Err(close_on_err(fd));
        }
        let mut storage = SockAddrStorage::zeroed();
        let len = encode_addr(&addr, &mut storage);
        let rc = unsafe { bind(fd, &storage, len) };
        if rc != 0 {
            return Err(close_on_err(fd));
        }
        Ok(unsafe { UdpSocket::from_raw_fd(fd) })
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::ptr::NonNull;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "batched UDP syscalls are Linux-only; use the loop fallback",
        )
    }

    pub(super) fn recv_batch(
        _sock: &UdpSocket,
        _area: &mut [u8],
        _entry_len: usize,
        _meta: &mut [super::RecvMeta],
    ) -> io::Result<usize> {
        Err(unsupported())
    }

    pub(super) fn set_gro(_sock: &UdpSocket, _on: bool) -> bool {
        false
    }

    pub(super) fn set_recv_buffer(_sock: &UdpSocket, _bytes: usize) -> bool {
        false
    }

    impl super::Area {
        /// Allocates `len` zeroed bytes.
        pub fn new(len: usize) -> io::Result<Self> {
            let ptr = NonNull::from(Box::leak(vec![0u8; len].into_boxed_slice())).cast();
            Ok(Self { ptr, len })
        }
    }

    impl Drop for super::Area {
        fn drop(&mut self) {
            let area = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
            // SAFETY: `new` leaked exactly this box.
            drop(unsafe { Box::from_raw(area) });
        }
    }

    pub(super) fn send_batch(
        _sock: &UdpSocket,
        _arena: &[u8],
        _segs: &[(u32, u32, SocketAddr)],
    ) -> io::Result<usize> {
        Err(unsupported())
    }

    pub(super) fn bind_reuseport(_addr: SocketAddr) -> io::Result<UdpSocket> {
        Err(unsupported())
    }

    pub(super) fn recv_nowait(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        sock.set_nonblocking(true)?;
        let got = sock.recv_from(buf);
        sock.set_nonblocking(false)?;
        got
    }
}

#[cfg(test)]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// Makes the kernel refuse every coalesced message on `sock`
    /// (`EINVAL`) while plain datagrams still go out: UDP segmentation
    /// needs the transmit checksum that `SO_NO_CHECK` turns off.
    fn refuse_segmentation(sock: &UdpSocket) {
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, val: *const u8, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_NO_CHECK: i32 = 11;
        let one = 1i32.to_ne_bytes();
        // SAFETY: the value pointer is a live i32 and the length its size.
        let rc = unsafe { setsockopt(sock.as_raw_fd(), SOL_SOCKET, SO_NO_CHECK, one.as_ptr(), 4) };
        assert_eq!(rc, 0, "SO_NO_CHECK: {}", io::Error::last_os_error());
    }

    /// A bound loopback receiver with a read timeout.
    fn receiver(bind: &str) -> (UdpSocket, SocketAddr) {
        let rx = UdpSocket::bind(bind).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let addr = rx.local_addr().unwrap();
        (rx, addr)
    }

    /// Datagram `i` of a flush: `len` bytes that name their position.
    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|b| (i * 31 + b) as u8).collect()
    }

    /// Sends `(length, destination)` datagrams in one `send_batch`;
    /// returns what it returned and the payloads sent, in order.
    fn flush(tx: &UdpSocket, plan: &[(usize, SocketAddr)]) -> (usize, Vec<Vec<u8>>) {
        let payloads: Vec<Vec<u8>> = plan
            .iter()
            .enumerate()
            .map(|(i, &(len, _))| payload(i, len))
            .collect();
        let mut arena = Vec::new();
        let mut segs = Vec::new();
        for (p, &(_, dest)) in payloads.iter().zip(plan) {
            segs.push((arena.len() as u32, p.len() as u32, dest));
            arena.extend_from_slice(p);
        }
        (send_batch(tx, &arena, &segs).unwrap(), payloads)
    }

    /// Receives `n` datagrams into entries of `entry_len` bytes,
    /// asserting each came from `from`; returns them and the messages
    /// they arrived in.
    fn receive(
        rx: &UdpSocket,
        entry_len: usize,
        n: usize,
        from: SocketAddr,
    ) -> (Vec<Vec<u8>>, Vec<RecvMeta>) {
        let mut area = Area::new(MAX_BATCH * entry_len).unwrap();
        let mut meta = [RecvMeta::default(); MAX_BATCH];
        let (mut got, mut messages) = (Vec::new(), Vec::new());
        while got.len() < n {
            let k = recv_batch(rx, &mut area, entry_len, &mut meta).expect("datagram lost");
            for (i, m) in meta[..k].iter().enumerate() {
                assert_eq!(m.src, from, "source of datagram {}", got.len());
                let entry = &area[i * entry_len..][..entry_len];
                got.extend(
                    m.datagrams()
                        .map(|(off, len)| entry[off..off + len].to_vec()),
                );
                messages.push(*m);
            }
        }
        (got, messages)
    }

    /// Receives `n` datagrams, asserting each came from `from`.
    fn drain(rx: &UdpSocket, n: usize, from: SocketAddr) -> Vec<Vec<u8>> {
        receive(rx, 2048, n, from).0
    }

    /// `(len, segment)` of each message.
    fn shapes(messages: &[RecvMeta]) -> Vec<(usize, usize)> {
        messages.iter().map(|m| (m.len, m.segment)).collect()
    }

    /// A bound loopback receiver with `UDP_GRO` on, or `None` with the
    /// reason printed where the address family or the option is missing.
    fn gro_receiver(bind: &str) -> Option<(UdpSocket, SocketAddr)> {
        let Ok(rx) = UdpSocket::bind(bind) else {
            eprintln!("skipped: cannot bind {bind} on this host");
            return None;
        };
        if !enable_gro(&rx) {
            eprintln!("skipped: this kernel refuses UDP_GRO");
            return None;
        }
        rx.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let addr = rx.local_addr().unwrap();
        Some((rx, addr))
    }

    /// Flushes `lens` from a fresh socket to a GRO receiver; asserts the
    /// datagrams arrive byte-identical, in order and from the sender, and
    /// returns the messages they came in — `None` where the kernel
    /// refuses GRO, or refused a `UDP_SEGMENT` message meanwhile (the
    /// refusal counter is process-wide).
    fn gro_roundtrip(bind: &str, lens: &[usize]) -> Option<Vec<RecvMeta>> {
        let (rx, dest) = gro_receiver(bind)?;
        let tx = UdpSocket::bind(bind).unwrap();
        let refused = egress_counts().1;
        let plan: Vec<_> = lens.iter().map(|&len| (len, dest)).collect();
        let (sent, payloads) = flush(&tx, &plan);
        assert_eq!(sent, lens.len(), "datagrams accepted");
        let from = tx.local_addr().unwrap();
        let (got, messages) = receive(&rx, MAX_MESSAGE_LEN, lens.len(), from);
        assert_eq!(got, payloads);
        (egress_counts().1 == refused).then_some(messages)
    }

    /// One flush of `lens` to one destination arrives whole and in order.
    fn assert_delivered_in_order(lens: &[usize]) {
        let (rx, dest) = receiver("127.0.0.1:0");
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let plan: Vec<_> = lens.iter().map(|&len| (len, dest)).collect();
        let (sent, payloads) = flush(&tx, &plan);
        assert_eq!(sent, lens.len(), "datagrams accepted");
        assert_eq!(drain(&rx, lens.len(), tx.local_addr().unwrap()), payloads);
    }

    #[test]
    fn batch_roundtrip_preserves_payloads_and_sources() {
        assert_delivered_in_order(&[10, 11, 12, 13, 14]);
    }

    #[test]
    fn equal_datagrams_to_one_destination_leave_coalesced() {
        let (coalesced, refused) = egress_counts();
        assert_delivered_in_order(&[80; 32]);
        let (coalesced_after, refused_after) = egress_counts();
        // The counters are process-wide and other tests send too: at
        // least this flush shows, as one run or as one refusal.
        assert!(
            coalesced_after >= coalesced + 32 || refused_after > refused,
            "32 equal datagrams left neither coalesced nor refused"
        );
    }

    #[test]
    fn interleaved_destinations_each_get_their_stream_in_order() {
        // What a 2-hop fan-out queues: every wire image to A, then to B.
        let (rx_a, a) = receiver("127.0.0.1:0");
        let (rx_b, b) = receiver("127.0.0.1:0");
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let plan: Vec<_> = (0..32)
            .map(|i| (72, if i % 2 == 0 { a } else { b }))
            .collect();
        let (sent, payloads) = flush(&tx, &plan);
        assert_eq!(sent, 32);
        let from = tx.local_addr().unwrap();
        let (to_a, to_b): (Vec<_>, Vec<_>) = payloads
            .chunks(2)
            .map(|p| (p[0].clone(), p[1].clone()))
            .unzip();
        assert_eq!(drain(&rx_a, 16, from), to_a);
        assert_eq!(drain(&rx_b, 16, from), to_b);
    }

    #[test]
    fn unequal_lengths_split_runs_and_keep_order() {
        // Growth ends a run, an empty datagram travels alone.
        assert_delivered_in_order(&[100, 100, 200, 200, 200, 50, 300, 300, 0, 300, 1]);
    }

    #[test]
    fn a_shorter_tail_closes_a_run() {
        assert_delivered_in_order(&[100, 100, 100, 40, 100, 100, 7]);
    }

    #[test]
    fn a_flush_beyond_one_udp_payload_splits() {
        // 45 x 1,473 B = 66,285 B: more than one message may carry.
        assert_delivered_in_order(&[1473; 45]);
    }

    #[test]
    fn a_flush_beyond_the_segment_cap_splits() {
        assert_delivered_in_order(&[16; 150]);
    }

    #[test]
    fn a_single_datagram_leaves_plain() {
        assert_delivered_in_order(&[1200]);
    }

    #[test]
    fn an_ipv6_destination_coalesces_too() {
        let Ok(rx) = UdpSocket::bind("[::1]:0") else {
            return; // no IPv6 loopback on this host
        };
        rx.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let dest = rx.local_addr().unwrap();
        let tx = UdpSocket::bind("[::1]:0").unwrap();
        let (sent, payloads) = flush(&tx, &[(90, dest); 20]);
        assert_eq!(sent, 20);
        assert_eq!(drain(&rx, 20, tx.local_addr().unwrap()), payloads);
    }

    #[test]
    fn a_vanished_peer_does_not_stall_the_rest_of_the_flush() {
        let (rx, alive) = receiver("127.0.0.1:0");
        let gone = receiver("127.0.0.1:0").1; // closed again: nobody listens
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let from = tx.local_addr().unwrap();
        let plan: Vec<_> = (0..32)
            .map(|i| (64, if i % 2 == 0 { gone } else { alive }))
            .collect();
        // Twice: the first flush's port-unreachable errors are pending
        // on the socket when the second one goes out.
        for _ in 0..2 {
            let (sent, payloads) = flush(&tx, &plan);
            assert!((16..=32).contains(&sent), "counts datagrams, got {sent}");
            let to_alive: Vec<_> = payloads.into_iter().skip(1).step_by(2).collect();
            assert_eq!(drain(&rx, 16, from), to_alive);
        }
    }

    #[test]
    fn a_refused_coalesced_message_is_resent_datagram_by_datagram() {
        let (rx_a, a) = receiver("127.0.0.1:0");
        let (rx_b, b) = receiver("127.0.0.1:0");
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        refuse_segmentation(&tx);
        let refused = egress_counts().1;
        let mut plan: Vec<_> = (0..24)
            .map(|i| (72, if i % 2 == 0 { a } else { b }))
            .collect();
        plan.extend([(500, a), (500, a), (20, a)]);
        let (sent, payloads) = flush(&tx, &plan);
        assert_eq!(sent, plan.len(), "every datagram went out plainly");
        assert!(egress_counts().1 >= refused + 3, "three runs refused");
        let from = tx.local_addr().unwrap();
        let stream = |dest| -> Vec<Vec<u8>> {
            let of_dest = plan.iter().zip(&payloads).filter(|((_, d), _)| *d == dest);
            of_dest.map(|(_, p)| p.clone()).collect()
        };
        assert_eq!(drain(&rx_a, 15, from), stream(a));
        assert_eq!(drain(&rx_b, 12, from), stream(b));
    }

    #[test]
    fn recv_batch_honours_read_timeout() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let mut area = Area::new(4 * 64).unwrap();
        let mut meta = [RecvMeta::default(); 4];
        let err = recv_batch(&rx, &mut area, 64, &mut meta).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn recv_nowait_never_blocks_and_leaves_the_socket_blocking() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 16];
        // No read timeout set: a blocking receive would hang here.
        let err = recv_nowait(&rx, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        tx.send_to(b"ping", rx.local_addr().unwrap()).unwrap();
        // Loopback delivery is synchronous with the send.
        let (n, src) = recv_nowait(&rx, &mut buf).unwrap();
        assert_eq!((&buf[..n], src), (&b"ping"[..], tx.local_addr().unwrap()));
        assert_eq!(rx.read_timeout().unwrap(), None, "timeout untouched");
    }

    #[test]
    fn reuseport_sockets_share_one_port() {
        let a = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = a.local_addr().unwrap();
        let b = bind_reuseport(addr).unwrap();
        assert_eq!(b.local_addr().unwrap(), addr);

        // A datagram sent to the shared port lands on exactly one of them.
        for s in [&a, &b] {
            s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        }
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"hello", addr).unwrap();
        let mut buf = [0u8; 16];
        let landed = a.recv_from(&mut buf).is_ok() || b.recv_from(&mut buf).is_ok();
        assert!(landed, "shared-port datagram was delivered");
    }

    #[test]
    fn datagrams_cut_a_message_at_its_segments() {
        let meta = |len, segment, truncated| RecvMeta {
            len,
            segment,
            truncated,
            ..RecvMeta::default()
        };
        let cuts = |m: RecvMeta| m.datagrams().collect::<Vec<_>>();
        assert_eq!(cuts(meta(90, 0, false)), [(0, 90)]);
        assert_eq!(cuts(meta(0, 0, false)), [(0, 0)]);
        // A plain datagram arrives cut, as recv_from gives it.
        assert_eq!(cuts(meta(64, 0, true)), [(0, 64)]);
        assert_eq!(
            cuts(meta(300, 100, false)),
            [(0, 100), (100, 100), (200, 100)]
        );
        assert_eq!(
            cuts(meta(240, 100, false)),
            [(0, 100), (100, 100), (200, 40)]
        );
        // Cut: whole segments, then one empty datagram for the rest.
        assert_eq!(cuts(meta(250, 100, true)), [(0, 100), (100, 100), (200, 0)]);
        assert_eq!(cuts(meta(200, 100, true)), [(0, 100), (100, 100), (200, 0)]);
        assert_eq!(cuts(meta(64, 100, true)), [(0, 0)]);
    }

    #[test]
    fn gro_hands_a_burst_over_as_one_message() {
        if let Some(messages) = gro_roundtrip("127.0.0.1:0", &[77; 32]) {
            assert_eq!(shapes(&messages), [(32 * 77, 77)]);
        }
    }

    #[test]
    fn gro_keeps_a_shorter_tail_segment() {
        let mut lens = vec![100; 10];
        lens.push(40);
        if let Some(messages) = gro_roundtrip("127.0.0.1:0", &lens) {
            assert_eq!(shapes(&messages), [(1040, 100)]);
        }
    }

    #[test]
    fn gro_carries_a_burst_near_the_64k_cap_whole() {
        if let Some(messages) = gro_roundtrip("127.0.0.1:0", &[1473; 44]) {
            assert_eq!(shapes(&messages), [(44 * 1473, 1473)]);
        }
    }

    #[test]
    fn gro_over_ipv6_loopback() {
        if let Some(messages) = gro_roundtrip("[::1]:0", &[90; 20]) {
            assert_eq!(shapes(&messages), [(1800, 90)]);
        }
    }

    #[test]
    fn a_plain_datagram_and_a_burst_share_one_receive() {
        let Some((rx, dest)) = gro_receiver("127.0.0.1:0") else {
            return;
        };
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let refused = egress_counts().1;
        tx.send_to(&payload(99, 50), dest).unwrap();
        let (_, burst) = flush(&tx, &[(60, dest); 16]);
        // Loopback delivery is synchronous with the send: one receive
        // finds both messages queued.
        let mut area = Area::new(MAX_BATCH * MAX_MESSAGE_LEN).unwrap();
        let mut meta = [RecvMeta::default(); MAX_BATCH];
        let got = recv_batch(&rx, &mut area, MAX_MESSAGE_LEN, &mut meta).unwrap();
        if egress_counts().1 != refused {
            return; // the burst went out plain: nothing to coalesce
        }
        assert_eq!(shapes(&meta[..got]), [(50, 0), (960, 60)]);
        let from = tx.local_addr().unwrap();
        assert!(meta[..got].iter().all(|m| m.src == from));
        assert_eq!(&area[..50], &payload(99, 50)[..]);
        let second = &area[MAX_MESSAGE_LEN..];
        let datagrams: Vec<_> = meta[1]
            .datagrams()
            .map(|(off, len)| second[off..off + len].to_vec())
            .collect();
        assert_eq!(datagrams, burst);
    }

    #[test]
    fn oversize_segments_are_never_handed_on_cut() {
        let Some((rx, dest)) = gro_receiver("127.0.0.1:0") else {
            return;
        };
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let from = tx.local_addr().unwrap();
        let refused = egress_counts().1;
        // Entries of 1,000 B: a burst of 300 B segments is cut after
        // three, one of 1,500 B segments inside its first.
        let (_, sent) = flush(&tx, &[(300, dest); 10]);
        let (got, messages) = receive(&rx, 1000, 1, from);
        flush(&tx, &[(1500, dest); 4]);
        let (oversize, _) = receive(&rx, 1000, 1, from);
        if egress_counts().1 != refused {
            return;
        }
        assert!(messages[0].truncated);
        assert_eq!(got[..3], sent[..3], "whole segments arrive whole");
        assert_eq!(got.len(), 4);
        assert!(got[3].is_empty(), "the cut rest is one empty datagram");
        assert_eq!(oversize, [Vec::<u8>::new()]);
    }

    /// The receive queue the kernel reports (`SO_RCVBUF`).
    fn recv_queue(sock: &UdpSocket) -> i32 {
        extern "C" {
            fn getsockopt(fd: i32, level: i32, name: i32, val: *mut u8, len: *mut u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_RCVBUF: i32 = 8;
        let mut value = [0u8; 4];
        let mut len = 4u32;
        // SAFETY: the value pointer is 4 live bytes and `len` says so.
        let rc = unsafe {
            getsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                value.as_mut_ptr(),
                &mut len,
            )
        };
        assert_eq!(rc, 0, "SO_RCVBUF: {}", io::Error::last_os_error());
        i32::from_ne_bytes(value)
    }

    #[test]
    fn a_larger_receive_queue_is_granted() {
        let (rx, _) = receiver("127.0.0.1:0");
        let default = recv_queue(&rx);
        assert!(set_recv_buffer(&rx, 4 << 20));
        // Linux doubles the granted request for its bookkeeping, so even
        // a request capped at a `net.core.rmem_max` equal to the default
        // ends above it.
        assert!(
            recv_queue(&rx) > default,
            "{} <= {default}",
            recv_queue(&rx)
        );
    }

    #[test]
    fn a_socket_without_gro_receives_datagram_by_datagram() {
        // Never asked, and asked then turned off again.
        for turned_off in [false, true] {
            let (rx, dest) = receiver("127.0.0.1:0");
            if turned_off {
                let _ = enable_gro(&rx);
                disable_gro(&rx);
            }
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            let (_, payloads) = flush(&tx, &[(77, dest); 32]);
            let from = tx.local_addr().unwrap();
            let (got, messages) = receive(&rx, MAX_MESSAGE_LEN, 32, from);
            assert_eq!(got, payloads);
            assert_eq!(shapes(&messages), [(77, 0); 32]);
        }
    }
}
