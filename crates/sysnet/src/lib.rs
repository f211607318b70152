//! Thin, dependency-free wrappers over the Linux batched-UDP syscalls.
//!
//! The relay's per-datagram syscall cost dominates its loopback
//! throughput: one `recvfrom` plus one `sendto` per packet caps a
//! single-threaded relay orders of magnitude below what the coding
//! engine sustains in memory. This crate provides the primitives
//! the sharded relay runtime needs to close that gap, with no external
//! dependencies (the workspace is hermetic — there is no `libc` crate,
//! so the declarations bind directly against the C library `std`
//! already links):
//!
//! - [`recv_batch`]: one `recvmmsg(2)` call filling up to [`MAX_BATCH`]
//!   datagrams. `MSG_WAITFORONE` makes the call block only for the
//!   *first* datagram (honouring `SO_RCVTIMEO`), then drain whatever
//!   else is queued without further waiting.
//! - [`send_batch`]: one `sendmmsg(2)` call per [`MAX_BATCH`] chunk,
//!   transmitting datagrams serialized back-to-back in a caller-owned
//!   arena. Per-datagram failures (e.g. `ECONNREFUSED` bounced off a
//!   loopback sink that went away) are skipped, not fatal.
//! - [`bind_reuseport`]: binds a UDP socket with `SO_REUSEPORT` set
//!   *before* `bind`, so several shard sockets can share one advertised
//!   port and the kernel spreads the receive load across them.
//! - [`recv_nowait`]: one `recvfrom(2)` with `MSG_DONTWAIT` — a poll of
//!   the receive queue that never blocks and never touches the socket's
//!   mode or read timeout.
//!
//! On non-Linux targets the batched entry points return
//! [`io::ErrorKind::Unsupported`]; callers (the `ncvnf-relay` socket
//! layer) fall back to portable one-datagram-per-syscall loops, so the
//! workspace builds and behaves identically — just slower — elsewhere.
//! [`recv_nowait`] works everywhere (it toggles `O_NONBLOCK` around a
//! plain receive where `MSG_DONTWAIT` is not bound).
//!
//! All unsafe code in the workspace lives in this crate; `ncvnf-relay`
//! itself keeps `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Largest number of datagrams moved per batched syscall.
///
/// 32 matches the relay's batch flush size: big enough to amortize the
/// syscall, small enough that per-batch stack state (iovecs, headers,
/// address storage) stays a few KiB.
pub const MAX_BATCH: usize = 32;

/// Receives up to `bufs.len().min(meta.len()).min(MAX_BATCH)` datagrams
/// in a single `recvmmsg` call.
///
/// Blocks (subject to the socket's read timeout) until at least one
/// datagram arrives, then drains without waiting. For each received
/// datagram `i`, the payload is written into `bufs[i]` and
/// `meta[i] = (len, source)`. Returns the number of datagrams received.
///
/// # Errors
///
/// Propagates socket errors; read-timeout expiry surfaces as
/// `WouldBlock`/`TimedOut` exactly like `UdpSocket::recv_from`. On
/// non-Linux targets returns `Unsupported`.
pub fn recv_batch(
    sock: &UdpSocket,
    bufs: &mut [Vec<u8>],
    meta: &mut [(usize, SocketAddr)],
) -> io::Result<usize> {
    imp::recv_batch(sock, bufs, meta)
}

/// Sends `segs` (offset, length, destination — all referencing `arena`)
/// via `sendmmsg`, `MAX_BATCH` datagrams per call.
///
/// Returns the number of datagrams accepted by the kernel. A datagram
/// the kernel refuses (e.g. `ECONNREFUSED` from a vanished loopback
/// peer) is skipped and the rest of the batch still goes out, mirroring
/// the per-datagram error tolerance of a `send_to` loop.
///
/// # Errors
///
/// On non-Linux targets returns `Unsupported`; Linux per-datagram
/// failures are tolerated as described above rather than raised.
pub fn send_batch(
    sock: &UdpSocket,
    arena: &[u8],
    segs: &[(u32, u32, SocketAddr)],
) -> io::Result<usize> {
    imp::send_batch(sock, arena, segs)
}

/// Binds a UDP socket to `addr` with `SO_REUSEPORT` enabled.
///
/// Several sockets bound this way to the same address share one port;
/// the kernel hashes incoming datagrams across them, giving each relay
/// shard its own receive queue behind a single advertised endpoint.
///
/// # Errors
///
/// Propagates `socket`/`setsockopt`/`bind` failures. On non-Linux
/// targets returns `Unsupported`; callers fall back to one socket (or
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

/// Whether this build has real batched syscalls (Linux) or the
/// `Unsupported` stubs.
#[must_use]
pub fn batched_syscalls_available() -> bool {
    cfg!(target_os = "linux")
}

#[cfg(target_os = "linux")]
mod imp {
    use super::MAX_BATCH;
    use std::io;
    use std::mem;
    use std::net::{SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::ptr;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;
    const MSG_WAITFORONE: i32 = 0x10000;
    const MSG_DONTWAIT: i32 = 0x40;

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
        bufs: &mut [Vec<u8>],
        meta: &mut [(usize, SocketAddr)],
    ) -> io::Result<usize> {
        let n = bufs.len().min(meta.len()).min(MAX_BATCH);
        if n == 0 {
            return Ok(0);
        }
        let mut addrs = [SockAddrStorage::zeroed(); MAX_BATCH];
        let mut iovs = [IoVec {
            base: ptr::null_mut(),
            len: 0,
        }; MAX_BATCH];
        // Headers hold raw pointers into the arrays above; all three
        // live on this stack frame for the duration of the call.
        let mut hdrs: [MMsgHdr; MAX_BATCH] = unsafe { mem::zeroed() };
        for i in 0..n {
            iovs[i] = IoVec {
                base: bufs[i].as_mut_ptr(),
                len: bufs[i].len(),
            };
            hdrs[i].hdr = MsgHdr {
                name: &mut addrs[i],
                namelen: mem::size_of::<SockAddrStorage>() as u32,
                iov: &mut iovs[i],
                iovlen: 1,
                control: ptr::null_mut(),
                controllen: 0,
                flags: 0,
            };
        }
        // MSG_WAITFORONE: block (under SO_RCVTIMEO) for the first
        // datagram only, then drain without waiting. Null timeout: the
        // socket's own read timeout governs the initial wait.
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
        let fallback = sock.local_addr()?;
        for i in 0..got {
            let src = decode_addr(&addrs[i]).unwrap_or(fallback);
            meta[i] = (hdrs[i].len as usize, src);
        }
        Ok(got)
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
        let mut sent_ok = 0usize;
        for chunk in segs.chunks(MAX_BATCH) {
            let mut addrs = [SockAddrStorage::zeroed(); MAX_BATCH];
            let mut lens = [0u32; MAX_BATCH];
            let mut iovs = [IoVec {
                base: ptr::null_mut(),
                len: 0,
            }; MAX_BATCH];
            let mut hdrs: [MMsgHdr; MAX_BATCH] = unsafe { mem::zeroed() };
            for (i, &(off, len, dest)) in chunk.iter().enumerate() {
                let slice = &arena[off as usize..(off + len) as usize];
                // The kernel only reads from send iovecs; the cast to
                // *mut is required by the shared iovec layout.
                iovs[i] = IoVec {
                    base: slice.as_ptr().cast_mut(),
                    len: slice.len(),
                };
                lens[i] = encode_addr(&dest, &mut addrs[i]);
            }
            for i in 0..chunk.len() {
                hdrs[i].hdr = MsgHdr {
                    name: &mut addrs[i],
                    namelen: lens[i],
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                };
            }
            // sendmmsg stops at the first failing datagram (after
            // reporting how many went out). Skip the offender and keep
            // going: per-datagram tolerance, same as a send_to loop.
            let mut off = 0usize;
            while off < chunk.len() {
                let sent = unsafe {
                    sendmmsg(
                        fd,
                        hdrs.as_mut_ptr().wrapping_add(off),
                        (chunk.len() - off) as u32,
                        0,
                    )
                };
                if sent > 0 {
                    sent_ok += sent as usize;
                    off += sent as usize;
                } else {
                    off += 1;
                }
            }
        }
        Ok(sent_ok)
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
        let one: i32 = 1;
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEPORT,
                (&one as *const i32).cast(),
                mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
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

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "batched UDP syscalls are Linux-only; use the loop fallback",
        )
    }

    pub(super) fn recv_batch(
        _sock: &UdpSocket,
        _bufs: &mut [Vec<u8>],
        _meta: &mut [(usize, SocketAddr)],
    ) -> io::Result<usize> {
        Err(unsupported())
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

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn batch_roundtrip_preserves_payloads_and_sources() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let dest = rx.local_addr().unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx_addr = tx.local_addr().unwrap();

        // Serialize 5 datagrams back-to-back into one arena.
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + i as usize]).collect();
        let mut arena = Vec::new();
        let mut segs = Vec::new();
        for p in &payloads {
            segs.push((arena.len() as u32, p.len() as u32, dest));
            arena.extend_from_slice(p);
        }
        assert_eq!(send_batch(&tx, &arena, &segs).unwrap(), 5);

        let mut bufs: Vec<Vec<u8>> = (0..MAX_BATCH).map(|_| vec![0u8; 2048]).collect();
        let mut meta = vec![(0usize, dest); MAX_BATCH];
        let mut got = Vec::new();
        while got.len() < 5 {
            let n = recv_batch(&rx, &mut bufs, &mut meta).unwrap();
            assert!(n > 0);
            for i in 0..n {
                let (len, src) = meta[i];
                assert_eq!(src, tx_addr);
                got.push(bufs[i][..len].to_vec());
            }
        }
        assert_eq!(got, payloads);
    }

    #[test]
    fn recv_batch_honours_read_timeout() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 64]).collect();
        let mut meta = vec![(0usize, rx.local_addr().unwrap()); 4];
        let err = recv_batch(&rx, &mut bufs, &mut meta).unwrap_err();
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
}
