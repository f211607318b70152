//! CPU time of the calling thread. `control_react` spends most of each
//! adopting poll asleep in `fdatasync`, waiting for a disk this host
//! shares; what the control path itself costs is the time the thread was
//! on a CPU, which the kernel counts per thread to the nanosecond.
//!
//! The workspace has no `libc` crate, so `clock_gettime` is declared
//! here, as `sched_setaffinity` is in [`crate::affinity`].

#![allow(unsafe_code)]

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// CPU time the calling thread has used, user and system, since it
/// started. Differences between two readings on one thread are what is
/// meant to be used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    let mut ts = sys::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` of this
    // platform's layout for the duration of the call, which writes it
    // and keeps no pointer.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Elsewhere there is no per-thread CPU clock to declare: wall time since
/// the first call stands in, so the benchmark still runs.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_not_sleep() {
        let t0 = thread_cpu();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu() - t0;
        let mut x = 0u64;
        let t1 = thread_cpu();
        let wall = std::time::Instant::now();
        while wall.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = thread_cpu() - t1;
        assert!(slept < Duration::from_millis(10), "slept {slept:?}");
        assert!(worked > slept, "worked {worked:?}, slept {slept:?}");
    }
}
