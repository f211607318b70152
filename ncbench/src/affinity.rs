//! Thread placement. On this two-CPU host the scheduler's choice of CPU
//! decides results by itself — an `fdatasync` issued from CPU 0 takes
//! about 115 µs and from CPU 1 about 70 µs, for a whole run — so runs of
//! one commit came out bimodal. The benchmark therefore fixes placement:
//! the thread that generates load runs on the last CPU, and threads of
//! the program under test are spawned while the spawning thread sits on
//! the first CPU, which they inherit.
//!
//! The workspace has no `libc` crate, so `sched_setaffinity` is declared
//! here; with `clock_gettime` in [`crate::cputime`] it is the crate's only
//! unsafe code.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Words in the CPU mask handed to the kernel (room for 1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

static PINNED: AtomicBool = AtomicBool::new(false);

/// CPUs available to the process, counted once before any pinning
/// (`available_parallelism` follows the calling thread's mask).
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(64 * MASK_WORDS))
    })
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` points at `MASK_WORDS` initialised words that
    // outlive the call, and the size passed is exactly their size; pid 0
    // names the calling thread. The kernel only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_mask: &[u64; MASK_WORDS]) -> bool {
    false
}

fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    set_mask(&mask)
}

/// Pins the calling thread — the load generator — to the last CPU.
/// Best effort: where the kernel refuses, the run goes on unpinned and
/// the fingerprint says so.
pub fn pin_generator() {
    PINNED.store(pin_to(cpus() - 1), Ordering::Relaxed);
}

/// Whether [`pin_generator`] took effect.
pub fn pinned() -> bool {
    PINNED.load(Ordering::Relaxed)
}

/// Runs `spawn` with the calling thread on the first CPU, so that the
/// threads it starts inherit that placement, then returns the caller to
/// the generator's CPU.
pub fn on_first_cpu<T>(spawn: impl FnOnce() -> T) -> T {
    if !pinned() {
        return spawn();
    }
    pin_to(0);
    let out = spawn();
    pin_to(cpus() - 1);
    out
}
