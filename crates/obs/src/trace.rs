//! A fixed-capacity structured trace-event ring with seqlock-style slots.
//!
//! Writers (the relay's data and control threads) publish small,
//! fixed-size [`TraceEvent`]s with a handful of relaxed/release atomic
//! stores — no locks, no heap — and never block: when the ring is full
//! the oldest events are overwritten and the overwrite is counted.
//! A single consumer drains with [`TraceRing::drain`], which detects
//! torn or overwritten slots via per-slot sequence stamps and skips
//! them rather than reporting garbage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Category of a trace event, used to interpret its payload fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A forwarding table was swapped in (`a` = routes, `b` = swap ns).
    TableSwap,
    /// A relay target was lost or returned (`a` = node id, `b` = 1 lost /
    /// 2 returned).
    Liveness,
    /// A generation was fully decoded (`a` = generation id,
    /// `b` = coded packets consumed).
    GenerationDecoded,
    /// A NACK-driven repair burst was sent (`a` = generation id,
    /// `b` = packets resent).
    RepairBurst,
    /// A scaling decision fired in the control loop (`a` = 0 out /
    /// 1 in, `b` = VNF count after the event).
    Scaling,
    /// Free-form event for tests and tools (`a`/`b` caller-defined).
    Custom,
}

impl TraceKind {
    /// Stable snake_case label used in snapshots and docs.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::TableSwap => "table_swap",
            TraceKind::Liveness => "liveness",
            TraceKind::GenerationDecoded => "generation_decoded",
            TraceKind::RepairBurst => "repair_burst",
            TraceKind::Scaling => "scaling",
            TraceKind::Custom => "custom",
        }
    }

    fn code(self) -> u64 {
        match self {
            TraceKind::TableSwap => 0,
            TraceKind::Liveness => 1,
            TraceKind::GenerationDecoded => 2,
            TraceKind::RepairBurst => 3,
            TraceKind::Scaling => 4,
            TraceKind::Custom => 5,
        }
    }

    fn from_code(code: u64) -> TraceKind {
        match code {
            0 => TraceKind::TableSwap,
            1 => TraceKind::Liveness,
            2 => TraceKind::GenerationDecoded,
            3 => TraceKind::RepairBurst,
            4 => TraceKind::Scaling,
            _ => TraceKind::Custom,
        }
    }
}

/// One structured trace event: a kind plus two caller-defined payload
/// words and a publication sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global publication order (monotonic per ring).
    pub seq: u64,
    /// Event category.
    pub kind: TraceKind,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word (meaning depends on `kind`).
    pub b: u64,
}

/// A seqlock-style slot. `stamp` is 0 while a writer is mid-publish;
/// otherwise it holds `seq + 1` of the event stored in the slot. The
/// reader snapshots the stamp, reads the payload, and re-checks the
/// stamp — a changed or zero stamp means the slot was torn by a
/// concurrent writer and is skipped.
#[derive(Debug)]
struct Slot {
    stamp: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct RingCore {
    slots: Box<[Slot]>,
    /// Next sequence number to publish.
    head: AtomicU64,
    /// Next sequence number the consumer has not yet drained.
    tail: AtomicU64,
    /// Events overwritten before the consumer saw them.
    dropped: AtomicU64,
}

/// Fixed-capacity, lock-free trace-event ring buffer.
///
/// Multiple producers may [`push`](TraceRing::push) concurrently; a
/// single logical consumer calls [`drain`](TraceRing::drain). When
/// producers outrun the consumer the ring keeps the newest events,
/// drops the oldest, and reports the count via
/// [`dropped`](TraceRing::dropped).
#[derive(Debug, Clone)]
pub struct TraceRing {
    core: Arc<RingCore>,
}

impl TraceRing {
    /// Creates a ring holding `capacity` events (rounded up to a power
    /// of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                stamp: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        TraceRing {
            core: Arc::new(RingCore {
                slots: slots.into_boxed_slice(),
                head: AtomicU64::new(0),
                tail: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.core.slots.len()
    }

    /// Publishes an event. Lock-free and allocation-free; overwrites
    /// the oldest undrained event when the ring is full.
    pub fn push(&self, kind: TraceKind, a: u64, b: u64) {
        let c = &*self.core;
        let seq = c.head.fetch_add(1, Ordering::Relaxed);
        let slot = &c.slots[(seq as usize) & (c.slots.len() - 1)];
        // Mark the slot as mid-write so a concurrent drain skips it.
        slot.stamp.store(0, Ordering::Release);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        // Publish: stamp = seq + 1 (0 is reserved for "empty/torn").
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Total events overwritten before being drained.
    pub fn dropped(&self) -> u64 {
        self.core.dropped.load(Ordering::Relaxed)
    }

    /// Total events ever published.
    pub fn published(&self) -> u64 {
        self.core.head.load(Ordering::Relaxed)
    }

    /// Drains every event published since the previous drain into
    /// `out`, oldest first, and returns how many events were dropped
    /// (overwritten or torn) in that span.
    ///
    /// Intended for a single logical consumer (the snapshot path);
    /// concurrent drains partition the events arbitrarily.
    pub fn drain(&self, out: &mut Vec<TraceEvent>) -> u64 {
        let c = &*self.core;
        let head = c.head.load(Ordering::Acquire);
        let cap = c.slots.len() as u64;
        let mut tail = c.tail.swap(head, Ordering::AcqRel);
        if tail > head {
            // Another drain raced past us; nothing left in our span.
            return 0;
        }
        let mut lost = 0u64;
        // Anything older than one full ring ago is gone for sure.
        if head - tail > cap {
            lost += head - tail - cap;
            tail = head - cap;
        }
        for seq in tail..head {
            let slot = &c.slots[(seq as usize) & (c.slots.len() - 1)];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp != seq + 1 {
                // Torn (0), overwritten by a newer event, or not yet
                // published by a racing writer.
                lost += 1;
                continue;
            }
            let kind = TraceKind::from_code(slot.kind.load(Ordering::Relaxed));
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.stamp.load(Ordering::Acquire) != seq + 1 {
                lost += 1;
                continue;
            }
            out.push(TraceEvent { seq, kind, a, b });
        }
        if lost > 0 {
            c.dropped.fetch_add(lost, Ordering::Relaxed);
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_order() {
        let ring = TraceRing::with_capacity(16);
        for i in 0..10 {
            ring.push(TraceKind::Custom, i, i * 2);
        }
        let mut out = Vec::new();
        let lost = ring.drain(&mut out);
        assert_eq!(lost, 0);
        assert_eq!(out.len(), 10);
        for (i, ev) in out.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.a, i as u64);
            assert_eq!(ev.b, 2 * i as u64);
            assert_eq!(ev.kind, TraceKind::Custom);
        }
        // Second drain: empty.
        out.clear();
        assert_eq!(ring.drain(&mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let ring = TraceRing::with_capacity(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.push(TraceKind::Custom, i, 0);
        }
        let mut out = Vec::new();
        let lost = ring.drain(&mut out);
        // The newest 8 events survive; 12 were overwritten.
        assert_eq!(out.len(), 8);
        assert_eq!(lost, 12);
        assert_eq!(ring.dropped(), 12);
        assert_eq!(out.first().map(|e| e.a), Some(12));
        assert_eq!(out.last().map(|e| e.a), Some(19));
    }

    #[test]
    fn kinds_roundtrip() {
        for kind in [
            TraceKind::TableSwap,
            TraceKind::Liveness,
            TraceKind::GenerationDecoded,
            TraceKind::RepairBurst,
            TraceKind::Scaling,
            TraceKind::Custom,
        ] {
            assert_eq!(TraceKind::from_code(kind.code()), kind);
            assert!(!kind.name().is_empty());
        }
    }
}
