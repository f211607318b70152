//! Simple reusable sinks.

use crate::node::{Context, NodeBehavior};
use crate::packet::Datagram;
use crate::time::SimTime;

/// Counts packets and bytes delivered to it; remembers arrival times.
#[derive(Debug, Default)]
pub struct CountingSink {
    packets: u64,
    bytes: u64,
    arrivals: Vec<SimTime>,
    /// When true, arrival timestamps are recorded (costs memory on long
    /// runs).
    record_arrivals: bool,
}

impl CountingSink {
    /// A sink that records every arrival time.
    pub fn new() -> Self {
        CountingSink {
            record_arrivals: true,
            ..Default::default()
        }
    }

    /// A sink that only counts (no per-packet timestamps).
    pub fn counting_only() -> Self {
        CountingSink::default()
    }

    /// Packets received.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Recorded arrival times (empty unless created with
    /// [`CountingSink::new`]).
    pub fn arrivals(&self) -> &[SimTime] {
        &self.arrivals
    }

    /// First recorded arrival, if any.
    pub fn first_arrival(&self) -> Option<SimTime> {
        self.arrivals.first().copied()
    }
}

impl NodeBehavior for CountingSink {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        self.packets += 1;
        self.bytes += dgram.payload.len() as u64;
        if self.record_arrivals {
            self.arrivals.push(ctx.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, LinkConfig, SimDuration, SimNodeId, SimTime, Simulator};
    use bytes::Bytes;

    struct OneShot;
    impl NodeBehavior for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(Addr::new(SimNodeId(1), 5), 1, Bytes::from_static(b"xyz"));
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {}
    }

    #[test]
    fn counting_only_skips_timestamps() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", OneShot);
        let b = sim.add_node("b", CountingSink::counting_only());
        sim.add_link(a, b, LinkConfig::new(1e9, SimDuration::ZERO));
        sim.run_until(SimTime::from_secs(1));
        let s = sim.node_as::<CountingSink>(b).unwrap();
        assert_eq!(s.packets(), 1);
        assert_eq!(s.bytes(), 3);
        assert!(s.arrivals().is_empty());
        assert!(s.first_arrival().is_none());
    }
}
