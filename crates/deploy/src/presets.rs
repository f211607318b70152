//! Evaluation topologies.
//!
//! The paper rents VMs in six North-American data centers: Amazon EC2 in
//! California, Oregon and Virginia, and Linode in Texas, Georgia and New
//! Jersey. Endpoints (sources/receivers) are "distributed uniformly
//! randomly across the six data centers" — modelled here as endpoints
//! colocated with a data center plus a small access delay.

use ncvnf_flowgraph::NodeId;
use ncvnf_rlnc::SessionId;

use crate::model::{SessionSpec, Topology, TopologyBuilder, VnfSpec};

/// Names of the six data centers, in index order.
pub const DC_NAMES: [&str; 6] = [
    "ec2-california",
    "ec2-oregon",
    "ec2-virginia",
    "linode-texas",
    "linode-georgia",
    "linode-newjersey",
];

/// Approximate one-way inter-DC delays in milliseconds (symmetric),
/// consistent with the ping measurements reported in Table II (e.g. the
/// Virginia–Oregon direct RTT of ≈90.9 ms).
const DC_DELAYS_MS: [[f64; 6]; 6] = [
    // CA     OR     VA     TX     GA     NJ
    [0.0, 10.0, 38.5, 20.0, 28.0, 37.0], // CA
    [10.0, 0.0, 45.4, 25.0, 33.0, 40.0], // OR
    [38.5, 45.4, 0.0, 18.0, 8.0, 4.0],   // VA
    [20.0, 25.0, 18.0, 0.0, 12.0, 20.0], // TX
    [28.0, 33.0, 8.0, 12.0, 0.0, 10.0],  // GA
    [37.0, 40.0, 4.0, 20.0, 10.0, 0.0],  // NJ
];

/// Delay between an endpoint and its colocated data center.
const ACCESS_DELAY_MS: f64 = 2.0;

/// The six-DC planner topology with a full inter-DC mesh.
pub struct NorthAmerica {
    /// The topology (grows as endpoints are attached).
    pub builder: TopologyBuilder,
    /// Data-center node ids, index-aligned with [`DC_NAMES`].
    pub dcs: Vec<NodeId>,
}

impl NorthAmerica {
    /// Builds the six data centers and the full mesh between them.
    ///
    /// EC2 sites use the `C3.xlarge` VNF profile, Linode sites the Linode
    /// profile (125 Mbps out), exactly as rented in the paper.
    pub fn new() -> Self {
        let mut b = TopologyBuilder::new();
        let mut dcs = Vec::with_capacity(6);
        for (i, name) in DC_NAMES.iter().enumerate() {
            let spec = if i < 3 {
                VnfSpec::ec2_c3_xlarge()
            } else {
                VnfSpec::linode()
            };
            dcs.push(b.data_center(*name, spec));
        }
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    b.link(dcs[i], dcs[j], DC_DELAYS_MS[i][j]);
                }
            }
        }
        NorthAmerica { builder: b, dcs }
    }

    /// Attaches a source colocated with data center `dc_index`, linked to
    /// every data center (and usable for direct endpoint links later).
    ///
    /// # Panics
    ///
    /// Panics if `dc_index` is out of range.
    pub fn add_source(&mut self, name: impl Into<String>, dc_index: usize, out_bps: f64) -> NodeId {
        self.add_source_with_access(name, dc_index, out_bps, ACCESS_DELAY_MS)
    }

    /// Like [`NorthAmerica::add_source`] with an explicit access delay
    /// (end hosts behind access networks rather than colocated VMs).
    ///
    /// # Panics
    ///
    /// Panics if `dc_index` is out of range.
    pub fn add_source_with_access(
        &mut self,
        name: impl Into<String>,
        dc_index: usize,
        out_bps: f64,
        access_ms: f64,
    ) -> NodeId {
        assert!(dc_index < 6, "dc index out of range");
        let s = self.builder.source(name, out_bps);
        for (j, &dc) in self.dcs.clone().iter().enumerate() {
            let d = access_ms + DC_DELAYS_MS[dc_index][j];
            self.builder.link(s, dc, d);
        }
        s
    }

    /// Attaches a receiver colocated with data center `dc_index`.
    ///
    /// # Panics
    ///
    /// Panics if `dc_index` is out of range.
    pub fn add_receiver(
        &mut self,
        name: impl Into<String>,
        dc_index: usize,
        in_bps: f64,
    ) -> NodeId {
        self.add_receiver_with_access(name, dc_index, in_bps, ACCESS_DELAY_MS)
    }

    /// Like [`NorthAmerica::add_receiver`] with an explicit access delay.
    ///
    /// # Panics
    ///
    /// Panics if `dc_index` is out of range.
    pub fn add_receiver_with_access(
        &mut self,
        name: impl Into<String>,
        dc_index: usize,
        in_bps: f64,
        access_ms: f64,
    ) -> NodeId {
        assert!(dc_index < 6, "dc index out of range");
        let r = self.builder.receiver(name, in_bps);
        for (j, &dc) in self.dcs.clone().iter().enumerate() {
            let d = access_ms + DC_DELAYS_MS[dc_index][j];
            self.builder.link(dc, r, d);
        }
        r
    }

    /// Adds a direct source→receiver link (both endpoints colocated with
    /// the given DC indices).
    pub fn add_direct(&mut self, source: NodeId, src_dc: usize, receiver: NodeId, dst_dc: usize) {
        self.add_direct_with_access(source, src_dc, receiver, dst_dc, ACCESS_DELAY_MS);
    }

    /// Like [`NorthAmerica::add_direct`] with an explicit per-endpoint
    /// access delay.
    pub fn add_direct_with_access(
        &mut self,
        source: NodeId,
        src_dc: usize,
        receiver: NodeId,
        dst_dc: usize,
        access_ms: f64,
    ) {
        let d = 2.0 * access_ms + DC_DELAYS_MS[src_dc][dst_dc];
        self.builder.link(source, receiver, d);
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        self.builder.build()
    }
}

impl Default for NorthAmerica {
    fn default() -> Self {
        Self::new()
    }
}

/// A randomized multi-session workload on the six-DC topology, matching
/// Sec. V-C: "six multicast sessions, each with a uniformly random number
/// of receivers in the range [1, 4]; sources and receivers are
/// distributed uniformly randomly across the six data centers".
pub struct Workload {
    /// The finished topology.
    pub topology: Topology,
    /// The session specs (all six; callers activate a prefix/subset).
    pub sessions: Vec<SessionSpec>,
}

/// Builds the randomized workload with `n_sessions` sessions, a fixed
/// endpoint bandwidth, and a max tolerable delay per session.
///
/// Deterministic in `seed`.
pub fn random_workload(
    n_sessions: usize,
    endpoint_bps: f64,
    max_delay_ms: f64,
    seed: u64,
) -> Workload {
    // Small deterministic LCG so this preset does not depend on `rand`.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = |bound: usize| -> usize {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let mut na = NorthAmerica::new();
    let mut sessions = Vec::with_capacity(n_sessions);
    for m in 0..n_sessions {
        let src_dc = next(6);
        let source = na.add_source(format!("s{m}"), src_dc, endpoint_bps);
        let n_rx = 1 + next(4); // uniform in [1, 4]
        let mut receivers = Vec::with_capacity(n_rx);
        for k in 0..n_rx {
            let dst_dc = next(6);
            let r = na.add_receiver(format!("d{m}_{k}"), dst_dc, endpoint_bps);
            na.add_direct(source, src_dc, r, dst_dc);
            receivers.push(r);
        }
        sessions.push(SessionSpec::elastic(
            SessionId::new(m as u16),
            source,
            receivers,
            max_delay_ms,
        ));
    }
    Workload {
        topology: na.build(),
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_dc_mesh_is_complete() {
        let na = NorthAmerica::new();
        let topo = na.build();
        assert_eq!(topo.data_centers().len(), 6);
        assert_eq!(topo.graph.edge_count(), 30); // 6*5 directed
    }

    #[test]
    fn workload_is_deterministic_and_in_range() {
        let w1 = random_workload(6, 920e6, 150.0, 42);
        let w2 = random_workload(6, 920e6, 150.0, 42);
        assert_eq!(w1.sessions.len(), 6);
        for (a, b) in w1.sessions.iter().zip(&w2.sessions) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.receivers, b.receivers);
            assert!(!a.receivers.is_empty() && a.receivers.len() <= 4);
        }
        let w3 = random_workload(6, 920e6, 150.0, 43);
        let same = w1
            .sessions
            .iter()
            .zip(&w3.sessions)
            .all(|(a, b)| a.receivers.len() == b.receivers.len());
        // Different seeds almost surely differ somewhere.
        let src_same = w1
            .sessions
            .iter()
            .zip(&w3.sessions)
            .all(|(a, b)| a.source == b.source);
        assert!(!(same && src_same), "seeds produced identical workloads");
    }

    #[test]
    fn delay_matrix_is_symmetric_with_zero_diagonal() {
        for (i, row) in DC_DELAYS_MS.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &delay) in row.iter().enumerate() {
                assert_eq!(delay, DC_DELAYS_MS[j][i]);
            }
        }
    }
}
