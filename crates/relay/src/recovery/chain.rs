//! The loopback chain every transfer experiment runs: source → relays
//! → receiver, each relay wired over its control channel.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

use ncvnf_control::signal::VnfRoleWire;
use ncvnf_control::{ForwardingTable, SenderConfig, SignalSender};
use ncvnf_obs::Snapshot;
use ncvnf_rlnc::ObjectEncoder;

use super::{
    send_object_reliable, RecoveryConfig, RecoveryStats, ReliableReceiver, ReliableReport,
    TransferConfig,
};
use crate::chaos::{FaultConfig, FaultSocket, FaultStats};
use crate::metrics::TransferObs;
use crate::node::{RelayConfig, RelayNode, RelayStats};

/// Everything a chain experiment wants to assert on afterwards.
#[derive(Debug)]
pub struct ReliableChainReport {
    /// The receiver's outcome (object, packet count, elapsed, feedback
    /// counters).
    pub receiver: ReliableReport,
    /// The source's recovery counters.
    pub source: RecoveryStats,
    /// Per-relay counters, chain order.
    pub relays: Vec<RelayStats>,
    /// Per-relay fault-injection counters (`None` for clean relays),
    /// chain order.
    pub faults: Vec<Option<FaultStats>>,
    /// Observability snapshot of the shared endpoint registry (source +
    /// receiver `recovery.*`/`rlnc.*` metrics and trace events).
    pub snapshot: Snapshot,
}

/// Builds a source → relays → receiver pipeline on loopback — one relay
/// per entry of `faults`, its data socket wrapped in a [`FaultSocket`]
/// where the entry is set — transfers `object`, and returns the combined
/// report (`None` if the receiver timed out).
///
/// Each relay is configured over its *control channel*
/// ([`RelayNode::wire`]), exactly as the controller would do it;
/// feedback flows receiver → source directly. With
/// `recovery.max_retries == 0` the transfer is best-effort end to end:
/// the source awaits nothing and the receiver is given no feedback peer.
///
/// # Errors
///
/// Propagates socket errors.
///
/// # Panics
///
/// Panics if `object` does not frame.
pub fn reliable_chain(
    config: &TransferConfig,
    recovery: &RecoveryConfig,
    object: &[u8],
    faults: &[Option<FaultConfig>],
    timeout: Duration,
) -> io::Result<Option<ReliableChainReport>> {
    let encoder =
        ObjectEncoder::new(config.generation, config.session, object).expect("valid object");
    let source_socket = UdpSocket::bind(("127.0.0.1", 0))?;
    let feedback_to = (recovery.max_retries > 0).then_some(source_socket.local_addr()?);
    // Both endpoints record into one registry: the chain snapshot is the
    // single source of truth for the transfer's recovery/codec metrics.
    let obs = TransferObs::new();
    let receiver =
        ReliableReceiver::spawn(config, recovery, encoder.generations(), feedback_to, &obs)?;

    let mut relays = Vec::new();
    let mut fault_handles = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        let relay_config = RelayConfig {
            generation: config.generation,
            buffer_generations: 1024,
            seed: config.seed + 100 + i as u64,
            heartbeat: None,
            registry: None,
            ..RelayConfig::default()
        };
        // A clean relay binds its own sockets (one per shard where the
        // kernel can spread them); a faulted one serves every shard from
        // its one fault-wrapped socket.
        let (relay, handle) = match fault {
            Some(fc) => {
                let (data_socket, handle) = FaultSocket::bind_loopback(*fc)?;
                let control_socket = UdpSocket::bind(("127.0.0.1", 0))?;
                let relay = RelayNode::spawn_with(relay_config, data_socket, control_socket)?;
                (relay, Some(handle))
            }
            None => (RelayNode::spawn(relay_config)?, None),
        };
        relays.push(relay);
        fault_handles.push(handle);
    }

    // Wire the chain back to front over the control channel, at epoch 0
    // so any journaled controller can take the relays over.
    let mut sender = SignalSender::new(0, SenderConfig::default())?;
    let mut next = receiver.addr;
    for relay in relays.iter().rev() {
        let mut table = ForwardingTable::new();
        table.set(config.session, vec![next.to_string()]);
        relay
            .wire(&mut sender, config.session, VnfRoleWire::Recoder, &table)
            .map_err(io::Error::other)?;
        next = relay.data_addr;
    }

    let source = send_object_reliable(&source_socket, config, recovery, object, &[next], &obs)?;
    let report = receiver.wait(timeout);
    let relay_stats: Vec<RelayStats> = relays.iter().map(|r| r.handle().stats()).collect();
    let fault_stats: Vec<Option<FaultStats>> = fault_handles
        .iter()
        .map(|h| h.as_ref().map(|h| h.stats()))
        .collect();
    for r in relays {
        r.shutdown();
    }
    let snapshot = obs.snapshot();
    Ok(report.map(|receiver| ReliableChainReport {
        receiver,
        source,
        relays: relay_stats,
        faults: fault_stats,
        snapshot,
    }))
}
