//! The per-VNF daemon state machine.
//!
//! "A daemon program runs on each network coding node ... In each new
//! coding node, daemons start along with initial settings ... After a
//! daemon receives the new forwarding table file, it sends `SIGUSR1` ...
//! to temporarily pause its coding function, inform the coding function of
//! the new forwarding table, and then resume" (Sec. III-A).
//!
//! This state machine is transport-agnostic: it consumes [`Signal`]s and
//! emits [`DaemonEvent`]s that the hosting process (simulated node or real
//! UDP relay) acts on.
//!
//! Ordering and duplicate suppression are the transport's job — the relay
//! control loop fences frames by controller epoch and sequence number
//! (DESIGN.md §13) — but the daemon is still written to absorb whatever
//! slips through: duplicate `NC_SETTINGS` are idempotent, `Draining`
//! survives table pushes, and `Stopped` ignores everything. The
//! `daemon_properties` integration test drives random signal orderings
//! against these invariants.

use std::collections::HashMap;

use ncvnf_rlnc::SessionId;

use crate::fwdtab::ForwardingTable;
use crate::signal::{Signal, VnfRoleWire};

/// Lifecycle state of the daemon's coding function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonState {
    /// No settings received yet; packets are dropped.
    Idle,
    /// Coding function configured and processing packets.
    Running,
    /// Coding function paused for a forwarding-table swap.
    Paused,
    /// `NC_VNF_END` received; still alive until the deadline for reuse.
    Draining,
    /// Shut down.
    Stopped,
}

/// Side effects the hosting process must perform.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonEvent {
    /// (Re)configure the coding function for a session.
    ConfigureSession {
        /// Session id.
        session: SessionId,
        /// Role for that session.
        role: VnfRoleWire,
        /// Data port to bind.
        data_port: u16,
        /// Block size in bytes.
        block_size: u32,
        /// Blocks per generation.
        generation_size: u32,
        /// Buffer capacity in generations.
        buffer_generations: u32,
    },
    /// Begin coded transmission for a session.
    StartSession {
        /// Session id.
        session: SessionId,
    },
    /// The coding function paused (table swap in progress).
    Paused,
    /// The forwarding table was replaced; `changed` entries differ.
    TableSwapped {
        /// Entries that changed relative to the previous table.
        changed: usize,
    },
    /// The coding function resumed after a swap.
    Resumed,
    /// Shut down the VM at `deadline_secs` (daemon-local clock).
    ScheduleShutdown {
        /// Absolute daemon-clock time of the shutdown.
        deadline_secs: f64,
    },
    /// Provision a session's admission quota in the data path (fan the
    /// budget out to every shard's admission table).
    ProvisionQuota {
        /// Session the quota applies to (0 = the default bucket for
        /// unprovisioned sessions).
        session: SessionId,
        /// Token-bucket refill rate, packets per second (0 = block).
        rate_pps: u32,
        /// Bucket depth in packets.
        burst: u32,
    },
}

/// The daemon: owns the live forwarding table and session settings.
#[derive(Debug)]
pub struct Daemon {
    state: DaemonState,
    table: ForwardingTable,
    settings: HashMap<SessionId, (VnfRoleWire, u16)>,
    shutdown_at: Option<f64>,
    signals_handled: u64,
}

impl Default for Daemon {
    fn default() -> Self {
        Self::new()
    }
}

impl Daemon {
    /// A fresh daemon in the [`DaemonState::Idle`] state.
    pub fn new() -> Self {
        Daemon {
            state: DaemonState::Idle,
            table: ForwardingTable::new(),
            settings: HashMap::new(),
            shutdown_at: None,
            signals_handled: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DaemonState {
        self.state
    }

    /// The live forwarding table.
    pub fn table(&self) -> &ForwardingTable {
        &self.table
    }

    /// Configured role for a session, if any.
    pub fn role(&self, session: SessionId) -> Option<VnfRoleWire> {
        self.settings.get(&session).map(|&(r, _)| r)
    }

    /// Signals processed so far.
    pub fn signals_handled(&self) -> u64 {
        self.signals_handled
    }

    /// Pending shutdown deadline (daemon clock), if draining.
    pub fn shutdown_at(&self) -> Option<f64> {
        self.shutdown_at
    }

    /// Processes one control signal at daemon-clock time `now` and returns
    /// the side effects in order.
    pub fn handle(&mut self, signal: &Signal, now: f64) -> Vec<DaemonEvent> {
        self.signals_handled += 1;
        if self.state == DaemonState::Stopped {
            return Vec::new();
        }
        match signal {
            Signal::NcSettings {
                session,
                role,
                data_port,
                block_size,
                generation_size,
                buffer_generations,
            } => {
                self.settings.insert(*session, (*role, *data_port));
                // New work cancels a pending drain (VNF reuse).
                if self.state == DaemonState::Draining {
                    self.shutdown_at = None;
                }
                if self.state != DaemonState::Paused {
                    self.state = DaemonState::Running;
                }
                vec![DaemonEvent::ConfigureSession {
                    session: *session,
                    role: *role,
                    data_port: *data_port,
                    block_size: *block_size,
                    generation_size: *generation_size,
                    buffer_generations: *buffer_generations,
                }]
            }
            Signal::NcStart { session } => {
                vec![DaemonEvent::StartSession { session: *session }]
            }
            Signal::NcForwardTab { table } => match ForwardingTable::parse(table) {
                Ok(new_table) => {
                    // Pause → merge the delta → resume, the SIGUSR1
                    // sequence. Updates are deltas: only the changed
                    // entries are shipped (Table III's "update
                    // percentage").
                    let was = self.state;
                    self.state = DaemonState::Paused;
                    let changed = self.table.merge(&new_table);
                    self.state = if was == DaemonState::Draining {
                        DaemonState::Draining
                    } else {
                        DaemonState::Running
                    };
                    vec![
                        DaemonEvent::Paused,
                        DaemonEvent::TableSwapped { changed },
                        DaemonEvent::Resumed,
                    ]
                }
                Err(_) => Vec::new(),
            },
            Signal::NcVnfEnd { tau_secs } => {
                self.state = DaemonState::Draining;
                let deadline = now + *tau_secs as f64;
                self.shutdown_at = Some(deadline);
                vec![DaemonEvent::ScheduleShutdown {
                    deadline_secs: deadline,
                }]
            }
            // NC_VNF_START is controller-to-cloud-API, not daemon-facing.
            Signal::NcVnfStart { .. } => Vec::new(),
            // NC_STATS is a read-only query; the transport layer builds
            // the snapshot reply, the daemon state machine is untouched.
            Signal::NcStats => Vec::new(),
            // Quotas do not change the lifecycle state: a draining or
            // idle daemon can still be (re)provisioned, and the hosting
            // process applies the budget to its data path.
            Signal::NcQuota {
                session,
                rate_pps,
                burst,
                ..
            } => vec![DaemonEvent::ProvisionQuota {
                session: *session,
                rate_pps: *rate_pps,
                burst: *burst,
            }],
        }
    }

    /// Advances the daemon clock; returns true if the daemon shut down.
    pub fn tick(&mut self, now: f64) -> bool {
        if let Some(deadline) = self.shutdown_at {
            if self.state == DaemonState::Draining && now >= deadline {
                self.state = DaemonState::Stopped;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(session: u16) -> Signal {
        Signal::NcSettings {
            session: SessionId::new(session),
            role: VnfRoleWire::Encoder,
            data_port: 4000,
            block_size: 1460,
            generation_size: 4,
            buffer_generations: 1024,
        }
    }

    #[test]
    fn settings_then_start_reaches_running() {
        let mut d = Daemon::new();
        assert_eq!(d.state(), DaemonState::Idle);
        let ev = d.handle(&settings(1), 0.0);
        assert!(matches!(ev[0], DaemonEvent::ConfigureSession { .. }));
        assert_eq!(d.state(), DaemonState::Running);
        assert_eq!(d.role(SessionId::new(1)), Some(VnfRoleWire::Encoder));
        let ev = d.handle(
            &Signal::NcStart {
                session: SessionId::new(1),
            },
            1.0,
        );
        assert_eq!(
            ev,
            vec![DaemonEvent::StartSession {
                session: SessionId::new(1)
            }]
        );
    }

    #[test]
    fn table_swap_pauses_and_resumes() {
        let mut d = Daemon::new();
        d.handle(&settings(1), 0.0);
        let ev = d.handle(
            &Signal::NcForwardTab {
                table: "session 1 a:1 b:2\n".into(),
            },
            1.0,
        );
        assert_eq!(ev[0], DaemonEvent::Paused);
        assert_eq!(ev[1], DaemonEvent::TableSwapped { changed: 1 });
        assert_eq!(ev[2], DaemonEvent::Resumed);
        assert_eq!(d.state(), DaemonState::Running);
        assert_eq!(
            d.table().next_hops(SessionId::new(1)).unwrap(),
            ["a:1", "b:2"]
        );
    }

    #[test]
    fn bad_table_is_ignored() {
        let mut d = Daemon::new();
        d.handle(&settings(1), 0.0);
        let ev = d.handle(
            &Signal::NcForwardTab {
                table: "garbage".into(),
            },
            1.0,
        );
        assert!(ev.is_empty());
        assert!(d.table().is_empty());
    }

    #[test]
    fn vnf_end_drains_then_stops_after_tau() {
        let mut d = Daemon::new();
        d.handle(&settings(1), 0.0);
        let ev = d.handle(&Signal::NcVnfEnd { tau_secs: 600 }, 100.0);
        assert_eq!(
            ev,
            vec![DaemonEvent::ScheduleShutdown {
                deadline_secs: 700.0
            }]
        );
        assert_eq!(d.state(), DaemonState::Draining);
        assert!(!d.tick(500.0));
        assert!(d.tick(700.0));
        assert_eq!(d.state(), DaemonState::Stopped);
        // Stopped daemons ignore everything.
        assert!(d.handle(&settings(2), 701.0).is_empty());
    }

    #[test]
    fn quota_signal_emits_provision_event_without_state_change() {
        let mut d = Daemon::new();
        let ev = d.handle(
            &Signal::NcQuota {
                session: SessionId::new(5),
                rate_pps: 1000,
                burst: 64,
                priority: 1,
            },
            0.0,
        );
        assert_eq!(
            ev,
            vec![DaemonEvent::ProvisionQuota {
                session: SessionId::new(5),
                rate_pps: 1000,
                burst: 64,
            }]
        );
        assert_eq!(d.state(), DaemonState::Idle, "quota leaves lifecycle alone");
    }

    #[test]
    fn reuse_cancels_drain() {
        let mut d = Daemon::new();
        d.handle(&settings(1), 0.0);
        d.handle(&Signal::NcVnfEnd { tau_secs: 600 }, 10.0);
        assert_eq!(d.state(), DaemonState::Draining);
        // New settings arrive within τ: the VNF is reused.
        d.handle(&settings(2), 50.0);
        assert_eq!(d.state(), DaemonState::Running);
        assert!(d.shutdown_at().is_none());
        assert!(!d.tick(10_000.0));
    }
}
