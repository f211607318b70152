//! The per-VNF daemon: the one receiver of control datagrams.
//!
//! "A daemon program runs on each network coding node ... In each new
//! coding node, daemons start along with initial settings ... After a
//! daemon receives the new forwarding table file, it sends `SIGUSR1` ...
//! to temporarily pause its coding function, inform the coding function of
//! the new forwarding table, and then resume" (Sec. III-A).
//!
//! [`Daemon::receive`] takes one datagram's bytes and does everything a
//! receiver does with them, without a socket: decode, answer the
//! `NC_STATS` read before the fence, pass every other frame through the
//! epoch [`Fence`](crate::fence) (DESIGN.md §13), apply what the fence
//! admits — the one forwarding table is parsed and merged here — and
//! write the [`Ack`]. The host (the relay's control thread, or an
//! in-memory fleet in a test) sends that reply and applies the
//! [`DaemonEvent`] it is handed; it keeps no control state of its own.
//!
//! A duplicate of the last applied frame is answered with the reply that
//! frame earned, so a retransmission after a lost reply never turns a
//! rejection into an `OK`. Duplicate `NC_SETTINGS` are idempotent, and
//! `Draining` survives table pushes. The `daemon_properties` integration
//! test drives random signal orderings against these invariants.

use std::collections::HashMap;

use ncvnf_rlnc::SessionId;

use crate::fence::{Admit, Fence};
use crate::fwdtab::ForwardingTable;
use crate::sender::{Ack, Refusal};
use crate::signal::{Signal, SignalError, SignalFrame, VnfRoleWire};

/// Lifecycle state of the daemon's coding function. Its
/// [`code`](Self::code) is the `relay.daemon_state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DaemonState {
    /// No settings received yet.
    #[default]
    Idle,
    /// Coding function configured and processing packets.
    Running,
    /// `NC_VNF_END` received; still forwarding until reused or released.
    Draining,
}

impl DaemonState {
    /// The gauge value: 0 Idle, 1 Running, 3 Draining.
    pub fn code(self) -> u8 {
        match self {
            DaemonState::Idle => 0,
            DaemonState::Running => 1,
            DaemonState::Draining => 3,
        }
    }

    /// The state a gauge value names, if any.
    pub fn from_code(code: u8) -> Option<DaemonState> {
        match code {
            0 => Some(DaemonState::Idle),
            1 => Some(DaemonState::Running),
            3 => Some(DaemonState::Draining),
            _ => None,
        }
    }
}

/// A side effect the hosting process must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonEvent {
    /// (Re)configure the coding function's role for a session.
    ConfigureSession {
        /// Session id.
        session: SessionId,
        /// Role for that session.
        role: VnfRoleWire,
    },
    /// The forwarding table ([`Daemon::table`]) changed; `changed`
    /// entries differ from the previous one.
    TableSwapped {
        /// Entries that changed relative to the previous table.
        changed: usize,
    },
    /// `NC_VNF_END` opened a drain window (a new one even if the daemon
    /// was already draining).
    Drain,
    /// Provision a session's admission quota in the data path.
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

/// What the daemon made of one control datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Received {
    /// The `NC_STATS` read, in either envelope: the host answers with its
    /// snapshot. Nothing passed the fence.
    Stats,
    /// Everything else: the host applies `event`, then sends `ack`.
    Reply {
        /// The fence's verdict; `None` for a frame refused before it.
        admit: Option<Admit>,
        /// The reply to send back.
        ack: Ack,
        /// What the host must apply, if the frame was applied and has a
        /// local effect.
        event: Option<DaemonEvent>,
    },
}

/// The daemon: owns the fence, the last reply, the live forwarding table
/// and the per-session roles.
#[derive(Debug, Default)]
pub struct Daemon {
    state: DaemonState,
    table: ForwardingTable,
    roles: HashMap<SessionId, VnfRoleWire>,
    fence: Fence,
    /// The reply the last applied frame earned.
    last_ack: Option<Ack>,
}

impl Daemon {
    /// A fresh daemon in the [`DaemonState::Idle`] state.
    pub fn new() -> Self {
        Self::default()
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
        self.roles.get(&session).copied()
    }

    /// The highest controller epoch accepted (0 before any frame).
    pub fn epoch(&self) -> u64 {
        self.fence.epoch
    }

    /// The last sequence number applied within [`epoch`](Self::epoch).
    pub fn last_seq(&self) -> u64 {
        self.fence.last_seq
    }

    /// Receives one control datagram: decodes it, fences it, applies it
    /// if admitted, and says what to answer and what the host must do.
    pub fn receive(&mut self, datagram: &[u8]) -> Received {
        let fenced = match SignalFrame::from_bytes(datagram) {
            Ok((SignalFrame::Fenced(f), _)) if f.signal != Signal::NcStats => f,
            Ok(_) => return Received::Stats,
            Err(e) => {
                let reason = match e {
                    SignalError::Unfenced(_) => Refusal::Unfenced,
                    _ => Refusal::BadFrame,
                };
                return Received::Reply {
                    admit: None,
                    ack: Ack::Err { reason, seq: None },
                    event: None,
                };
            }
        };
        let seq = fenced.seq;
        let admit = self.fence.admit(fenced.epoch, seq);
        let mut event = None;
        let ack = match admit {
            Admit::Stale => Ack::Err {
                reason: Refusal::StaleEpoch,
                seq: Some(seq),
            },
            // The last applied frame again gets the reply it earned (until
            // a new epoch applies a frame its only duplicate is seq 0,
            // which no stored reply names). An overtaken one gets OK: its
            // sender has moved on.
            Admit::Duplicate => self
                .last_ack
                .filter(|ack| ack.answers(seq))
                .unwrap_or(Ack::Ok { seq }),
            Admit::Apply => {
                let ack = match self.handle(&fenced.signal) {
                    Ok(applied) => {
                        event = applied;
                        Ack::Ok { seq }
                    }
                    Err(reason) => Ack::Err {
                        reason,
                        seq: Some(seq),
                    },
                };
                self.last_ack = Some(ack);
                ack
            }
        };
        Received::Reply {
            admit: Some(admit),
            ack,
            event,
        }
    }

    /// Applies one control signal and returns the side effect the host
    /// must perform, if any.
    ///
    /// # Errors
    ///
    /// [`Refusal::BadTable`] for an `NC_FORWARD_TAB` whose table does not
    /// parse; nothing changes.
    pub fn handle(&mut self, signal: &Signal) -> Result<Option<DaemonEvent>, Refusal> {
        Ok(match signal {
            Signal::NcSettings { session, role, .. } => {
                self.roles.insert(*session, *role);
                // New work cancels a pending drain (VNF reuse).
                self.state = DaemonState::Running;
                Some(DaemonEvent::ConfigureSession {
                    session: *session,
                    role: *role,
                })
            }
            Signal::NcForwardTab { table } => {
                // Updates are deltas: only the changed entries are
                // shipped (Table III's "update percentage").
                let update = ForwardingTable::parse(table).map_err(|_| Refusal::BadTable)?;
                let changed = self.table.merge(&update);
                if self.state == DaemonState::Idle {
                    self.state = DaemonState::Running;
                }
                Some(DaemonEvent::TableSwapped { changed })
            }
            Signal::NcVnfEnd { .. } => {
                self.state = DaemonState::Draining;
                Some(DaemonEvent::Drain)
            }
            // Quotas do not change the lifecycle state: a draining or
            // idle daemon can still be (re)provisioned.
            Signal::NcQuota {
                session,
                rate_pps,
                burst,
                ..
            } => Some(DaemonEvent::ProvisionQuota {
                session: *session,
                rate_pps: *rate_pps,
                burst: *burst,
            }),
            // NC_START has no local effect on a relay, NC_VNF_START is
            // controller-to-cloud-API, and NC_STATS is answered by the
            // host.
            Signal::NcStart { .. } | Signal::NcVnfStart { .. } | Signal::NcStats => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::FencedSignal;

    fn settings(session: u16) -> Signal {
        Signal::NcSettings {
            session: SessionId::new(session),
            role: VnfRoleWire::Recoder,
            data_port: 4000,
            block_size: 1460,
            generation_size: 4,
            buffer_generations: 1024,
        }
    }

    fn fenced(epoch: u64, seq: u64, signal: Signal) -> Vec<u8> {
        FencedSignal { epoch, seq, signal }.to_bytes().to_vec()
    }

    fn ack_of(received: Received) -> Ack {
        match received {
            Received::Reply { ack, .. } => ack,
            Received::Stats => panic!("a reply, not a stats read"),
        }
    }

    #[test]
    fn settings_then_start_reaches_running() {
        let mut d = Daemon::new();
        assert_eq!(d.state(), DaemonState::Idle);
        let ev = d.handle(&settings(1));
        assert!(matches!(ev, Ok(Some(DaemonEvent::ConfigureSession { .. }))));
        assert_eq!(d.state(), DaemonState::Running);
        assert_eq!(d.role(SessionId::new(1)), Some(VnfRoleWire::Recoder));
        let ev = d.handle(&Signal::NcStart {
            session: SessionId::new(1),
        });
        assert_eq!(ev, Ok(None));
        assert_eq!(d.state(), DaemonState::Running);
    }

    #[test]
    fn table_swap_merges_the_delta() {
        let mut d = Daemon::new();
        d.handle(&settings(1)).unwrap();
        let ev = d.handle(&Signal::NcForwardTab {
            table: "session 1 a:1 b:2\n".into(),
        });
        assert_eq!(ev, Ok(Some(DaemonEvent::TableSwapped { changed: 1 })));
        assert_eq!(d.state(), DaemonState::Running);
        assert_eq!(
            d.table().next_hops(SessionId::new(1)).unwrap(),
            ["a:1", "b:2"]
        );
    }

    #[test]
    fn bad_table_is_ignored() {
        let mut d = Daemon::new();
        d.handle(&settings(1)).unwrap();
        let ev = d.handle(&Signal::NcForwardTab {
            table: "garbage".into(),
        });
        assert_eq!(ev, Err(Refusal::BadTable));
        assert!(d.table().is_empty());
    }

    #[test]
    fn quota_signal_emits_provision_event_without_state_change() {
        let mut d = Daemon::new();
        let ev = d.handle(&Signal::NcQuota {
            session: SessionId::new(5),
            rate_pps: 1000,
            burst: 64,
            priority: 1,
        });
        assert_eq!(
            ev,
            Ok(Some(DaemonEvent::ProvisionQuota {
                session: SessionId::new(5),
                rate_pps: 1000,
                burst: 64,
            }))
        );
        assert_eq!(d.state(), DaemonState::Idle, "quota leaves lifecycle alone");
    }

    #[test]
    fn reuse_cancels_drain() {
        let mut d = Daemon::new();
        d.handle(&settings(1)).unwrap();
        let ev = d.handle(&Signal::NcVnfEnd { tau_secs: 600 });
        assert_eq!(ev, Ok(Some(DaemonEvent::Drain)));
        assert_eq!(d.state(), DaemonState::Draining);
        // New settings arrive within τ: the VNF is reused.
        d.handle(&settings(2)).unwrap();
        assert_eq!(d.state(), DaemonState::Running);
    }

    #[test]
    fn state_codes_round_trip_and_keep_their_numbers() {
        for (state, code) in [
            (DaemonState::Idle, 0),
            (DaemonState::Running, 1),
            (DaemonState::Draining, 3),
        ] {
            assert_eq!(state.code(), code);
            assert_eq!(DaemonState::from_code(code), Some(state));
        }
        assert_eq!(DaemonState::from_code(2), None);
        assert_eq!(DaemonState::from_code(4), None);
    }

    #[test]
    fn a_duplicate_gets_the_reply_its_frame_earned() {
        let mut d = Daemon::new();
        let bad = fenced(
            1,
            1,
            Signal::NcForwardTab {
                table: "garbage".into(),
            },
        );
        let first = d.receive(&bad);
        assert_eq!(ack_of(first).to_string(), "ERR bad-table 1");
        let again = d.receive(&bad);
        assert_eq!(
            again,
            Received::Reply {
                admit: Some(Admit::Duplicate),
                ack: ack_of(first),
                event: None,
            }
        );
        let good = fenced(1, 2, settings(1));
        assert!(matches!(
            d.receive(&good),
            Received::Reply {
                admit: Some(Admit::Apply),
                ack: Ack::Ok { seq: 2 },
                event: Some(DaemonEvent::ConfigureSession { .. }),
            }
        ));
        assert_eq!(ack_of(d.receive(&good)), Ack::Ok { seq: 2 });
        // Overtaken: its sender has moved on, an OK stops a stray retry.
        assert_eq!(ack_of(d.receive(&bad)), Ack::Ok { seq: 1 });
        // A new epoch starts with no reply to repeat.
        assert_eq!(
            ack_of(d.receive(&fenced(2, 0, settings(1)))),
            Ack::Ok { seq: 0 }
        );
        assert_eq!(
            ack_of(d.receive(&fenced(1, 3, settings(1)))).to_string(),
            "ERR stale-epoch 3"
        );
    }
}
