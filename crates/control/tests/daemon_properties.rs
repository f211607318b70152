//! Property-based tests for the daemon state machine under hostile
//! signal orderings.
//!
//! Epoch fencing (DESIGN.md §13) deduplicates and orders signals on the
//! relay control loop, but the `Daemon` state machine itself must also
//! survive whatever slips through — controller restarts replay journals,
//! retried pushes arrive twice, and a reconciler may re-send settings a
//! node already has. These tests drive random signal sequences through a
//! `Daemon` and assert the invariants that hold regardless of order.

use ncvnf_control::signal::{Signal, VnfRoleWire};
use ncvnf_control::{Daemon, DaemonEvent, DaemonState};
use ncvnf_rlnc::SessionId;
use proptest::prelude::*;

fn arb_role() -> impl Strategy<Value = VnfRoleWire> {
    prop_oneof![
        Just(VnfRoleWire::Decoder),
        Just(VnfRoleWire::Forwarder),
        Just(VnfRoleWire::Recoder),
    ]
}

/// Daemon-facing signals, weighted toward the interesting transitions.
/// Tables are sometimes valid, sometimes garbage; sessions collide on a
/// tiny id space so duplicates and re-configures are common.
fn arb_signal() -> impl Strategy<Value = Signal> {
    prop_oneof![
        (0u16..4).prop_map(|s| Signal::NcStart {
            session: SessionId::new(s)
        }),
        (0u16..4, arb_role(), 1u32..4096).prop_map(|(s, role, buf)| Signal::NcSettings {
            session: SessionId::new(s),
            role,
            data_port: 4000,
            block_size: 1460,
            generation_size: 4,
            buffer_generations: buf,
        }),
        (1u32..600).prop_map(|tau_secs| Signal::NcVnfEnd { tau_secs }),
        prop_oneof![
            (0u16..4, "[a-z]{1,6}").prop_map(|(s, hop)| Signal::NcForwardTab {
                table: format!("session {s} {hop}:1\n"),
            }),
            "[^s][a-z ]{0,20}".prop_map(|junk| Signal::NcForwardTab { table: junk }),
        ],
        Just(Signal::NcStats),
        ("[a-z]{1,8}", 1u32..8).prop_map(|(dc, count)| Signal::NcVnfStart {
            data_center: dc,
            count,
        }),
    ]
}

proptest! {
    /// Any signal sequence leaves the daemon in a coherent state: no
    /// panics, `Paused` never outlives a `handle` call, the signal
    /// counter is exact, and a shutdown deadline exists iff draining.
    #[test]
    fn random_sequences_never_panic_or_wedge(
        sigs in prop::collection::vec(arb_signal(), 0..64),
    ) {
        let mut d = Daemon::new();
        for (i, sig) in sigs.iter().enumerate() {
            let events = d.handle(sig, i as f64);
            // Paused is transient inside NcForwardTab handling; between
            // signals the daemon is always resumed (or
            // idle/draining/stopped).
            prop_assert_ne!(d.state(), DaemonState::Paused);
            // A successful swap always brackets the table change with
            // pause/resume, so the host's SIGUSR1 dance stays balanced.
            let pauses = events.iter().filter(|e| **e == DaemonEvent::Paused).count();
            let resumes = events.iter().filter(|e| **e == DaemonEvent::Resumed).count();
            prop_assert_eq!(pauses, resumes);
            // The shutdown deadline tracks exactly the Draining state.
            prop_assert_eq!(d.shutdown_at().is_some(), d.state() == DaemonState::Draining);
        }
        prop_assert_eq!(d.signals_handled(), sigs.len() as u64);
    }

    /// `Stopped` absorbs: once a drain deadline passes, every further
    /// signal is a silent no-op — no events, no state change, no table
    /// mutation.
    #[test]
    fn stopped_absorbs_every_signal(sigs in prop::collection::vec(arb_signal(), 1..32)) {
        let mut d = Daemon::new();
        d.handle(&Signal::NcVnfEnd { tau_secs: 1 }, 0.0);
        prop_assert!(d.tick(2.0));
        prop_assert_eq!(d.state(), DaemonState::Stopped);
        let table_before = d.table().to_text();
        for (i, sig) in sigs.iter().enumerate() {
            let events = d.handle(sig, 10.0 + i as f64);
            prop_assert!(events.is_empty(), "stopped daemon emitted {:?}", events);
            prop_assert_eq!(d.state(), DaemonState::Stopped);
        }
        prop_assert_eq!(d.table().to_text(), table_before);
        prop_assert!(!d.tick(1e9));
    }

    /// `Draining` is sticky against everything except fresh settings
    /// (VNF reuse) and the deadline itself: table pushes and duplicate
    /// `NC_VNF_END`s keep the daemon draining.
    #[test]
    fn draining_only_exits_via_settings_or_deadline(
        sigs in prop::collection::vec(arb_signal(), 0..32),
    ) {
        let mut d = Daemon::new();
        d.handle(
            &Signal::NcSettings {
                session: SessionId::new(1),
                role: VnfRoleWire::Forwarder,
                data_port: 4000,
                block_size: 1460,
                generation_size: 4,
                buffer_generations: 64,
            },
            0.0,
        );
        d.handle(&Signal::NcVnfEnd { tau_secs: 600 }, 1.0);
        prop_assert_eq!(d.state(), DaemonState::Draining);
        let mut reused = false;
        for (i, sig) in sigs.iter().enumerate() {
            d.handle(sig, 2.0 + i as f64);
            match sig {
                Signal::NcSettings { .. } => reused = true,
                Signal::NcVnfEnd { .. } => reused = false,
                _ => {}
            }
            let expected = if reused {
                DaemonState::Running
            } else {
                DaemonState::Draining
            };
            prop_assert_eq!(d.state(), expected);
        }
    }

    /// Re-sending identical `NC_SETTINGS` (a reconciler retry, or a
    /// duplicate that slipped past fencing) is idempotent: the daemon
    /// stays `Running` and re-emits the same configure event each time.
    #[test]
    fn duplicate_settings_keep_running(n in 1usize..8) {
        let sig = Signal::NcSettings {
            session: SessionId::new(3),
            role: VnfRoleWire::Recoder,
            data_port: 4001,
            block_size: 1460,
            generation_size: 8,
            buffer_generations: 128,
        };
        let mut d = Daemon::new();
        let first = d.handle(&sig, 0.0);
        for i in 0..n {
            let again = d.handle(&sig, 1.0 + i as f64);
            prop_assert_eq!(&again, &first);
            prop_assert_eq!(d.state(), DaemonState::Running);
            prop_assert_eq!(d.role(SessionId::new(3)), Some(VnfRoleWire::Recoder));
        }
    }

    /// `NC_FORWARD_TAB` before any settings is legal: the daemon adopts
    /// the table and runs, ready for settings to arrive late (the
    /// controller may push topology before per-session configs).
    #[test]
    fn forward_tab_before_settings_is_safe(s in 0u16..8, hop in "[a-z]{1,6}") {
        let mut d = Daemon::new();
        let ev = d.handle(
            &Signal::NcForwardTab {
                table: format!("session {s} {hop}:9\n"),
            },
            0.0,
        );
        prop_assert_eq!(
            ev,
            vec![
                DaemonEvent::Paused,
                DaemonEvent::TableSwapped { changed: 1 },
                DaemonEvent::Resumed,
            ]
        );
        prop_assert_eq!(d.state(), DaemonState::Running);
        let hops = d.table().next_hops(SessionId::new(s)).unwrap().to_vec();
        prop_assert_eq!(hops, vec![format!("{hop}:9")]);
    }
}
