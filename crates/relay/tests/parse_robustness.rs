//! Property-based hardening of every parse path the relay data and
//! control sockets expose to the network.
//!
//! The chaos harness now corrupts and truncates live datagrams
//! (`FaultConfig::with_corrupt` / `with_truncate`), so every decoder a
//! hostile byte string can reach must be total: parse or typed error,
//! never a panic — and the dispatch rules (feedback magic first, then
//! the NC header peek) must never misroute a frame of one kind into the
//! parser of another. The kind bytes of the retired sliding-window
//! framing (2: data, 3: ack) are refused by the one data parser
//! ([`PacketView::parse`]) and, on a live relay, counted once as
//! malformed and never forwarded. On the control socket the door is as
//! narrow: a bare frame of any state-changing tag is refused with
//! `ERR unfenced` and never reaches the daemon, and only the `NC_STATS`
//! read is answered without a fence.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use ncvnf_control::signal::{FencedSignal, Signal, SignalError, SignalFrame, VnfRoleWire};
use ncvnf_control::{DaemonState, ForwardingTable, SenderConfig, SignalSender};
use ncvnf_dataplane::{Feedback, FEEDBACK_MAGIC};
use ncvnf_relay::{RelayConfig, RelayHandle, RelayNode};

use ncvnf_rlnc::{
    CodedPacket, GenerationConfig, GenerationEncoder, HeaderError, PacketView, SessionId, NC_MAGIC,
    NC_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GEN_SIZE: usize = 4;

/// Kind byte of the retired sliding-window data packet.
const KIND_WINDOW: u8 = 2;
/// Kind byte of the retired sliding-window ack.
const KIND_WINDOW_ACK: u8 = 3;

/// A valid coded-packet wire image to mutate.
fn wire_packet(seed: u64, session: u16, generation: u64) -> Vec<u8> {
    let cfg = GenerationConfig::new(64, GEN_SIZE).unwrap();
    let enc = GenerationEncoder::new(cfg, &[0x5C; 256]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    enc.coded_packet(ncvnf_rlnc::SessionId::new(session), generation, &mut rng)
        .to_bytes()
        .to_vec()
}

/// A sliding-window data frame (kind 2) as the retired framing laid it
/// out: session, 8-byte window base, width byte, `width` coefficients,
/// then the payload.
fn wire_window(session: u16, base: u64, width: usize, payload_len: usize) -> Vec<u8> {
    let mut wire = vec![NC_MAGIC, KIND_WINDOW];
    wire.extend_from_slice(&session.to_be_bytes());
    wire.extend_from_slice(&base.to_be_bytes());
    wire.push(width as u8);
    wire.extend((1..=width).map(|i| i as u8));
    wire.resize(wire.len() + payload_len, 0x5C);
    wire
}

/// A sliding-window ack (kind 3), 14 bytes: session, cumulative index,
/// repairs wanted, a reserved byte.
fn wire_window_ack(session: u16, cumulative: u64, repair_wanted: u8) -> Vec<u8> {
    let mut wire = vec![NC_MAGIC, KIND_WINDOW_ACK];
    wire.extend_from_slice(&session.to_be_bytes());
    wire.extend_from_slice(&cumulative.to_be_bytes());
    wire.extend_from_slice(&[repair_wanted, 0]);
    wire
}

/// Whatever the data parser makes of `data`, it agrees with the header:
/// a parse is a generational packet whose kind byte is not a retired
/// one, a retired kind is `BadKind`, and the shard key exists exactly
/// when the data parser could read a header.
fn assert_no_cross_dispatch(data: &[u8]) -> Result<(), TestCaseError> {
    let retired = data.len() >= 2 && [KIND_WINDOW, KIND_WINDOW_ACK].contains(&data[1]);
    match PacketView::parse(data, GEN_SIZE) {
        Ok(view) => {
            prop_assert!(!retired);
            prop_assert_eq!(view.coefficients().len(), GEN_SIZE);
            prop_assert!(PacketView::shard_key(data).is_some());
        }
        Err(HeaderError::BadKind { expected, found }) => {
            prop_assert!(retired);
            prop_assert_eq!((expected, found), (NC_VERSION, data[1]));
            prop_assert!(PacketView::shard_key(data).is_none());
        }
        Err(HeaderError::BadMagic { found }) => {
            prop_assert!(found != NC_MAGIC);
            prop_assert!(PacketView::shard_key(data).is_none());
        }
        Err(HeaderError::Truncated { needed, available }) => {
            prop_assert!(!retired);
            prop_assert_eq!(available, data.len());
            prop_assert!(needed > available);
        }
    }
    Ok(())
}

/// `data` holds a retired kind byte: every generation size refuses it
/// with `BadKind`, it earns no shard key, and it is neither feedback nor
/// a control signal.
fn assert_refused(data: &[u8]) -> Result<(), TestCaseError> {
    for g in [0, GEN_SIZE, 64] {
        prop_assert_eq!(
            PacketView::parse(data, g),
            Err(HeaderError::BadKind {
                expected: NC_VERSION,
                found: data[1]
            })
        );
    }
    prop_assert!(PacketView::shard_key(data).is_none());
    prop_assert!(Feedback::from_bytes(data).is_err());
    prop_assert!(SignalFrame::from_bytes(data).is_err());
    assert_no_cross_dispatch(data)
}

proptest! {
    /// Arbitrary byte soup never panics any ingress parser.
    #[test]
    fn byte_soup_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = CodedPacket::from_bytes(&data, GEN_SIZE);
        let _ = Feedback::from_bytes(&data);
        let _ = SignalFrame::from_bytes(&data);
        assert_no_cross_dispatch(&data)?;
        // Soup that does carry the NC magic reaches the kind dispatch.
        let mut nc = data;
        if let Some(first) = nc.first_mut() {
            *first = NC_MAGIC;
        }
        assert_no_cross_dispatch(&nc)?;
    }

    /// Every prefix of a retired sliding-window data frame (kind 2, any
    /// width) that still holds its kind byte is refused by that byte,
    /// whatever the generation size — never a packet, never a shard key,
    /// never feedback or a signal.
    #[test]
    fn truncated_window_frames_never_misdispatch(
        session in any::<u16>(),
        base in any::<u64>(),
        width in 0usize..=255,
        payload_len in 0usize..128,
        cut_permille in 0u32..=1000,
    ) {
        let wire = wire_window(session, base, width, payload_len);
        let cut = (2 + (wire.len() - 2) as u64 * u64::from(cut_permille) / 1000) as usize;
        assert_refused(&wire[..cut])?;
    }

    /// The same for every prefix of a retired window ack (kind 3).
    #[test]
    fn truncated_window_acks_never_misdispatch(
        session in any::<u16>(),
        cumulative in any::<u64>(),
        repair_wanted in any::<u8>(),
        cut in 2usize..=14,
    ) {
        let wire = wire_window_ack(session, cumulative, repair_wanted);
        assert_refused(&wire[..cut])?;
    }

    /// Single-byte corruption anywhere in a retired window frame or ack —
    /// the kind byte included — parses or returns a typed error, and
    /// whatever parses agrees with the kind byte now on the wire.
    #[test]
    fn corrupted_window_frames_never_cross_dispatch(
        width in 1usize..=255,
        payload_len in 0usize..64,
        pos_permille in 0u32..1000,
        xor in 1u8..=255,
    ) {
        for clean in [wire_window(9, 3, width, payload_len), wire_window_ack(9, 3, 1)] {
            let mut wire = clean.clone();
            let pos = ((wire.len() as u64 * u64::from(pos_permille) / 1000) as usize)
                .min(wire.len() - 1);
            wire[pos] ^= xor;
            assert_no_cross_dispatch(&wire)?;
            let _ = CodedPacket::from_bytes(&wire, GEN_SIZE);
            // Magic and kind intact: still refused by the kind byte.
            if pos > 1 {
                assert_refused(&wire)?;
            }
        }
    }

    /// Every strict prefix of a valid coded packet parses or errors —
    /// and `shard_key` only succeeds once the fixed prefix is complete,
    /// in which case it reports the true ids (truncation can shorten a
    /// packet, never redirect it to another session's shard).
    #[test]
    fn truncated_packets_never_misdispatch(
        seed in any::<u64>(),
        session in 1u16..=u16::MAX,
        generation in 0u64..=u32::MAX as u64,
        cut_permille in 0u32..1000,
    ) {
        let wire = wire_packet(seed, session, generation);
        let cut = (wire.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let data = &wire[..cut];
        match PacketView::shard_key(data) {
            Some((s, g)) => {
                prop_assert!(cut >= CodedPacket::FIXED_LEN);
                prop_assert_eq!(s.value(), session);
                prop_assert_eq!(g, generation);
            }
            None => prop_assert!(cut < CodedPacket::FIXED_LEN),
        }
        let _ = PacketView::parse(data, GEN_SIZE);
        // A truncated data packet still never decodes as feedback or as
        // a control signal: its magic byte stays foreign to both.
        if !data.is_empty() {
            prop_assert!(Feedback::from_bytes(data).is_err());
        }
        prop_assert!(SignalFrame::from_bytes(data).is_err());
    }

    /// Single-byte corruption anywhere in a valid coded packet never
    /// panics a parser, and corrupting anything *other than the magic
    /// byte* never turns a data packet into feedback. Every value of the
    /// kind byte parses as a packet, except the two retired ones.
    #[test]
    fn corrupted_packets_never_cross_dispatch(
        seed in any::<u64>(),
        pos_permille in 0u32..1000,
        xor in 1u8..=255,
    ) {
        let mut wire = wire_packet(seed, 9, 3);
        let pos = (wire.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(wire.len() - 1);
        wire[pos] ^= xor;
        assert_no_cross_dispatch(&wire)?;
        let _ = CodedPacket::from_bytes(&wire, GEN_SIZE);
        if wire[0] != FEEDBACK_MAGIC {
            prop_assert!(
                Feedback::from_bytes(&wire).is_err(),
                "non-feedback magic must never reach the feedback path"
            );
        }
        if wire[0] != NC_MAGIC {
            prop_assert!(
                PacketView::shard_key(&wire).is_none(),
                "non-NC magic must never pass the dispatch peek"
            );
        }
        let clean = wire_packet(seed, 9, 3);
        for kind in 0..=255u8 {
            let mut as_kind = clean.clone();
            as_kind[1] = kind;
            assert_no_cross_dispatch(&as_kind)?;
        }
    }

    /// Corrupting or truncating a control signal frame never panics the
    /// signal codec, and a corrupted *data* magic never decodes as a
    /// signal.
    #[test]
    fn mangled_signal_frames_are_total(
        session in 0u16..=u16::MAX,
        rate in any::<u32>(),
        burst in any::<u32>(),
        priority in any::<u8>(),
        pos_permille in 0u32..1000,
        xor in 1u8..=255,
        cut_permille in 0u32..1000,
    ) {
        let sig = Signal::NcQuota {
            session: ncvnf_rlnc::SessionId::new(session),
            rate_pps: rate,
            burst,
            priority,
        };
        // Bare, a quota is refused whole: it needs the fence.
        prop_assert_eq!(
            SignalFrame::from_bytes(&sig.to_bytes()),
            Err(SignalError::Unfenced(8))
        );
        let fenced = FencedSignal { epoch: u64::from(rate), seq: u64::from(burst), signal: sig };
        let wire = fenced.to_bytes();

        // Roundtrip sanity before mutation.
        let (frame, consumed) = SignalFrame::from_bytes(&wire).expect("valid frame decodes");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(frame, SignalFrame::Fenced(fenced));

        // Truncation: parse-or-error.
        let cut = (wire.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let _ = SignalFrame::from_bytes(&wire[..cut]);

        // Corruption: parse-or-error, and whatever decodes is still a
        // well-typed frame (the match above proves decoding is total).
        let mut mangled = wire.to_vec();
        let pos = ((wire.len() as u64 * u64::from(pos_permille) / 1000) as usize)
            .min(wire.len() - 1);
        mangled[pos] ^= xor;
        let _ = SignalFrame::from_bytes(&mangled);
    }
}

/// Polls `read` until it returns at least `want`, for up to 5 s (the
/// data thread publishes its counters behind the datagram).
fn wait_for(handle: &RelayHandle, read: impl Fn(&RelayHandle) -> u64, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read(handle) < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(read(handle), want);
}

/// Every counter a relay drops a datagram under.
fn drops(handle: &RelayHandle) -> [u64; 5] {
    let (stats, vnf) = (handle.stats(), handle.vnf_stats());
    [
        vnf.malformed,
        vnf.unknown_session,
        stats.feedback_frames,
        stats.malformed_feedback,
        stats.total_shed(),
    ]
}

/// On a live relay (shard count from `NCVNF_SHARDS`), each retired
/// sliding-window frame of a served session — a full-width kind-2 data
/// packet, a kind-3 ack — is counted under exactly one drop counter,
/// `malformed`, and never forwarded; a coded packet after them still is.
#[test]
fn live_relay_counts_retired_window_frames_once_and_forwards_none() {
    const SESSION: u16 = 11;
    let layout = GenerationConfig::new(64, GEN_SIZE).unwrap();
    let relay = RelayNode::spawn(RelayConfig {
        generation: layout,
        ..RelayConfig::default()
    })
    .unwrap();
    let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    sink.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut table = ForwardingTable::new();
    let session = SessionId::new(SESSION);
    table.set(session, vec![sink.local_addr().unwrap().to_string()]);
    let mut sender = SignalSender::new(0, SenderConfig::default()).unwrap();
    relay
        .wire(&mut sender, session, VnfRoleWire::Recoder, &table)
        .unwrap();
    let handle = relay.handle();
    let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();

    let rows = [
        ("kind-2 data, full width", wire_window(SESSION, 0, 255, 64)),
        ("kind-3 ack", wire_window_ack(SESSION, 0, 1)),
    ];
    let mut buf = [0u8; 2048];
    for (i, (name, wire)) in rows.iter().enumerate() {
        let before = drops(&handle);
        tx.send_to(wire, relay.data_addr).unwrap();
        wait_for(&handle, |h| h.stats().datagrams_in, i as u64 + 1);
        wait_for(&handle, |h| h.vnf_stats().malformed, before[0] + 1);
        let after = drops(&handle);
        let counted: u64 = after.iter().zip(before).map(|(a, b)| a - b).sum();
        assert_eq!(counted, 1, "{name}: one drop counter, once ({after:?})");
        assert_eq!(handle.stats().datagrams_out, 0, "{name}: forwarded");
        assert!(
            sink.recv_from(&mut buf).is_err(),
            "{name}: reached the sink"
        );
    }
    // The relay still relays.
    tx.send_to(&wire_packet(1, SESSION, 0)[..], relay.data_addr)
        .unwrap();
    let (n, _) = sink.recv_from(&mut buf).expect("a coded packet is relayed");
    assert!(PacketView::parse(&buf[..n], GEN_SIZE).is_ok());
    assert_eq!(handle.vnf_stats().malformed, rows.len() as u64);
    relay.shutdown();
}

/// A relay (shard count from `NCVNF_SHARDS`) wired at epoch 0 for one
/// session, and a raw socket to probe its control port with.
fn wired_relay() -> (RelayNode, UdpSocket) {
    let relay = RelayNode::spawn(RelayConfig {
        generation: GenerationConfig::new(64, GEN_SIZE).unwrap(),
        ..RelayConfig::default()
    })
    .unwrap();
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(5), vec!["127.0.0.1:9".to_string()]);
    let mut sender = SignalSender::new(0, SenderConfig::default()).unwrap();
    relay
        .wire(&mut sender, SessionId::new(5), VnfRoleWire::Recoder, &table)
        .unwrap();
    let probe = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    (relay, probe)
}

/// Sends one datagram to the relay's control port and returns the reply.
fn ask(relay: &RelayNode, probe: &UdpSocket, frame: &[u8]) -> Vec<u8> {
    probe.send_to(frame, relay.control_addr).unwrap();
    let mut buf = vec![0u8; 65536];
    let (n, _) = probe.recv_from(&mut buf).expect("the relay replies");
    buf.truncate(n);
    buf
}

/// A bare frame of every state-changing tag (1–5, 8) is refused with
/// `ERR unfenced`, counted exactly once in `rejected_signals`, and
/// leaves the table and the daemon as they were.
#[test]
fn bare_state_changing_frames_get_err_unfenced() {
    let (relay, probe) = wired_relay();
    let handle = relay.handle();
    let session = SessionId::new(5);
    let bare = [
        Signal::NcStart { session },
        Signal::NcVnfStart {
            data_center: "dc".into(),
            count: 2,
        },
        Signal::NcVnfEnd { tau_secs: 1 },
        Signal::NcForwardTab {
            table: "session 5 127.0.0.1:1\n".into(),
        },
        Signal::NcSettings {
            session,
            role: VnfRoleWire::Forwarder,
            data_port: 1,
            block_size: 64,
            generation_size: GEN_SIZE as u32,
            buffer_generations: 8,
        },
        Signal::NcQuota {
            session,
            rate_pps: 0,
            burst: 0,
            priority: 0,
        },
    ];
    let digest = || handle.snapshot().gauge("relay.table_digest");
    let (table, digest_before) = (handle.table_text(), digest());
    for sig in bare {
        let wire = sig.to_bytes();
        let before = handle.stats();
        assert_eq!(
            ask(&relay, &probe, &wire),
            b"ERR unfenced",
            "tag {}",
            wire[0]
        );
        let after = handle.stats();
        assert_eq!(after.rejected_signals, before.rejected_signals + 1);
        assert_eq!(after.signals, before.signals, "tag {} processed", wire[0]);
        assert_eq!(
            handle.table_text(),
            table,
            "tag {} touched the table",
            wire[0]
        );
        assert_eq!(digest(), digest_before);
        assert_eq!(handle.daemon_state(), DaemonState::Running);
    }
    assert_eq!(handle.snapshot().gauge("relay.quota_sessions"), Some(0.0));
    relay.shutdown();
}

/// The `NC_STATS` read is the one bare frame a relay answers: with its
/// JSON snapshot, not an `ERR`.
#[test]
fn bare_nc_stats_still_gets_its_json() {
    let (relay, probe) = wired_relay();
    let reply = ask(&relay, &probe, &Signal::NcStats.to_bytes());
    let json = String::from_utf8(reply).unwrap();
    assert!(json.starts_with('{'), "{json}");
    assert!(json.contains("\"relay.ctrl_seq\":2"), "{json}");
    assert_eq!(relay.handle().stats().rejected_signals, 0);
    relay.shutdown();
}

/// Role byte 1 — the retired "encoder" — makes `NC_SETTINGS` a malformed
/// frame, fenced or bare: `ERR bad-frame`, and the role is unchanged.
#[test]
fn settings_with_role_byte_one_is_a_bad_frame() {
    let (relay, probe) = wired_relay();
    let settings = Signal::NcSettings {
        session: SessionId::new(5),
        role: VnfRoleWire::Forwarder,
        data_port: 1,
        block_size: 64,
        generation_size: GEN_SIZE as u32,
        buffer_generations: 8,
    };
    let fenced = FencedSignal {
        epoch: 1,
        seq: 1,
        signal: settings.clone(),
    };
    for (mut wire, role_at) in [
        (settings.to_bytes().to_vec(), 5 + 2),
        (fenced.to_bytes().to_vec(), 5 + 16 + 5 + 2),
    ] {
        assert_eq!(wire[role_at], 3, "the Forwarder byte sits here");
        wire[role_at] = 1;
        assert_eq!(ask(&relay, &probe, &wire), b"ERR bad-frame");
    }
    let snap = relay.handle().snapshot();
    assert_eq!(snap.counter("relay.rejected_signals"), Some(2));
    assert_eq!(
        snap.gauge("relay.ctrl_epoch"),
        Some(0.0),
        "nothing admitted"
    );
    relay.shutdown();
}

/// `wire` pushes at epoch 0, so the first journaled controller (epoch 1)
/// applies its own seq 1 instead of having it ACKed as a duplicate.
#[test]
fn a_controller_after_wire_applies_its_own_seq_one() {
    let (relay, _probe) = wired_relay();
    let handle = relay.handle();
    let mut controller = SignalSender::new(1, SenderConfig::default()).unwrap();
    let receipt = controller
        .push(
            relay.control_addr,
            &Signal::NcForwardTab {
                table: "session 5 127.0.0.1:7\n".into(),
            },
        )
        .unwrap();
    assert_eq!(receipt.seq, 1);
    assert!(handle.table_text().contains("127.0.0.1:7"), "applied");
    let snap = handle.snapshot();
    assert_eq!(snap.gauge("relay.ctrl_epoch"), Some(1.0));
    assert_eq!(snap.gauge("relay.ctrl_seq"), Some(1.0));
    assert_eq!(snap.counter("relay.duplicate_signals"), Some(0));
    relay.shutdown();
}
