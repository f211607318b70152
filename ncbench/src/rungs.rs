//! The ladder: every layer measured from outside by timing one public
//! call on seed-derived inputs. Per-packet rungs are in ns per packet so
//! adjacent rungs subtract. Each rung is the median of [`REPEATS`] short
//! windows; the whole ladder takes about two fifths of `--seconds`.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use ncvnf_control::{reconcile, ControlRecord, ControllerState, Journal};
use ncvnf_dataplane::{CodingVnf, VnfDecision, VnfRole};
use ncvnf_gf256::bulk::{self, KernelTier};
use ncvnf_relay::{
    relay_batch, relay_step, BatchScratch, DatagramSocket, RecvBatch, RelayEngine, RelayScratch,
    RelayShard, SendBatch,
};
use ncvnf_rlnc::{
    CodedPacket, GenerationConfig, GenerationDecoder, GenerationEncoder, PacketView, PayloadPool,
    ReceiveOutcome, Recoder, SessionId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::control::{wal_path, Pieces};
use crate::inputs::{bytes, derive, generation_data, Ring, SESSION};
use crate::relay::{BUFFERED_GENERATIONS, BURST, G, MTU_BLOCK, SMALL_BLOCK};
use crate::stats::median;
use crate::{Options, Report};

/// Windows per rung; the rung is their median.
const REPEATS: usize = 5;
/// Rungs the ladder's time budget is divided among.
const RUNGS: u32 = 50;
/// Generations in the rings the VNF and engine rungs replay: twice what
/// the VNF buffers, so every lap evicts and recreates every generation.
const RUNG_RING_GENERATIONS: u64 = 2 * BUFFERED_GENERATIONS as u64;

/// How long one rung may measure.
#[derive(Clone, Copy)]
struct Budget(Duration);

impl Budget {
    /// Median ns per unit over [`REPEATS`] windows (after one discarded
    /// window) in which `work` is called back to back; each call returns
    /// the ns it timed and the units (packets, calls) that covers.
    fn ns_per_unit(self, mut work: impl FnMut() -> (u64, u64)) -> f64 {
        let window = self.0 / (REPEATS as u32 + 1);
        let mut per_unit = Vec::with_capacity(REPEATS + 1);
        for _ in 0..=REPEATS {
            let (mut ns, mut units) = (0u64, 0u64);
            let start = Instant::now();
            while start.elapsed() < window {
                let (n, u) = work();
                ns += n;
                units += u;
            }
            per_unit.push(ns as f64 / units.max(1) as f64);
        }
        // The first window warms caches, pools and the clock governor.
        median(&mut per_unit[1..])
    }

    /// [`ns_per_unit`](Self::ns_per_unit) for work timed as a whole.
    fn ns_per_call(self, units: u64, mut work: impl FnMut()) -> f64 {
        self.ns_per_unit(|| {
            let t0 = Instant::now();
            work();
            (t0.elapsed().as_nanos() as u64, units)
        })
    }

    /// Median µs of single calls made for the whole budget.
    fn us_p50(self, mut work: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
        work()?;
        let mut us = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.0 || us.len() < 5 {
            let t0 = Instant::now();
            work()?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&mut us))
    }
}

fn gf256(seed: u64, budget: Budget, report: &mut Report) {
    let src = bytes(derive(seed, 20), MTU_BLOCK);
    let mut dst = bytes(derive(seed, 21), MTU_BLOCK);
    let c = 0x53; // any coefficient other than 0 and 1
    let gbps = |ns_per_call: f64| MTU_BLOCK as f64 / ns_per_call;
    let ns = budget.ns_per_call(1, || {
        bulk::mul_add_slice(&mut dst, &src, c);
        std::hint::black_box(&dst);
    });
    report.set("gf256.bulk.mul_add_1460.gbps", gbps(ns));
    let ns = budget.ns_per_call(1, || {
        bulk::mul_slice(&mut dst, &src, c);
        std::hint::black_box(&dst);
    });
    report.set("gf256.bulk.mul_1460.gbps", gbps(ns));
    let ns = budget.ns_per_call(1, || {
        bulk::mul_add_slice(&mut dst[..SMALL_BLOCK], &src[..SMALL_BLOCK], c);
        std::hint::black_box(&dst);
    });
    report.set("gf256.bulk.mul_add_64.ns_per_call", ns);
    // A tier the CPU lacks reads 0.
    for (tier, name) in [
        (KernelTier::Scalar, "gf256.bulk.scalar.mul_add_1460.gbps"),
        (KernelTier::Swar, "gf256.bulk.swar.mul_add_1460.gbps"),
        (KernelTier::Ssse3, "gf256.bulk.ssse3.mul_add_1460.gbps"),
        (KernelTier::Avx2, "gf256.bulk.avx2.mul_add_1460.gbps"),
        (KernelTier::Gfni, "gf256.bulk.gfni.mul_add_1460.gbps"),
    ] {
        if tier.is_supported() {
            let ns = budget.ns_per_call(1, || {
                tier.mul_add_slice(&mut dst, &src, c);
                std::hint::black_box(&dst);
            });
            report.set(name, gbps(ns));
        }
    }
}

/// Names of the codec rungs at one generation size.
struct CodecNames {
    encode: &'static str,
    recode: &'static str,
    decode: &'static str,
    finish: &'static str,
    innovative: &'static str,
}

const G4: CodecNames = CodecNames {
    encode: "rlnc.encode.ns_per_packet.g4",
    recode: "rlnc.recode.ns_per_packet.g4",
    decode: "rlnc.decode.ns_per_packet.g4",
    finish: "rlnc.decode.finish.us_per_generation.g4",
    innovative: "rlnc.decode.innovative_ratio.g4",
};

const G32: CodecNames = CodecNames {
    encode: "rlnc.encode.ns_per_packet.g32",
    recode: "rlnc.recode.ns_per_packet.g32",
    decode: "rlnc.decode.ns_per_packet.g32",
    finish: "rlnc.decode.finish.us_per_generation.g32",
    innovative: "rlnc.decode.innovative_ratio.g32",
};

/// Encode, recode and decode at `g` × 1460 B. Returns the encode pool's
/// hit ratio.
fn codec(seed: u64, g: usize, names: &CodecNames, budget: Budget, report: &mut Report) -> f64 {
    let config = GenerationConfig::new(MTU_BLOCK, g).expect("valid layout");
    let session = SessionId::new(SESSION);
    let mut rng = StdRng::seed_from_u64(derive(seed, 30 + g as u64));
    let encoder =
        GenerationEncoder::new(config, &generation_data(seed, 0, config)).expect("layout matches");

    let mut pool = PayloadPool::new();
    report.set(
        names.encode,
        budget.ns_per_call(1, || {
            let pkt = encoder.coded_packet_pooled(session, 0, &mut rng, &mut pool);
            std::hint::black_box(&pkt);
            pool.recycle(pkt);
        }),
    );
    let hit_ratio = pool.stats().hit_rate();

    // A generation's worth of coded packets, replayed for recode and
    // decode: 2g is enough to reach full rank however the draws fall.
    let packets: Vec<CodedPacket> = (0..2 * g)
        .map(|_| encoder.coded_packet(session, 0, &mut rng))
        .collect();

    // Recode as a pipelined relay does it: absorb one, emit one.
    let mut pool = PayloadPool::new();
    report.set(
        names.recode,
        budget.ns_per_call(g as u64 + 1, || {
            let mut recoder = Recoder::new(config, session, 0);
            for pkt in &packets[..=g] {
                let _ = recoder.absorb(pkt.coefficients(), pkt.payload());
                if let Ok(out) = recoder.recode_into(&mut rng, &mut pool) {
                    std::hint::black_box(&out);
                    pool.recycle(out);
                }
            }
        }),
    );

    // Decode: `receive` until complete, then `decoded_payload`.
    let (mut received, mut innovative) = (0u64, 0u64);
    let mut finish_us = Vec::new();
    report.set(
        names.decode,
        budget.ns_per_unit(|| {
            let mut decoder = GenerationDecoder::new(config);
            let t0 = Instant::now();
            let mut fed = 0u64;
            for pkt in &packets {
                fed += 1;
                if let Ok(ReceiveOutcome::Innovative { .. }) =
                    decoder.receive(pkt.coefficients(), pkt.payload())
                {
                    innovative += 1;
                }
                if decoder.is_complete() {
                    break;
                }
            }
            let receive_ns = t0.elapsed().as_nanos() as u64;
            received += fed;
            let t1 = Instant::now();
            std::hint::black_box(decoder.decoded_payload().ok());
            finish_us.push(t1.elapsed().as_secs_f64() * 1e6);
            (receive_ns, fed)
        }),
    );
    report.set(names.finish, median(&mut finish_us));
    report.set(names.innovative, innovative as f64 / received.max(1) as f64);
    hit_ratio
}

fn header(seed: u64, budget: Budget, report: &mut Report) {
    let config = GenerationConfig::new(MTU_BLOCK, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(derive(seed, 40));
    let encoder =
        GenerationEncoder::new(config, &generation_data(seed, 0, config)).expect("layout matches");
    let pkt = encoder.coded_packet(SessionId::new(SESSION), 0, &mut rng);
    let mut wire = Vec::new();
    report.set(
        "rlnc.header.serialize.ns_per_packet",
        budget.ns_per_call(1, || {
            wire.clear();
            pkt.write_into(&mut wire);
            std::hint::black_box(&wire);
        }),
    );
    report.set(
        "rlnc.header.parse.ns_per_packet",
        budget.ns_per_call(1, || {
            std::hint::black_box(PacketView::parse(std::hint::black_box(&wire), G).ok());
        }),
    );
}

fn vnf_in_role(config: GenerationConfig, role: VnfRole) -> CodingVnf {
    let mut vnf = CodingVnf::new(config, BUFFERED_GENERATIONS);
    vnf.set_role(SessionId::new(SESSION), role);
    vnf
}

/// `process_wire_into` over one lap of `ring` per call. Returns ns per
/// packet, emitted per input and evictions per thousand packets.
fn vnf_lap(ring: &Ring, role: VnfRole, seed: u64, budget: Budget) -> (f64, f64, f64) {
    let config = ring.config;
    let mut vnf = vnf_in_role(config, role);
    let mut rng = StdRng::seed_from_u64(derive(seed, 50));
    let mut out = Vec::new();
    let (mut fed, mut emitted, mut laps) = (0u64, 0u64, 0u64);
    let ns = budget.ns_per_call(ring.len() as u64, || {
        for i in 0..ring.len() {
            if let VnfDecision::Forwarded(n) =
                vnf.process_wire_into(ring.get(i), 1, &mut rng, &mut out)
            {
                emitted += n as u64;
            }
            for pkt in out.drain(..) {
                vnf.recycle(pkt);
            }
        }
        fed += ring.len() as u64;
        laps += 1;
    });
    // Every lap creates every generation of the ring once; whatever is
    // no longer held has been evicted.
    let session = SessionId::new(SESSION);
    let held = (0..RUNG_RING_GENERATIONS)
        .filter(|&g| vnf.generation_rank(session, g).is_some())
        .count() as u64;
    let evictions = (laps * RUNG_RING_GENERATIONS).saturating_sub(held);
    (
        ns,
        emitted as f64 / fed.max(1) as f64,
        evictions as f64 * 1000.0 / fed.max(1) as f64,
    )
}

/// One in-memory shard configured like the relay workloads' relay.
fn shard(config: GenerationConfig, seed: u64) -> [RelayShard; 1] {
    let engine = RelayEngine::new(
        vnf_in_role(config, VnfRole::Recoder),
        StdRng::seed_from_u64(derive(seed, 60)),
    );
    let shards = [RelayShard::new(engine)];
    let mut table = ncvnf_control::ForwardingTable::new();
    table.set(SessionId::new(SESSION), vec!["127.0.0.1:9".to_owned()]);
    shards[0].routes().lock().rebuild(&table);
    shards
}

/// `relay_batch` over 32-datagram batches, one lap of `ring` per call;
/// only the `relay_batch` calls are timed, not filling the batch.
/// Returns ns per packet and datagrams queued per input.
fn engine_batch(ring: &Ring, seed: u64, budget: Budget) -> (f64, f64) {
    let shards = shard(ring.config, seed);
    let mut scratch = BatchScratch::new(1);
    let mut batch = RecvBatch::new(BURST, 2048);
    let src: SocketAddr = ([127, 0, 0, 1], 9000).into();
    let (mut fed, mut queued) = (0u64, 0u64);
    let ns = budget.ns_per_unit(|| {
        let mut ns = 0u64;
        for first in (0..ring.len()).step_by(BURST) {
            batch.clear();
            for i in first..first + BURST {
                batch.push(ring.get(i), src);
            }
            let t0 = Instant::now();
            let report = relay_batch(&shards, 0, &mut scratch, &batch);
            ns += t0.elapsed().as_nanos() as u64;
            queued += report.queued;
        }
        fed += ring.len() as u64;
        (ns, ring.len() as u64)
    });
    (ns, queued as f64 / fed.max(1) as f64)
}

fn engine_step(ring: &Ring, seed: u64, budget: Budget) -> f64 {
    let shards = shard(ring.config, seed);
    let mut scratch = RelayScratch::new();
    let mut sink = 0u64;
    budget.ns_per_call(ring.len() as u64, || {
        for i in 0..ring.len() {
            let mut send = |_hop: SocketAddr, wire: &[u8]| {
                sink = sink.wrapping_add(wire.len() as u64);
                true
            };
            relay_step(
                shards[0].engine(),
                shards[0].routes(),
                &mut scratch,
                ring.get(i),
                &mut send,
            );
        }
        std::hint::black_box(sink);
    })
}

/// Names of the socket rungs at one datagram size.
struct SocketNames {
    send_batch: &'static str,
    recv_batch: &'static str,
    send_to: &'static str,
    recv_from: &'static str,
}

/// The four socket calls on a loopback self-pair, 32 datagrams a round.
/// The half of each round that is not being measured runs untimed.
fn sockets(
    ring: &Ring,
    names: &SocketNames,
    budget: Budget,
    report: &mut Report,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let a = UdpSocket::bind(("127.0.0.1", 0)).map_err(io)?;
    let b = UdpSocket::bind(("127.0.0.1", 0)).map_err(io)?;
    b.set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(io)?;
    let to = b.local_addr().map_err(io)?;
    let mut send = SendBatch::new();
    for i in 0..BURST {
        send.push_bytes(ring.get(i), &[to]);
    }
    let mut recv = RecvBatch::new(BURST, 2048);
    let mut buf = vec![0u8; 2048];
    let ns_since = |t0: Instant| t0.elapsed().as_nanos() as u64;
    // Receives the round's datagrams at `b`; returns how many came.
    let recv_round = |recv: &mut RecvBatch| {
        let mut got = 0;
        while got < BURST {
            match b.recv_batch(recv) {
                Ok(n) => got += n,
                Err(_) => break,
            }
        }
        got as u64
    };

    let ns = budget.ns_per_unit(|| {
        let t0 = Instant::now();
        let sent = a.send_batch(&send).unwrap_or(0);
        let ns = ns_since(t0);
        recv_round(&mut recv);
        (ns, sent as u64)
    });
    report.set(names.send_batch, ns);

    let ns = budget.ns_per_unit(|| {
        let _ = a.send_batch(&send);
        let t0 = Instant::now();
        let got = recv_round(&mut recv);
        (ns_since(t0), got)
    });
    report.set(names.recv_batch, ns);

    let ns = budget.ns_per_unit(|| {
        let t0 = Instant::now();
        let mut sent = 0u64;
        for (wire, dest) in send.iter() {
            sent += u64::from(a.send_to(wire, dest).is_ok());
        }
        let ns = ns_since(t0);
        recv_round(&mut recv);
        (ns, sent)
    });
    report.set(names.send_to, ns);

    let ns = budget.ns_per_unit(|| {
        let _ = a.send_batch(&send);
        let t0 = Instant::now();
        let mut got = 0u64;
        while got < BURST as u64 && b.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        (ns_since(t0), got)
    });
    report.set(names.recv_from, ns);
    Ok(())
}

fn control(seed: u64, budget: Budget, report: &mut Report) -> Result<(), String> {
    let mut pieces = Pieces::new(seed)?;
    report.set(
        "control.sender.query_stats.us_p50",
        budget.us_p50(|| pieces.query_stats(0).map(drop))?,
    );
    // Push → ACK → the relay serves the new table.
    let mut stale = 0u64;
    let push_us = budget.us_p50(|| {
        let pushed = pieces.push_table(0)?;
        if pieces.table_text(0) != pushed {
            stale += 1;
        }
        Ok(())
    })?;
    report.set("control.sender.push.us_p50", push_us);
    if stale > 0 {
        report.correct = false;
        report.note(format!("control rung: {stale} ACKed pushes not applied"));
    }
    report.set(
        "deploy.scaling.handle.us_p50",
        budget.us_p50(|| pieces.decide())?,
    );

    // Reconcile: the journaled belief diverges from the relay's table on
    // every run, so each pass is observe → plan → fenced re-push → ACK.
    let addr = pieces.control_addr(1).to_string();
    let mut run = 0u64;
    let mut failed = 0u64;
    let reconcile_us = budget.us_p50(|| {
        run += 1;
        let state = ControllerState::replay(&[
            ControlRecord::EpochStarted { epoch: 1 },
            ControlRecord::VnfLaunched {
                node: 0,
                data_center: "bench".into(),
                control_addr: addr.clone(),
            },
            ControlRecord::TablePushed {
                node: 0,
                epoch: 1,
                seq: 1,
                table: format!("session {} 127.0.0.1:9\n", 100 + run % 100),
            },
        ]);
        if reconcile(&mut pieces.sender, &state, 0.0, None).repushed_ok != 1 {
            failed += 1;
        }
        Ok(())
    })?;
    report.set("control.reconcile.us_p50", reconcile_us);
    if failed > 0 {
        report.correct = false;
        report.note(format!(
            "control rung: {failed} reconcile passes did not re-push"
        ));
    }
    drop(pieces);
    journal(budget, report)
}

fn journal(budget: Budget, report: &mut Report) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let path = wal_path("journal_rung")?;
    let (mut journal, _, _) = Journal::open(&path).map_err(io)?;
    journal
        .log(&ControlRecord::EpochStarted { epoch: 1 })
        .map_err(io)?;
    let mut i = 0u64;
    let mut record = || {
        i += 1;
        ControlRecord::TablePushed {
            node: (i % 16) as u32,
            epoch: 1,
            seq: i,
            table: format!("session {} 127.0.0.1:{}\n", i % 64, 4000 + (i % 1000)),
        }
    };
    // Append: frame construction and CRC into the buffer, no I/O.
    const BATCH: u64 = 64;
    let append_ns = budget.ns_per_unit(|| {
        let records: Vec<ControlRecord> = (0..BATCH).map(|_| record()).collect();
        let t0 = Instant::now();
        for r in &records {
            journal.append(r);
        }
        (t0.elapsed().as_nanos() as u64, BATCH)
    });
    report.set("control.journal.append.ns_per_record", append_ns);
    journal.commit().map_err(io)?;
    // Commit: one fsync'd batch, the durability unit before a push.
    let commit_us = budget.us_p50(|| {
        for _ in 0..BATCH {
            journal.append(&record());
        }
        journal.commit().map_err(io)
    })?;
    report.set("control.journal.commit.us_p50", commit_us);
    drop(journal);
    // Replay: reopen the whole file.
    let t0 = Instant::now();
    let (reopened, _, replay) = Journal::open(&path).map_err(io)?;
    let secs = t0.elapsed().as_secs_f64();
    drop(reopened);
    let _ = std::fs::remove_file(&path);
    if replay.torn_tail {
        report.correct = false;
        report.note("control rung: journal replayed with a torn tail".into());
    }
    report.set(
        "control.journal.replay.records_per_s",
        replay.records as f64 / secs,
    );
    Ok(())
}

pub(crate) fn run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let seed = derive(opts.seed, 0x1ADDE2);
    let budget = Budget(Duration::from_secs_f64(opts.seconds * 0.4) / RUNGS);
    gf256(seed, budget, report);
    let hit_ratio = codec(seed, 4, &G4, budget, report);
    codec(seed, 32, &G32, budget, report);
    report.set("rlnc.pool.hit_ratio", hit_ratio);
    header(seed, budget, report);

    for (block, vnf_name, batch_name, socket_names) in [
        (
            MTU_BLOCK,
            "dataplane.vnf.recode_wire_1460.ns_per_packet",
            "relay.engine.batch_1460.ns_per_packet",
            SocketNames {
                send_batch: "relay.socket.send_batch_1460.ns_per_packet",
                recv_batch: "relay.socket.recv_batch_1460.ns_per_packet",
                send_to: "relay.socket.send_to_1460.ns_per_packet",
                recv_from: "relay.socket.recv_from_1460.ns_per_packet",
            },
        ),
        (
            SMALL_BLOCK,
            "dataplane.vnf.recode_wire_64.ns_per_packet",
            "relay.engine.batch_64.ns_per_packet",
            SocketNames {
                send_batch: "relay.socket.send_batch_64.ns_per_packet",
                recv_batch: "relay.socket.recv_batch_64.ns_per_packet",
                send_to: "relay.socket.send_to_64.ns_per_packet",
                recv_from: "relay.socket.recv_from_64.ns_per_packet",
            },
        ),
    ] {
        let config = GenerationConfig::new(block, G).expect("valid layout");
        let ring = Ring::build(seed, config, RUNG_RING_GENERATIONS, G + 1);
        let (ns, emitted_per_in, evictions) = vnf_lap(&ring, VnfRole::Recoder, seed, budget);
        report.set(vnf_name, ns);
        let (ns, queued_per_in) = engine_batch(&ring, seed, budget);
        report.set(batch_name, ns);
        if block == MTU_BLOCK {
            report.set("dataplane.vnf.emitted_per_in", emitted_per_in);
            report.set("dataplane.vnf.evictions_per_kpkt", evictions);
            report.set("relay.engine.queued_per_in", queued_per_in);
            let (ns, _, _) = vnf_lap(&ring, VnfRole::Forwarder, seed, budget);
            report.set("dataplane.vnf.forward_wire.ns_per_packet", ns);
            report.set(
                "relay.engine.step.ns_per_packet",
                engine_step(&ring, seed, budget),
            );
        }
        sockets(&ring, &socket_names, budget, report)?;
    }
    control(seed, budget, report)
}
