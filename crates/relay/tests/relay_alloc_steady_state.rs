//! The relay processing step is allocation-free at steady state.
//!
//! Extends the rlnc counting-allocator test to the full relay data path:
//! after warm-up, a [`relay_step`] cycle — parse the datagram as a view,
//! recode (or pass through) straight into the egress arena, send — must
//! perform zero heap operations, for both the forwarder and recoder
//! roles, and so must a stream of ever new generations through a full
//! generation buffer. The counter is scoped to the measuring thread so
//! harness threads (e.g. libtest's result-channel lazy init) cannot
//! pollute it.
//!
//! The scratch is *instrumented*: every measured step records into the
//! `ncvnf-obs` registry (counters and the sampled step-latency
//! histogram), so this test also proves the observability layer's record
//! path is heap-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;

use ncvnf_control::ForwardingTable;
use ncvnf_dataplane::{CodingVnf, VnfRole};
use ncvnf_obs::Registry;
use ncvnf_relay::{
    relay_batch, relay_step, shard_of, BatchScratch, DatagramSocket, QuotaConfig, RecvBatch,
    RelayEngine, RelayScratch, RelayShard, RouteCache, SendBatch, MAX_BATCH,
};
use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, SessionId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    // Count only allocations made by the thread under measurement, into
    // that thread's own tally: the libtest main thread lazily initializes
    // its mpsc receiver context (one-time ~48 B Arc) while blocked waiting
    // for the test result, and tests run in parallel, so neither may race
    // into another's measured window. Const-initialized native TLS for a
    // `Cell` never allocates, so touching it inside the allocator is safe.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_here() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = HEAP_OPS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Number of heap allocations (incl. reallocations) performed by `work`
/// on the calling thread.
fn heap_ops_during(mut work: impl FnMut()) -> u64 {
    let before = HEAP_OPS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    HEAP_OPS.with(Cell::get) - before
}

const BLOCK: usize = 1460;
const G: usize = 4;

fn relay_with_role(role: VnfRole) -> Mutex<RelayEngine> {
    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let mut vnf = CodingVnf::new(config, 16);
    vnf.set_role(SessionId::new(1), role);
    Mutex::new(RelayEngine::new(vnf, StdRng::seed_from_u64(0xA110_C002)))
}

fn routes() -> Mutex<RouteCache> {
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(1), vec!["127.0.0.1:9000".to_string()]);
    let mut cache = RouteCache::new();
    cache.rebuild(&table);
    Mutex::new(cache)
}

/// One step per pre-serialized wire datagram, with a send sink that only
/// reads the bytes (a checksum stands in for the `send_to` syscall).
fn drive(
    engine: &Mutex<RelayEngine>,
    routes: &Mutex<RouteCache>,
    scratch: &mut RelayScratch,
    wires: &[Vec<u8>],
    sink: &mut u64,
) {
    for wire in wires {
        let mut send = |_hop: SocketAddr, bytes: &[u8]| {
            *sink = sink.wrapping_add(bytes.iter().map(|&b| b as u64).sum::<u64>());
            true
        };
        relay_step(engine, routes, scratch, wire, &mut send);
    }
}

#[test]
fn warm_relay_forward_and_recode_steps_do_not_allocate() {
    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let data: Vec<u8> = (0..config.generation_payload())
        .map(|i| (i * 7 + 3) as u8)
        .collect();
    let enc = GenerationEncoder::new(config, &data).expect("valid generation");
    let mut rng = StdRng::seed_from_u64(0xA110_C003);
    // A ring of pre-serialized datagrams for one generation: the steady
    // state of a relay serving a session (the generation reaches full rank
    // during warm-up, after which absorb is a cheap early return).
    let wires: Vec<Vec<u8>> = (0..32)
        .map(|_| {
            enc.coded_packet(SessionId::new(1), 0, &mut rng)
                .to_bytes()
                .to_vec()
        })
        .collect();
    let mut sink = 0u64;

    for role in [VnfRole::Recoder, VnfRole::Forwarder] {
        let engine = relay_with_role(role);
        let routes = routes();
        // Metrics ON: registration (the only locking/allocating part)
        // happens here, outside the measured window.
        let registry = Registry::new();
        let mut scratch = RelayScratch::instrumented(&registry);

        // Warm-up: brings the generation to full rank, and
        // settles every scratch buffer at its final capacity.
        for _ in 0..8 {
            drive(&engine, &routes, &mut scratch, &wires, &mut sink);
        }

        let steps = 4 * wires.len() as u64;
        let allocs = heap_ops_during(|| {
            for _ in 0..4 {
                drive(&engine, &routes, &mut scratch, &wires, &mut sink);
            }
        });
        assert_eq!(
            allocs, 0,
            "warm {role:?} relay step must not touch the heap ({steps} datagrams)"
        );

        let stats = engine.lock().vnf().stats();
        assert_eq!(stats.packets_in, 12 * wires.len() as u64);
        assert_eq!(stats.malformed, 0);
        // The zero-alloc steps really did record: every step counted,
        // and the latency histogram saw its sampled share of them.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("relay.steps"), Some(12 * wires.len() as u64));
        let step_ns = snap.histogram("relay.step_ns").expect("registered");
        assert!(
            step_ns.count >= 12 * wires.len() as u64 / 32,
            "sampled latency points recorded ({})",
            step_ns.count
        );
    }
    assert_ne!(sink, 0, "send sink observed real bytes");
}

/// Generation turnover is heap-free: a warm [`relay_batch`] over a ring
/// of advancing generations, g + 1 datagrams each (the relay workloads'
/// traffic), through a buffer already holding its full
/// `buffer_generations`. Every generation opened evicts the oldest, and
/// the evicted slot's storage serves the new one.
#[test]
fn warm_generation_turnover_does_not_allocate() {
    const BUFFERED: usize = 16;
    const RING_GENERATIONS: u64 = 4 * BUFFERED as u64;
    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0xA110_C00A);
    let src: SocketAddr = ([127, 0, 0, 1], 4245).into();
    let mut ring: Vec<Vec<u8>> = Vec::new();
    for generation in 0..RING_GENERATIONS {
        let data: Vec<u8> = (0..config.generation_payload())
            .map(|i| (i as u64 * 3 + generation) as u8)
            .collect();
        let enc = GenerationEncoder::new(config, &data).expect("valid generation");
        for _ in 0..=G {
            let pkt = enc.coded_packet(SessionId::new(1), generation, &mut rng);
            ring.push(pkt.to_bytes().to_vec());
        }
    }
    let batches: Vec<RecvBatch> = ring
        .chunks(MAX_BATCH)
        .map(|chunk| {
            let mut batch = RecvBatch::new(MAX_BATCH, 2048);
            for wire in chunk {
                assert!(batch.push(wire, src));
            }
            batch
        })
        .collect();
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(1), vec!["127.0.0.1:9000".to_string()]);

    for role in [VnfRole::Recoder, VnfRole::Forwarder] {
        let mut vnf = CodingVnf::new(config, BUFFERED);
        vnf.set_role(SessionId::new(1), role);
        let shards = [RelayShard::new(RelayEngine::new(
            vnf,
            StdRng::seed_from_u64(0xA110_C00B),
        ))];
        shards[0].routes().lock().rebuild(&table);
        let registry = Registry::new();
        let mut scratch = BatchScratch::instrumented(1, &registry);
        let lap = |scratch: &mut BatchScratch| {
            for batch in &batches {
                relay_batch(&shards, 0, scratch, batch);
            }
        };

        // Warm-up: the ring fills the buffer and turns it over, so every
        // slot, the generation index and the scratch are at capacity.
        for _ in 0..4 {
            lap(&mut scratch);
        }
        let allocs = heap_ops_during(|| {
            for _ in 0..2 {
                lap(&mut scratch);
            }
        });
        assert_eq!(
            allocs,
            0,
            "{role:?}: {} warm generations must not touch the heap",
            2 * RING_GENERATIONS
        );

        let stats = shards[0].engine().lock().vnf().stats();
        assert_eq!(stats.packets_in, 6 * ring.len() as u64);
        assert_eq!(stats.packets_out, stats.packets_in, "one output per input");
        if role == VnfRole::Recoder {
            // Generation 0 was evicted long ago; the newest is buffered.
            let vnf = shards[0].engine();
            let rank = |g| vnf.lock().vnf().generation_rank(SessionId::new(1), g);
            assert_eq!(rank(0), None);
            assert_eq!(rank(RING_GENERATIONS - 1), Some(G));
        }
    }
}

/// The sharded batch path ([`relay_batch`]) is also allocation-free at
/// steady state, per shard, with metrics ON: one full receive batch
/// spanning generations owned by all four shards — dispatch, per-shard
/// recode into the egress arena, and the batch metrics record — performs
/// zero heap operations once warm.
#[test]
fn warm_sharded_batch_does_not_allocate() {
    const SHARDS: usize = 4;
    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let data: Vec<u8> = (0..config.generation_payload())
        .map(|i| (i * 11 + 5) as u8)
        .collect();
    let enc = GenerationEncoder::new(config, &data).expect("valid generation");
    let mut rng = StdRng::seed_from_u64(0xA110_C004);

    // One generation per shard: walk generation ids until every shard
    // owns exactly one, so a single receive batch exercises all four
    // engine locks.
    let mut picks: Vec<u64> = Vec::new();
    let mut owners_seen = [false; SHARDS];
    for g in 0..256u64 {
        let owner = shard_of(SessionId::new(1), g, SHARDS);
        if !owners_seen[owner] {
            owners_seen[owner] = true;
            picks.push(g);
        }
    }
    assert_eq!(picks.len(), SHARDS, "found one generation per shard");

    // A full batch cycling through those generations, pre-serialized
    // once (the steady state: every generation at full rank).
    let src: SocketAddr = ([127, 0, 0, 1], 4242).into();
    let mut batch = RecvBatch::new(MAX_BATCH, 2048);
    let mut i = 0usize;
    loop {
        let generation = picks[i % SHARDS];
        let wire = enc
            .coded_packet(SessionId::new(1), generation, &mut rng)
            .to_bytes()
            .to_vec();
        if !batch.push(&wire, src) {
            break;
        }
        i += 1;
    }
    assert_eq!(batch.len(), MAX_BATCH, "batch filled to capacity");

    let mut table = ForwardingTable::new();
    table.set(SessionId::new(1), vec!["127.0.0.1:9000".to_string()]);
    let shards: Vec<RelayShard> = (0..SHARDS as u64)
        .map(|s| {
            let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
            let mut vnf = CodingVnf::new(config, 16);
            vnf.set_role(SessionId::new(1), VnfRole::Recoder);
            let shard = RelayShard::new(RelayEngine::new(
                vnf,
                StdRng::seed_from_u64(0xA110_C005 + s),
            ));
            shard.routes().lock().rebuild(&table);
            shard
        })
        .collect();

    // Metrics ON: registration happens here, outside the measured window.
    let registry = Registry::new();
    let mut scratch = BatchScratch::instrumented(SHARDS, &registry);

    // Warm-up: full rank everywhere, every scratch buffer (dispatch
    // groups, image lists, egress arena) at final capacity.
    for _ in 0..8 {
        relay_batch(&shards, 0, &mut scratch, &batch);
    }

    const MEASURED: u64 = 4;
    let allocs = heap_ops_during(|| {
        for _ in 0..MEASURED {
            let report = relay_batch(&shards, 0, &mut scratch, &batch);
            assert_eq!(report.steps, MAX_BATCH as u64);
        }
    });
    assert_eq!(
        allocs, 0,
        "a warm {MAX_BATCH}-datagram batch across {SHARDS} shards must not touch the heap"
    );

    // Every shard really processed its slice of each batch.
    for (s, shard) in shards.iter().enumerate() {
        let stats = shard.engine().lock().vnf().stats();
        assert_eq!(
            stats.packets_in,
            (8 + MEASURED) * (MAX_BATCH / SHARDS) as u64,
            "shard {s} saw its dispatch group every batch"
        );
        assert_eq!(stats.malformed, 0);
    }
    // The zero-alloc batches really did record, including the batch
    // family.
    let snap = registry.snapshot();
    let batches = 8 + MEASURED;
    assert_eq!(snap.counter("relay.batches"), Some(batches));
    assert_eq!(
        snap.counter("relay.steps"),
        Some(batches * MAX_BATCH as u64)
    );
    let fill = snap.histogram("relay.batch_fill").expect("registered");
    assert_eq!(fill.count, batches);
    assert_eq!(
        snap.counter("relay.cross_shard_packets"),
        Some(batches * (MAX_BATCH - MAX_BATCH / SHARDS) as u64),
        "home shard 0 owns a quarter of each batch"
    );
}

/// The admission gate on the non-shedding path is heap-free too: with
/// the overload regime armed by a provisioned quota (generous enough
/// that every datagram is admitted), a warm batch — peek, token-bucket
/// take, then the usual code into the egress arena — must
/// still perform zero heap operations.
#[test]
fn warm_batch_with_admission_gate_does_not_allocate() {
    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let data: Vec<u8> = (0..config.generation_payload())
        .map(|i| (i * 13 + 1) as u8)
        .collect();
    let enc = GenerationEncoder::new(config, &data).expect("valid generation");
    let mut rng = StdRng::seed_from_u64(0xA110_C006);

    let src: SocketAddr = ([127, 0, 0, 1], 4243).into();
    let mut batch = RecvBatch::new(MAX_BATCH, 2048);
    while batch.push(
        &enc.coded_packet(SessionId::new(1), 0, &mut rng).to_bytes(),
        src,
    ) {}
    assert_eq!(batch.len(), MAX_BATCH, "batch filled to capacity");

    let mut table = ForwardingTable::new();
    table.set(SessionId::new(1), vec!["127.0.0.1:9000".to_string()]);
    let mut vnf = CodingVnf::new(config, 16);
    vnf.set_role(SessionId::new(1), VnfRole::Forwarder);
    let mut engine = RelayEngine::new(vnf, StdRng::seed_from_u64(0xA110_C007));
    // A quota no warm batch can drain: the gate runs on every datagram
    // but never sheds, which is the regime this test pins.
    engine.provision_quota(
        SessionId::new(1),
        QuotaConfig {
            rate_pps: 1e9,
            burst: 1e6,
        },
    );
    let shards = [RelayShard::new(engine)];
    shards[0].routes().lock().rebuild(&table);
    let mut scratch = BatchScratch::new(1);

    for _ in 0..8 {
        relay_batch(&shards, 0, &mut scratch, &batch);
    }

    const MEASURED: u64 = 4;
    let allocs = heap_ops_during(|| {
        for _ in 0..MEASURED {
            let report = relay_batch(&shards, 0, &mut scratch, &batch);
            assert_eq!(report.steps, MAX_BATCH as u64);
            assert_eq!(report.shed_quota, 0, "nothing shed at this quota");
        }
    });
    assert_eq!(
        allocs, 0,
        "the admission gate must not touch the heap while admitting"
    );

    let guard = shards[0].engine().lock();
    let ov = guard.overload().expect("regime armed by the quota");
    assert_eq!(
        ov.stats().admitted,
        (8 + MEASURED) * MAX_BATCH as u64,
        "every datagram went through the token bucket"
    );
    assert_eq!(ov.stats().shed_quota, 0);
}

/// The flush itself is heap-free: `UdpSocket::send_batch` gathers a
/// two-hop fan-out into per-destination runs, builds their control
/// messages and hands them to the kernel from fixed stack state.
#[test]
fn warm_socket_flush_does_not_allocate() {
    let sinks = [(); 2].map(|()| std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap());
    let hops = sinks.each_ref().map(|s| s.local_addr().unwrap());
    let tx = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let mut batch = SendBatch::new();
    for i in 0..MAX_BATCH / 2 {
        batch.push_bytes(&[i as u8; BLOCK], &hops);
    }
    assert_eq!(batch.len(), MAX_BATCH);
    assert_eq!(tx.send_batch(&batch).unwrap(), MAX_BATCH, "warm-up flush");
    let allocs = heap_ops_during(|| {
        assert_eq!(tx.send_batch(&batch).unwrap(), MAX_BATCH);
    });
    assert_eq!(
        allocs, 0,
        "flushing {MAX_BATCH} datagrams must not touch the heap"
    );
}

/// The receive is heap-free too, coalesced: one `recvmmsg` takes a
/// 32-datagram `UDP_SEGMENT` burst whole into a `UDP_GRO` socket's
/// mapped area and cuts it into views from reserved capacity.
#[test]
fn warm_coalesced_receive_does_not_allocate() {
    let rx = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    if !ncvnf_sysnet::enable_gro(&rx) {
        eprintln!("skipped: this kernel refuses UDP_GRO");
        return;
    }
    rx.set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    let tx = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let mut burst = SendBatch::new();
    for i in 0..MAX_BATCH {
        burst.push_bytes(&[i as u8; 64], &[rx.local_addr().unwrap()]);
    }
    let mut batch = RecvBatch::coalescing(MAX_BATCH);
    for _ in 0..2 {
        assert_eq!(tx.send_batch(&burst).unwrap(), MAX_BATCH, "warm-up");
        let mut got = 0;
        while got < MAX_BATCH {
            got += rx.recv_batch(&mut batch).unwrap();
        }
    }
    let refused = ncvnf_sysnet::egress_counts().1;
    assert_eq!(tx.send_batch(&burst).unwrap(), MAX_BATCH);
    let allocs = heap_ops_during(|| {
        rx.recv_batch(&mut batch).unwrap();
    });
    assert_eq!(
        allocs, 0,
        "a warm coalesced receive must not touch the heap"
    );
    if ncvnf_sysnet::egress_counts().1 == refused {
        assert_eq!(batch.len(), MAX_BATCH, "one message held the burst");
        assert_eq!(batch.coalesced(), MAX_BATCH);
        for (i, (bytes, _)) in batch.iter().enumerate() {
            assert_eq!(bytes, [i as u8; 64]);
        }
    }
}
