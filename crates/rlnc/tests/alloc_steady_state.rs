//! The batch encode and recode paths are allocation-free at steady state.
//!
//! A counting global allocator wraps `System`; after a warm-up phase that
//! fills the [`PayloadPool`] and grows every scratch buffer to its final
//! capacity, checkout → code → freeze → recycle cycles must touch the
//! heap exactly zero times. The counter is scoped to the measuring thread
//! so harness threads (e.g. libtest's result-channel lazy init) cannot
//! pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ncvnf_gf256::bulk;
use ncvnf_rlnc::{
    CodingMode, GenerationConfig, GenerationDecoder, GenerationEncoder, PayloadPool,
    ReceiveOutcome, Recoder, SessionId, WindowConfig, WindowEncoder, WindowRecoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Count only allocations made by the thread under measurement: the
    // libtest main thread lazily initializes its mpsc receiver context
    // (one-time ~48 B Arc) while blocked waiting for the test result,
    // which otherwise races into the measured window. Const-initialized
    // native TLS for a `Cell<bool>` never allocates, so reading the flag
    // inside the allocator is safe.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            HEAP_OPS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            HEAP_OPS.fetch_add(1, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Number of heap allocations (incl. reallocations) performed by `work`
/// on the calling thread.
fn heap_ops_during(mut work: impl FnMut()) -> u64 {
    let before = HEAP_OPS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    HEAP_OPS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_encode_and_recode_paths_do_not_allocate() {
    const BLOCK: usize = 256;
    const G: usize = 8;
    const BATCH: usize = 4;

    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0xA110_C001);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(42);

    let mut pool = PayloadPool::new();
    let mut out = Vec::with_capacity(BATCH);

    // Warm-up: the pool fills with coefficient- and payload-sized buffers
    // and the checkout order is LIFO, so after a few cycles every buffer
    // settles into a fixed role with its final capacity.
    for _ in 0..16 {
        out.extend(
            (0..BATCH).map(|_| encoder.coded_packet_pooled(session, 0, &mut rng, &mut pool)),
        );
        for pkt in out.drain(..) {
            pool.recycle(pkt);
        }
    }
    let idle_before = pool.idle();

    let encode_allocs = heap_ops_during(|| {
        for _ in 0..64 {
            out.extend(
                (0..BATCH).map(|_| encoder.coded_packet_pooled(session, 0, &mut rng, &mut pool)),
            );
            for pkt in out.drain(..) {
                pool.recycle(pkt);
            }
        }
    });
    assert_eq!(
        encode_allocs, 0,
        "warm batch encode must not touch the heap (256 packets coded)"
    );
    assert_eq!(
        pool.idle(),
        idle_before,
        "every buffer returned to the pool"
    );

    // Recode at full rank: the relay steady state.
    let mut recoder = Recoder::new(config, session, 0);
    while recoder.rank() < G {
        let pkt = encoder.coded_packet(session, 0, &mut rng);
        recoder
            .absorb(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
    }
    for _ in 0..16 {
        let pkt = recoder
            .recode_into(&mut rng, &mut pool)
            .expect("recoder is non-empty");
        pool.recycle(pkt);
    }

    let recode_allocs = heap_ops_during(|| {
        for _ in 0..256 {
            let pkt = recoder
                .recode_into(&mut rng, &mut pool)
                .expect("recoder is non-empty");
            pool.recycle(pkt);
        }
    });
    assert_eq!(
        recode_allocs, 0,
        "warm recode must not touch the heap (256 packets recoded)"
    );

    // The sparse emitter shares the pool and the weight scratch.
    let sparse = CodingMode::Sparse { nonzeros: 3 };
    for _ in 0..16 {
        let pkt = recoder
            .recode_mode_into(sparse, &mut rng, &mut pool)
            .expect("recoder is non-empty");
        pool.recycle(pkt);
    }
    let sparse_recode_allocs = heap_ops_during(|| {
        for _ in 0..256 {
            let pkt = recoder
                .recode_mode_into(sparse, &mut rng, &mut pool)
                .expect("recoder is non-empty");
            pool.recycle(pkt);
        }
    });
    assert_eq!(
        sparse_recode_allocs, 0,
        "warm sparse recode must not touch the heap"
    );
}

/// The fused row kernel batches its row pointers through a stack array:
/// any number of rows, on either side of the 32-row batch, costs no heap
/// operation.
#[test]
fn row_kernel_does_not_allocate() {
    const ROWS: usize = 70;
    let mut rng = StdRng::seed_from_u64(0x0F05_ED01);
    let rows: Vec<Vec<u8>> = (0..ROWS)
        .map(|_| {
            let mut row = vec![0u8; 1460];
            rng.fill(&mut row[..]);
            row
        })
        .collect();
    let mut coeffs = [0u8; ROWS];
    rng.fill(&mut coeffs[..]);
    let mut dst = vec![0u8; 1460];
    let allocs = heap_ops_during(|| {
        for count in [1, 31, 32, 33, ROWS] {
            let pairs = coeffs[..count].iter().copied();
            bulk::mul_add_rows(&mut dst, pairs.zip(&rows));
        }
    });
    assert_eq!(allocs, 0, "the row kernel must not touch the heap");
}

/// Packets that add no rank — duplicates below full rank (reduced in the
/// scratch rows, payload never read) and anything past full rank — cost
/// a decoder and a recoder no heap operation.
#[test]
fn redundant_packets_do_not_allocate() {
    const G: usize = 8;
    let config = GenerationConfig::new(256, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0x0DD5_0DD5);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(45);
    let packets: Vec<_> = (0..G + 4)
        .map(|_| encoder.coded_packet(session, 0, &mut rng))
        .collect();

    let mut decoder = GenerationDecoder::new(config);
    let mut recoder = Recoder::new(config, session, 0);
    for pkt in &packets[..G / 2] {
        decoder
            .receive(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
        recoder
            .absorb(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
    }
    let replay = |decoder: &mut GenerationDecoder, recoder: &mut Recoder, want| {
        heap_ops_during(|| {
            for pkt in &packets[..G / 2] {
                let outcome = decoder
                    .receive(pkt.coefficients(), pkt.payload())
                    .expect("layout matches");
                assert_eq!(outcome, want);
                let innovative = recoder
                    .absorb(pkt.coefficients(), pkt.payload())
                    .expect("layout matches");
                assert!(!innovative);
            }
        })
    };
    assert_eq!(
        replay(&mut decoder, &mut recoder, ReceiveOutcome::Redundant),
        0,
        "duplicates below full rank must not touch the heap"
    );
    for pkt in &packets {
        decoder
            .receive(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
        recoder
            .absorb(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
    }
    assert!(decoder.is_complete());
    assert_eq!(
        replay(&mut decoder, &mut recoder, ReceiveOutcome::AlreadyComplete),
        0,
        "packets past full rank must not touch the heap"
    );
}

#[test]
fn warm_sparse_emission_does_not_allocate() {
    const BLOCK: usize = 256;
    const G: usize = 16;
    const BATCH: usize = 4;

    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0x5AA5_1DEA);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(43);
    let mode = CodingMode::sparse_default(G);

    let mut pool = PayloadPool::new();
    let mut out = Vec::with_capacity(BATCH);

    // Warm-up covers both halves of the mode: the systematic first pass
    // (seq < g) and the sparse repair tail.
    for cycle in 0..16u64 {
        let first_seq = (cycle * BATCH as u64) % (2 * G as u64);
        out.extend((0..BATCH as u64).map(|i| {
            encoder.mode_packet_pooled(mode, session, 0, first_seq + i, &mut rng, &mut pool)
        }));
        for pkt in out.drain(..) {
            pool.recycle(pkt);
        }
    }
    let idle_before = pool.idle();

    let sparse_allocs = heap_ops_during(|| {
        for cycle in 0..64u64 {
            let first_seq = (cycle * BATCH as u64) % (2 * G as u64);
            out.extend((0..BATCH as u64).map(|i| {
                encoder.mode_packet_pooled(mode, session, 0, first_seq + i, &mut rng, &mut pool)
            }));
            for pkt in out.drain(..) {
                pool.recycle(pkt);
            }
        }
    });
    assert_eq!(
        sparse_allocs, 0,
        "warm sparse/systematic emission must not touch the heap"
    );
    assert_eq!(
        pool.idle(),
        idle_before,
        "every buffer returned to the pool"
    );
}

#[test]
fn warm_window_emission_and_recode_do_not_allocate() {
    const SYMBOL: usize = 256;
    const CAPACITY: usize = 16;

    let window = WindowConfig::new(SYMBOL, CAPACITY).expect("valid window");
    let session = SessionId::new(44);
    let mut rng = StdRng::seed_from_u64(0xD0_511DE);
    let mut encoder = WindowEncoder::new(window, session);
    let mut symbol = vec![0u8; SYMBOL];
    for _ in 0..CAPACITY {
        rng.fill(&mut symbol[..]);
        encoder.push(&symbol).expect("window has room");
    }

    let mut pool = PayloadPool::new();

    // Warm-up: systematic and coded emission settle the pool buffers.
    for i in 0..16u64 {
        let pkt = encoder
            .systematic_packet_pooled(i % CAPACITY as u64, &mut pool)
            .expect("symbol is live");
        pool.recycle(pkt);
        let pkt = encoder
            .coded_packet_pooled(&mut rng, &mut pool)
            .expect("window is non-empty");
        pool.recycle(pkt);
    }
    let idle_before = pool.idle();

    let emit_allocs = heap_ops_during(|| {
        for i in 0..64u64 {
            let pkt = encoder
                .systematic_packet_pooled(i % CAPACITY as u64, &mut pool)
                .expect("symbol is live");
            pool.recycle(pkt);
            let pkt = encoder
                .coded_packet_pooled(&mut rng, &mut pool)
                .expect("window is non-empty");
            pool.recycle(pkt);
        }
    });
    assert_eq!(
        emit_allocs, 0,
        "warm window emission must not touch the heap"
    );
    assert_eq!(
        pool.idle(),
        idle_before,
        "every buffer returned to the pool"
    );

    // Relay steady state: a full recoder re-mixing the live window.
    let mut recoder = WindowRecoder::new(window, session);
    for _ in 0..CAPACITY {
        let pkt = encoder
            .coded_packet_pooled(&mut rng, &mut pool)
            .expect("window is non-empty");
        recoder
            .absorb(pkt.index(), pkt.coefficients(), pkt.payload())
            .expect("layout matches");
        pool.recycle(pkt);
    }
    for _ in 0..16 {
        let pkt = recoder
            .recode_into(&mut rng, &mut pool)
            .expect("recoder is non-empty");
        pool.recycle(pkt);
    }

    let recode_allocs = heap_ops_during(|| {
        for _ in 0..256 {
            let pkt = recoder
                .recode_into(&mut rng, &mut pool)
                .expect("recoder is non-empty");
            pool.recycle(pkt);
        }
    });
    assert_eq!(
        recode_allocs, 0,
        "warm window recode must not touch the heap (256 packets recoded)"
    );
}
