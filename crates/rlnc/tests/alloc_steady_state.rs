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

use ncvnf_gf256::bulk;
use ncvnf_rlnc::{
    GenerationConfig, GenerationDecoder, GenerationEncoder, PayloadPool, ReceiveOutcome, Recoder,
    SessionId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    // Count only allocations made by the thread under measurement: the
    // libtest main thread lazily initializes its mpsc receiver context
    // (one-time ~48 B Arc) while blocked waiting for the test result,
    // which otherwise races into the measured window. Const-initialized
    // native TLS for a `Cell<bool>` never allocates, so reading the flag
    // inside the allocator is safe.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    // The count is per thread too, so tests measuring on parallel
    // threads never see each other's heap operations.
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_measuring() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = HEAP_OPS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
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
fn warm_wire_encode_does_not_allocate() {
    // What the transfer source does per packet: the coded packet is
    // written straight into the outbound arena, reused every burst.
    let config = GenerationConfig::new(1460, 4).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0x5EED_0E1C);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(42);
    let mut arena = Vec::new();
    for _ in 0..8 {
        arena.clear();
        encoder.coded_wire_into(session, 0, &mut rng, &mut arena);
    }
    let allocs = heap_ops_during(|| {
        for generation in 0..256 {
            arena.clear();
            encoder.coded_wire_into(session, generation, &mut rng, &mut arena);
        }
    });
    assert_eq!(allocs, 0, "warm wire encode must not touch the heap");
    assert_eq!(arena.len(), 8 + 4 + 1460, "one packet per pass");
}

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

/// Decoding a whole generation costs the decoder one heap operation: its
/// payload store, reserved on the first innovative packet and reused by
/// every later one and by the back-substitution at full rank. The bound
/// leaves room for one more: the first field inversion in the process
/// builds the GF(2^8) tables if no kernel has needed them yet.
#[test]
fn decoding_a_generation_reserves_once() {
    for g in [32, 4] {
        let config = GenerationConfig::new(1460, g).expect("valid layout");
        let mut rng = StdRng::seed_from_u64(0xDEC0_0DE5);
        let mut data = vec![0u8; config.generation_payload()];
        rng.fill(&mut data[..]);
        let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
        let session = SessionId::new(46);
        let packets: Vec<_> = (0..2 * g)
            .map(|_| encoder.coded_packet(session, 0, &mut rng))
            .collect();
        let mut decoder = GenerationDecoder::new(config);
        let allocs = heap_ops_during(|| {
            for pkt in &packets {
                decoder
                    .receive(pkt.coefficients(), pkt.payload())
                    .expect("layout matches");
            }
        });
        assert!(decoder.is_complete());
        assert_eq!(decoder.decoded_payload().expect("full rank"), data);
        assert!(
            allocs <= 2,
            "receive over one generation at g = {g} cost {allocs} heap ops"
        );
    }
}
