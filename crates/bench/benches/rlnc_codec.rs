//! RLNC codec throughput vs generation size — the microbench behind
//! Fig. 4's CPU-side tradeoff (Kodo-style measurement).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ncvnf_rlnc::{
    GenerationConfig, GenerationDecoder, GenerationEncoder, PayloadPool, Recoder, SessionId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rlnc_encode");
    for g in [4usize, 16, 64] {
        let cfg = GenerationConfig::new(1460, g).unwrap();
        let data = vec![0xABu8; cfg.generation_payload()];
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        group.throughput(Throughput::Bytes(cfg.block_size() as u64));
        group.bench_function(format!("coded_packet_g{g}"), |b| {
            b.iter(|| black_box(enc.coded_packet(SessionId::new(1), 0, &mut rng)))
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rlnc_decode");
    for g in [4usize, 16, 64] {
        let cfg = GenerationConfig::new(1460, g).unwrap();
        let data = vec![0xCDu8; cfg.generation_payload()];
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // Pre-generate enough packets to decode a full generation.
        let packets: Vec<_> = (0..2 * g)
            .map(|_| enc.coded_packet(SessionId::new(1), 0, &mut rng))
            .collect();
        group.throughput(Throughput::Bytes(cfg.generation_payload() as u64));
        group.bench_function(format!("full_generation_g{g}"), |b| {
            b.iter(|| {
                let mut dec = GenerationDecoder::new(cfg);
                for p in &packets {
                    if dec.is_complete() {
                        break;
                    }
                    let _ = dec.receive(p.coefficients(), p.payload());
                }
                black_box(dec.is_complete())
            })
        });
    }
    group.finish();
}

fn bench_recode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rlnc_recode");
    for g in [4usize, 16] {
        let cfg = GenerationConfig::new(1460, g).unwrap();
        let data = vec![0xEFu8; cfg.generation_payload()];
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut recoder = Recoder::new(cfg, SessionId::new(1), 0);
        for _ in 0..g {
            let p = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            let _ = recoder.absorb(p.coefficients(), p.payload());
        }
        group.throughput(Throughput::Bytes(cfg.block_size() as u64));
        let mut pool = PayloadPool::new();
        group.bench_function(format!("recode_packet_g{g}"), |b| {
            b.iter(|| {
                let pkt = recoder.recode_into(&mut rng, &mut pool).unwrap();
                pool.recycle(black_box(pkt));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_recode);
criterion_main!(benches);
