//! End-to-end VNF packet pipeline: parse → recode → serialize.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ncvnf_dataplane::{CodingVnf, VnfDecision, VnfRole};
use ncvnf_rlnc::{GenerationConfig, GenerationEncoder, SessionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("vnf_pipeline");
    let cfg = GenerationConfig::paper_default();
    let data = vec![0x5Au8; cfg.generation_payload()];
    let enc = GenerationEncoder::new(cfg, &data).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    // Pre-serialize a stream of wire packets across many generations.
    let wires: Vec<Vec<u8>> = (0..1024)
        .map(|g| {
            enc.coded_packet(SessionId::new(1), g % 64, &mut rng)
                .to_bytes()
                .to_vec()
        })
        .collect();
    group.throughput(Throughput::Bytes(cfg.packet_len() as u64));
    for role in [VnfRole::Recoder, VnfRole::Forwarder] {
        let mut vnf = CodingVnf::new(cfg, 1024);
        vnf.set_role(SessionId::new(1), role);
        let mut i = 0usize;
        let mut out = Vec::new();
        group.bench_function(format!("process_wire_into_{role}"), |b| {
            b.iter(|| {
                let wire = &wires[i % wires.len()];
                i += 1;
                let decision = vnf.process_wire_into(black_box(wire), 1, &mut rng, &mut out);
                for pkt in out.drain(..) {
                    vnf.recycle(pkt);
                }
                match decision {
                    VnfDecision::Forwarded(n) => black_box(n),
                    _ => 0,
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
