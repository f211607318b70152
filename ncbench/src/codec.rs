//! `codec_g32`: the codec chain on one thread with no sockets.
//!
//! Per generation: `GenerationEncoder` → wire bytes → `CodingVnf`
//! (recoder) `process_wire_into` → wire bytes →
//! `GenerationDecoder::receive` → `decoded_payload`, compared with the
//! source. Coded packets are fed until the generation decodes: at g=32 a
//! fixed g+1 would leave about one generation in 120 short of rank
//! (each pipelined recode is non-innovative once in 256), and a
//! workload may not fail by design.

use std::time::Instant;

use ncvnf_dataplane::{CodingVnf, VnfRole};
use ncvnf_rlnc::{
    CodedPacket, GenerationConfig, GenerationDecoder, GenerationEncoder, PacketView, PayloadPool,
    SessionId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{bytes, derive, SESSION};
use crate::stats::{median, PerSlice, Percentiles};
use crate::trace::Tracer;
use crate::{timed_setup, Options, Report};

const G: usize = 32;
const BLOCK: usize = 1460;
/// Generations per object (≈ 3 MB); objects run back to back.
const GENERATIONS_PER_OBJECT: usize = 64;
/// Generations the recoder buffers: four objects' worth, so state is
/// created, filled and evicted as generation numbers advance.
const BUFFERED_GENERATIONS: usize = 256;

struct Chain {
    config: GenerationConfig,
    object: Vec<u8>,
    /// The copy every decoded generation is compared against.
    expected: Vec<u8>,
    vnf: CodingVnf,
    encoder_rng: StdRng,
    vnf_rng: StdRng,
    pool: PayloadPool,
    wire_in: Vec<u8>,
    wire_out: Vec<u8>,
    emitted: Vec<CodedPacket>,
    next_generation: u64,
}

/// Totals over the generations one call processed.
#[derive(Default)]
struct Tally {
    generations: u64,
    wrong: u64,
    packets: u64,
    gen_us: Vec<f64>,
}

impl Chain {
    fn new(seed: u64) -> Chain {
        let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
        let object = bytes(
            derive(seed, 2),
            GENERATIONS_PER_OBJECT * config.generation_payload(),
        );
        let mut vnf = CodingVnf::new(config, BUFFERED_GENERATIONS);
        vnf.set_role(SessionId::new(SESSION), VnfRole::Recoder);
        Chain {
            config,
            expected: object.clone(),
            object,
            vnf,
            encoder_rng: StdRng::seed_from_u64(derive(seed, 3)),
            vnf_rng: StdRng::seed_from_u64(derive(seed, 4)),
            pool: PayloadPool::new(),
            wire_in: Vec::new(),
            wire_out: Vec::new(),
            emitted: Vec::new(),
            next_generation: 0,
        }
    }

    /// Runs generation `index` of the object through the chain. With a
    /// tracer, each call into a layer is a span under one `generation`
    /// parent.
    fn generation(&mut self, index: usize, tally: &mut Tally, mut tracer: Option<&mut Tracer>) {
        let session = SessionId::new(SESSION);
        let generation = self.next_generation;
        self.next_generation += 1;
        let per_gen = self.config.generation_payload();
        let range = index * per_gen..(index + 1) * per_gen;
        let t0 = Instant::now();
        let parent = tracer
            .as_deref_mut()
            .map(|t| t.begin("generation", None, generation));
        // `step!(name, expr)`: evaluates `expr`, as a span when tracing.
        macro_rules! step {
            ($name:literal, $work:expr) => {
                match (tracer.as_deref_mut(), parent) {
                    (Some(t), Some(p)) => t.span($name, p, || $work),
                    _ => $work,
                }
            };
        }
        let encoder = step!(
            "rlnc.encoder.new",
            GenerationEncoder::new(self.config, &self.object[range.clone()])
                .expect("layout matches")
        );
        let mut decoder = GenerationDecoder::new(self.config);
        let mut fed = 0;
        while !decoder.is_complete() && fed < 2 * G {
            fed += 1;
            let pkt = step!(
                "rlnc.encoder.coded_packet",
                encoder.coded_packet_pooled(
                    session,
                    generation,
                    &mut self.encoder_rng,
                    &mut self.pool
                )
            );
            step!("rlnc.header.write_into", {
                self.wire_in.clear();
                pkt.write_into(&mut self.wire_in);
            });
            self.pool.recycle(pkt);
            step!(
                "dataplane.vnf.process_wire_into",
                self.vnf
                    .process_wire_into(&self.wire_in, 1, &mut self.vnf_rng, &mut self.emitted)
            );
            for out in self.emitted.drain(..) {
                step!("rlnc.header.write_into", {
                    self.wire_out.clear();
                    out.write_into(&mut self.wire_out);
                });
                self.vnf.recycle(out);
                step!("rlnc.decoder.receive", {
                    if let Ok(view) = PacketView::parse(&self.wire_out, G) {
                        let _ = decoder.receive(view.coefficients(), view.payload());
                    }
                });
            }
        }
        let decoded = step!("rlnc.decoder.decoded_payload", decoder.decoded_payload());
        let same = step!(
            "compare",
            decoded.is_ok_and(|got| got == self.expected[range.clone()])
        );
        if let (Some(t), Some(p)) = (tracer, parent) {
            t.end(p);
            t.count("packets", fed as u64);
        }
        tally.generations += 1;
        tally.packets += fed as u64;
        tally.wrong += u64::from(!same);
        tally.gen_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    /// Whole objects, back to back, until `deadline`.
    fn objects_until(&mut self, deadline: Instant, mut tracer: Option<&mut Tracer>) -> Tally {
        let mut tally = Tally::default();
        loop {
            for index in 0..GENERATIONS_PER_OBJECT {
                self.generation(index, &mut tally, tracer.as_deref_mut());
            }
            if Instant::now() >= deadline {
                return tally;
            }
        }
    }
}

/// Source blocks verified per second over `tally`'s generations.
fn blocks_per_s(tally: &Tally, secs: f64) -> f64 {
    ((tally.generations - tally.wrong) * G as u64) as f64 / secs
}

pub(crate) fn run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let (mut chain, setup_s) = timed_setup(opts.setup_repeats(), || Chain::new(opts.seed));
    if opts.self_test {
        chain.expected[0] ^= 0xFF;
    }
    chain.objects_until(Instant::now() + opts.warm_up(), None);

    let (mut rate, mut gen_p50) = (PerSlice::default(), PerSlice::default());
    let mut all_us = Vec::new();
    let (mut generations, mut wrong, mut packets) = (0, 0, 0);
    for _ in 0..opts.timed_slices() {
        let t0 = Instant::now();
        let mut tally = chain.objects_until(t0 + opts.slice(), None);
        rate.push(blocks_per_s(&tally, t0.elapsed().as_secs_f64()));
        gen_p50.push(median(&mut tally.gen_us));
        all_us.append(&mut tally.gen_us);
        generations += tally.generations;
        wrong += tally.wrong;
        packets += tally.packets;
    }
    report.count(generations, wrong);
    let goodput = |blocks_per_s: f64| blocks_per_s * BLOCK as f64 * 8.0 / 1e6;
    report.note(format!(
        "goodput_mbps {:.1} Mbit/s = ops_per_s x {BLOCK} B x 8; ops_per_s best slice {:.0}, median {rate}; closed loop, 1 in flight",
        goodput(rate.max()),
        rate.max()
    ));
    report.note(format!(
        "generation through the chain: p50 of the best slice {:.2}, median {gen_p50} us; all samples: {} us",
        gen_p50.min(),
        Percentiles::of(&mut all_us)
    ));
    report.note(format!(
        "{generations} generations ({} objects) compared, {wrong} wrong; {packets} packets for {} blocks (base)",
        generations / GENERATIONS_PER_OBJECT as u64,
        generations * G as u64
    ));

    if opts.trace {
        // Sliced like the timed part, so best slice compares with best
        // slice.
        let mut tracer = Tracer::new();
        let mut traced_rate = PerSlice::default();
        for _ in 0..opts.timed_slices() {
            let t0 = Instant::now();
            let tally = chain.objects_until(t0 + opts.slice(), Some(&mut tracer));
            traced_rate.push(blocks_per_s(&tally, t0.elapsed().as_secs_f64()));
            report.count(tally.generations, tally.wrong);
        }
        tracer.report("codec_g32", rate.max(), traced_rate.max(), report)?;
    } else {
        // CPU-bound: interference only ever slows a slice, so the best
        // slice is the steadier estimate (README, "Best slice or median").
        report.set("ops_per_s", rate.max());
        report.set("latency_us", gen_p50.min());
        report.set(
            "wire_overhead_ratio",
            packets as f64 / (generations * G as u64) as f64,
        );
        report.set("setup_s", setup_s);
    }
    Ok(())
}
