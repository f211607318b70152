//! Differential tests for the bulk-kernel tiers.
//!
//! Every compiled tier the CPU supports must agree, byte for byte, with a
//! reference computed from the scalar `Gf256` field API — for every
//! coefficient, for lengths that straddle each kernel's vector width, and
//! for slices that do not start on an aligned address.

use ncvnf_gf256::{bulk, Gf256};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lengths that stress kernel edge handling: empty, below/at/past the
/// 8-byte SWAR word, the 16-byte SSSE3, 32-byte AVX2, and 64-byte
/// GFNI/AVX-512 vector widths, and the paper's 1460-byte MTU payload
/// plus one.
const EDGE_LENGTHS: &[usize] = &[
    0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1460, 1461,
];

fn supported_tiers() -> Vec<bulk::KernelTier> {
    bulk::compiled_tiers()
        .iter()
        .copied()
        .filter(|t| t.is_supported())
        .collect()
}

/// `c * src[i]` computed one byte at a time through the field API, with
/// no shared code or tables with the bulk kernels' fast paths.
fn reference_mul(src: &[u8], c: u8) -> Vec<u8> {
    src.iter()
        .map(|&s| (Gf256::new(c) * Gf256::new(s)).value())
        .collect()
}

fn check_all_ops(tier: bulk::KernelTier, dst0: &[u8], src: &[u8], c: u8, label: &str) {
    let product = reference_mul(src, c);
    let accumulated: Vec<u8> = dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();

    let mut dst = dst0.to_vec();
    tier.mul_slice(&mut dst, src, c);
    assert_eq!(dst, product, "mul_slice {label} tier={} c={c}", tier.name());

    let mut dst = dst0.to_vec();
    tier.mul_add_slice(&mut dst, src, c);
    assert_eq!(
        dst,
        accumulated,
        "mul_add_slice {label} tier={} c={c}",
        tier.name()
    );

    let mut dst = src.to_vec();
    tier.scale_slice(&mut dst, c);
    assert_eq!(
        dst,
        product,
        "scale_slice {label} tier={} c={c}",
        tier.name()
    );
}

/// Every tier × every coefficient × every edge length.
#[test]
fn every_tier_matches_field_reference_for_all_coefficients() {
    let mut rng = StdRng::seed_from_u64(0x7135_0001);
    for &len in EDGE_LENGTHS {
        let mut src = vec![0u8; len];
        let mut dst0 = vec![0u8; len];
        rng.fill(&mut src[..]);
        rng.fill(&mut dst0[..]);
        for c in 0..=255u8 {
            for tier in supported_tiers() {
                check_all_ops(tier, &dst0, &src, c, &format!("len={len}"));
            }
        }
    }
}

/// Lengths for the fused row kernel: around every vector width, the
/// four-vector register block of each tier (64 / 128 / 256 bytes), the
/// 52-byte tail of a 1460-byte payload, and the payload itself.
const ROW_LENGTHS: &[usize] = &[0, 1, 15, 16, 31, 32, 52, 63, 64, 65, 255, 256, 257, 1460];

/// Row counts around the dispatch layer's 32-row stack batch.
const ROW_COUNTS: &[usize] = &[0, 1, 2, 31, 32, 33, 64];

/// `dst0 ^ Σ cᵢ·rowᵢ`, one byte at a time through the field API.
fn reference_rows(dst0: &[u8], coeffs: &[u8], rows: &[&[u8]]) -> Vec<u8> {
    let mut want = dst0.to_vec();
    for (&c, row) in coeffs.iter().zip(rows) {
        for (w, p) in want.iter_mut().zip(reference_mul(row, c)) {
            *w ^= p;
        }
    }
    want
}

/// The fused row kernel: every tier × every length × every row count,
/// rows at odd offsets inside one allocation, coefficients that include
/// 0 (skipped by the front-end) and 1 (the identity operand).
#[test]
fn every_tier_row_kernel_matches_field_reference() {
    let mut rng = StdRng::seed_from_u64(0x7135_0004);
    for &len in ROW_LENGTHS {
        for &count in ROW_COUNTS {
            // Row i starts i % 7 + 1 bytes past a multiple of `len + 8`,
            // so neither operand is aligned to anything.
            let stride = len + 8;
            let mut backing = vec![0u8; count * stride + 8];
            rng.fill(&mut backing[..]);
            let rows: Vec<&[u8]> = (0..count)
                .map(|i| &backing[i * stride + i % 7 + 1..][..len])
                .collect();
            let mut coeffs = vec![0u8; count];
            rng.fill(&mut coeffs[..]);
            for (i, c) in coeffs.iter_mut().enumerate() {
                match i % 5 {
                    0 => *c = 0,
                    3 => *c = 1,
                    _ => {}
                }
            }
            let mut dst_buf = vec![0u8; len + 3];
            rng.fill(&mut dst_buf[..]);
            let dst0 = &dst_buf[3..];
            let want = reference_rows(dst0, &coeffs, &rows);
            for tier in supported_tiers() {
                let mut buf = dst_buf.clone();
                tier.mul_add_rows(
                    &mut buf[3..],
                    coeffs.iter().copied().zip(rows.iter().copied()),
                );
                assert_eq!(
                    &buf[3..],
                    &want[..],
                    "mul_add_rows tier={} len={len} rows={count}",
                    tier.name()
                );
                assert_eq!(buf[..3], dst_buf[..3], "wrote before dst");
            }
            let mut buf = dst_buf.clone();
            bulk::mul_add_rows(
                &mut buf[3..],
                coeffs.iter().copied().zip(rows.iter().copied()),
            );
            assert_eq!(&buf[3..], &want[..], "dispatched len={len} rows={count}");
        }
    }
}

/// Lengths for the multi-destination row kernel: around every vector
/// width and register block, and the 1464 B and 1492 B rows of a relay's
/// wire bodies.
const MULTI_LENGTHS: &[usize] = &[1, 15, 16, 31, 32, 33, 63, 64, 65, 255, 256, 257, 1464, 1492];

/// The multi-destination row kernel: every tier × 1–4 destinations ×
/// every length × every row count, against one single-destination
/// scalar call per destination. Rows and destinations sit at odd offsets
/// inside one allocation each, with guard bytes between them that no
/// call may touch.
#[test]
fn every_tier_multi_destination_kernel_matches_single_destination_scalar() {
    const GUARD: usize = 5;
    let mut rng = StdRng::seed_from_u64(0x7135_0006);
    for &len in MULTI_LENGTHS {
        for &count in ROW_COUNTS {
            let stride = len + 8;
            let mut backing = vec![0u8; count * stride + 8];
            rng.fill(&mut backing[..]);
            let rows: Vec<&[u8]> = (0..count)
                .map(|i| &backing[i * stride + i % 7 + 1..][..len])
                .collect();
            for dests in 1..=bulk::MAX_DESTINATIONS {
                let mut coeffs = vec![0u8; count * dests];
                rng.fill(&mut coeffs[..]);
                for (i, c) in coeffs.iter_mut().enumerate() {
                    match i % 7 {
                        0 => *c = 0,
                        3 => *c = 1,
                        _ => {}
                    }
                }
                // Every fourth row is zero for every destination.
                for row in coeffs.chunks_exact_mut(dests).step_by(4) {
                    row.fill(0);
                }
                let mut dst_buf = vec![0u8; dests * (len + GUARD) + 3];
                rng.fill(&mut dst_buf[..]);
                let at = |d: usize| 3 + d * (len + GUARD);
                let want: Vec<Vec<u8>> = (0..dests)
                    .map(|d| {
                        let mut want = dst_buf[at(d)..][..len].to_vec();
                        bulk::KernelTier::Scalar.mul_add_rows(
                            &mut want,
                            coeffs
                                .chunks_exact(dests)
                                .map(|c| c[d])
                                .zip(rows.iter().copied()),
                        );
                        want
                    })
                    .collect();
                let mut runs: Vec<(String, Vec<u8>)> = Vec::new();
                for tier in supported_tiers() {
                    let mut buf = dst_buf.clone();
                    let mut dsts = destinations(&mut buf[3..], len, GUARD);
                    tier.mul_add_rows_multi(
                        &mut dsts,
                        coeffs.chunks_exact(dests).zip(rows.iter().copied()),
                    );
                    runs.push((tier.name().to_string(), buf));
                }
                let mut buf = dst_buf.clone();
                let mut dsts = destinations(&mut buf[3..], len, GUARD);
                bulk::mul_add_rows_multi(
                    &mut dsts,
                    coeffs.chunks_exact(dests).zip(rows.iter().copied()),
                );
                runs.push(("dispatched".to_string(), buf));
                for (name, buf) in runs {
                    let label = format!("{name} len={len} rows={count} dests={dests}");
                    assert_eq!(buf[..3], dst_buf[..3], "{label}: wrote before");
                    for (d, want) in want.iter().enumerate() {
                        assert_eq!(&buf[at(d)..][..len], &want[..], "{label} d={d}");
                        assert_eq!(
                            buf[at(d) + len..][..GUARD],
                            dst_buf[at(d) + len..][..GUARD],
                            "{label}: wrote past d={d}"
                        );
                    }
                }
            }
        }
    }
}

/// The first `len` bytes of each `len + guard`-byte chunk of `buf`.
fn destinations(buf: &mut [u8], len: usize, guard: usize) -> Vec<&mut [u8]> {
    buf.chunks_mut(len + guard)
        .map(|chunk| &mut chunk[..len])
        .collect()
}

/// Neither the masked nor the padded tail may touch a byte past the
/// slice: the kernels run on the front of a longer buffer whose back is
/// checked afterwards.
#[test]
fn no_tier_writes_past_the_slice() {
    let mut rng = StdRng::seed_from_u64(0x7135_0005);
    for &len in ROW_LENGTHS {
        let mut src = vec![0u8; len + 64];
        let mut guard = vec![0u8; len + 64];
        rng.fill(&mut src[..]);
        rng.fill(&mut guard[..]);
        for tier in supported_tiers() {
            let mut buf = guard.clone();
            tier.mul_slice(&mut buf[..len], &src[..len], 0x53);
            tier.mul_add_slice(&mut buf[..len], &src[..len], 0x8E);
            tier.scale_slice(&mut buf[..len], 0xC7);
            tier.mul_add_rows(&mut buf[..len], [(2u8, &src[..len]), (0xFF, &src[..len])]);
            assert_eq!(buf[len..], guard[len..], "tier={} len={len}", tier.name());
        }
    }
}

#[test]
#[should_panic(expected = "length mismatch")]
fn row_kernel_rejects_a_short_row() {
    let mut dst = [0u8; 64];
    bulk::mul_add_rows(&mut dst, [(3u8, &[1u8; 64][..]), (5, &[1u8; 63][..])]);
}

/// Slices that start 1..8 bytes past an allocation boundary, so the SIMD
/// tiers cannot assume 16/32-byte alignment of either operand.
#[test]
fn every_tier_matches_on_unaligned_slices() {
    let mut rng = StdRng::seed_from_u64(0x7135_0002);
    let len = 1461;
    for offset in 1..8usize {
        let mut src_buf = vec![0u8; len + offset];
        let mut dst_buf = vec![0u8; len + offset];
        rng.fill(&mut src_buf[..]);
        rng.fill(&mut dst_buf[..]);
        let src = &src_buf[offset..];
        let dst0 = &dst_buf[offset..];
        for &c in &[0u8, 1, 2, 0x53, 0x8E, 0xFF] {
            for tier in supported_tiers() {
                check_all_ops(tier, dst0, src, c, &format!("offset={offset}"));
            }
        }
    }
}

/// The process-wide dispatched entry points agree with the field too
/// (whatever tier dispatch picked on this machine).
#[test]
fn dispatched_entry_points_match_field_reference() {
    let mut rng = StdRng::seed_from_u64(0x7135_0003);
    let len = 1460;
    let mut src = vec![0u8; len];
    let mut dst0 = vec![0u8; len];
    rng.fill(&mut src[..]);
    rng.fill(&mut dst0[..]);
    for &c in &[0u8, 1, 0x35, 0xC7] {
        let product = reference_mul(&src, c);

        let mut dst = dst0.clone();
        bulk::mul_slice(&mut dst, &src, c);
        assert_eq!(dst, product);

        let mut dst = dst0.clone();
        bulk::mul_add_slice(&mut dst, &src, c);
        let accumulated: Vec<u8> = dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();
        assert_eq!(dst, accumulated);

        let mut dst = src.clone();
        bulk::scale_slice(&mut dst, c);
        assert_eq!(dst, product);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random data, random coefficient, random length and start offset:
    /// all tiers agree with the field reference.
    #[test]
    fn tiers_agree_on_random_slices(
        data in prop::collection::vec(any::<u8>(), 0..1600usize),
        c in any::<u8>(),
        offset in 0usize..8,
    ) {
        let offset = offset.min(data.len());
        let src = &data[offset..];
        // Deterministic second operand so `mul_add` sees a non-trivial dst.
        let dst0: Vec<u8> = src.iter().map(|b| b.wrapping_mul(31).wrapping_add(7)).collect();
        let product = reference_mul(src, c);
        let accumulated: Vec<u8> =
            dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();

        for tier in supported_tiers() {
            let mut dst = dst0.clone();
            tier.mul_slice(&mut dst, src, c);
            prop_assert_eq!(&dst, &product);

            let mut dst = dst0.clone();
            tier.mul_add_slice(&mut dst, src, c);
            prop_assert_eq!(&dst, &accumulated);

            let mut dst = src.to_vec();
            tier.scale_slice(&mut dst, c);
            prop_assert_eq!(&dst, &product);
        }
    }
}
