//! `NCVNF_GF256_KERNEL=gfni` pins dispatch to the GFNI/AVX-512 tier.
//!
//! Own test binary for the same reason as `forced_tier_env.rs`: the tier
//! is resolved once per process, so the variable must be set before
//! anything touches `bulk`. Unlike SWAR, GFNI is not universally
//! available — on hosts without it the test skips (prints and returns)
//! rather than failing, so the suite stays green on older CPUs.

use ncvnf_gf256::{bulk, Gf256};

#[test]
fn env_var_pins_the_gfni_tier_and_matches_the_field() {
    if !bulk::KernelTier::Gfni.is_supported() {
        eprintln!("skipping: CPU lacks GFNI/AVX-512 (gfni+avx512f+avx512bw)");
        return;
    }
    std::env::set_var("NCVNF_GF256_KERNEL", "gfni");

    assert_eq!(bulk::kernel_tier(), bulk::KernelTier::Gfni);

    // The dispatched entry points now run on the GFNI kernel and must
    // match the scalar field arithmetic, including the non-multiple-of-64
    // tail of a 1461-byte slice.
    let c = 0x9Du8;
    let src: Vec<u8> = (0..1461u32)
        .map(|i| (i.wrapping_mul(7) >> 2) as u8)
        .collect();
    let mut dst = vec![0u8; src.len()];
    bulk::mul_slice(&mut dst, &src, c);
    for (&d, &s) in dst.iter().zip(&src) {
        assert_eq!(d, (Gf256::new(c) * Gf256::new(s)).value());
    }

    let mut acc = vec![0xA5u8; src.len()];
    bulk::mul_add_slice(&mut acc, &src, c);
    for (&a, &d) in acc.iter().zip(&dst) {
        assert_eq!(a, 0xA5 ^ d);
    }

    let mut scaled = src.clone();
    bulk::scale_slice(&mut scaled, c);
    assert_eq!(scaled, dst);

    // The dispatched row kernel on the pinned tier: lengths around the
    // 64-byte vector, the 256-byte register block and the masked tail
    // (52 = 1460 mod 64), row counts across the 32-row stack batch,
    // coefficients 0 and 1 among them, rows at odd addresses.
    for len in [
        0usize, 1, 15, 16, 31, 32, 33, 52, 63, 64, 65, 255, 256, 257, 1460, 1464, 1492,
    ] {
        for count in [0usize, 1, 2, 31, 32, 33, 64] {
            let stride = len + 3;
            let backing: Vec<u8> = (0..count * stride + 1)
                .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
                .collect();
            let rows: Vec<&[u8]> = (0..count)
                .map(|i| &backing[i * stride + 1..][..len])
                .collect();
            let coeffs: Vec<u8> = (0..count).map(|i| (i as u8).wrapping_mul(37)).collect();
            let mut got = vec![0x5Au8; len];
            bulk::mul_add_rows(&mut got, coeffs.iter().copied().zip(rows.iter().copied()));
            for (at, &byte) in got.iter().enumerate() {
                let want = coeffs.iter().zip(&rows).fold(0x5Au8, |acc, (&c, row)| {
                    acc ^ (Gf256::new(c) * Gf256::new(row[at])).value()
                });
                assert_eq!(byte, want, "len={len} rows={count} at={at}");
            }

            // The same rows into one to four destinations at once, each
            // with its own coefficients: destination d takes row i at
            // `coeffs[i] ^ d`, so every lane differs.
            for dests in 1..=bulk::MAX_DESTINATIONS {
                let mut out = vec![vec![0x5Au8; len]; dests];
                let mut targets: Vec<&mut [u8]> = out.iter_mut().map(|d| &mut d[..]).collect();
                let lanes: Vec<Vec<u8>> = coeffs
                    .iter()
                    .map(|&c| (0..dests as u8).map(|d| c ^ d).collect())
                    .collect();
                bulk::mul_add_rows_multi(&mut targets, lanes.iter().zip(rows.iter().copied()));
                for (d, got) in out.iter().enumerate() {
                    let mut want = vec![0x5Au8; len];
                    let single = coeffs.iter().map(|&c| c ^ d as u8);
                    bulk::KernelTier::Scalar
                        .mul_add_rows(&mut want, single.zip(rows.iter().copied()));
                    assert_eq!(got, &want, "len={len} rows={count} dests={dests} d={d}");
                }
            }
        }
    }
}
