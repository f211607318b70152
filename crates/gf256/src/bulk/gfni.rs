//! GFNI + AVX-512 kernel: GF(2^8) constant multiplication via
//! `vgf2p8affineqb` on 64-byte registers.
//!
//! GFNI's dedicated multiply (`gf2p8mulb`) hardwires the AES polynomial
//! 0x11B, but this crate's field uses the Reed-Solomon polynomial 0x11D
//! (see `gf256::POLY`) — using the multiply instruction directly would be
//! silently wrong. Multiplication by a *constant* is a GF(2)-linear map on
//! the bits of the input byte, though, so it can be expressed as an 8×8
//! bit matrix and evaluated with the polynomial-agnostic affine
//! instruction (`vgf2p8affineqb`): one instruction per 64 bytes, no
//! nibble tables, no shuffles. This is the ISA-L / klauspost-reedsolomon
//! approach to GFNI over non-AES polynomials.
//!
//! The matrix for coefficient `c` has `c · x^j` as its column `j`, so
//! `matrix · bits(x) = bits(c·x)` for every `x`; all 256 matrices are
//! built at compile time ([`AFFINE`], 2 KiB), so a call's only
//! per-coefficient cost is one broadcast load. The one-row entries run at
//! full width wherever a whole vector fits: a slice's last vector is the
//! one ending at its last byte (64 bytes, or 32 for a 32–63-byte slice),
//! overlapping its predecessor. Only a slice shorter than 32 bytes, and
//! the row kernel's last partial vector, use AVX-512 byte-masked loads and
//! stores (masked-out lanes are neither read nor written). A load cannot
//! take its bytes from an earlier masked store, so a serial chain of
//! short-slice calls (`RankTracker`'s elimination over `g`-byte rows)
//! stalled on every link while a 32-byte slice was masked.
//!
//! Safety: each `#[target_feature]` function is only reachable through the
//! dispatch table after `is_x86_feature_detected!` confirmed GFNI and the
//! AVX-512 foundation + byte/word extensions (see
//! `KernelTier::is_supported`). Pointers are formed from slices whose
//! lengths the safe entry below has just checked, and every access stays
//! inside `[0, len)` of its slice: full vectors only while
//! `off + 64 <= len` (32-byte ones while `off + 32 <= len`), the remainder
//! under a `len - off`-lane mask.
#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::{partial_products, Ops, Row, MAX_DESTINATIONS};

pub(super) static GFNI_OPS: Ops = Ops {
    mul: mul_slice,
    mul_add: mul_add_slice,
    scale: scale_slice,
    mul_add_rows,
};

/// `AFFINE[c]` is the 8×8 GF(2) bit matrix `A` with
/// `A · bits(x) = bits(c·x)`, packed in the qword layout `vgf2p8affineqb`
/// expects: result bit `i` is `parity(A.byte[7-i] & x)`, so byte `7-i`
/// holds the mask of input bits feeding output bit `i`.
static AFFINE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        // Column j of the matrix is c * x^j.
        let columns = partial_products(c as u8);
        let mut i = 0;
        while i < 8 {
            let mut j = 0;
            while j < 8 {
                let bit = (columns[j] >> i & 1) as u64;
                table[c] |= bit << (8 * (7 - i) + j);
                j += 1;
            }
            i += 1;
        }
        c += 1;
    }
    table
};

fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    // SAFETY: this entry is only installed in `GFNI_OPS`, which the
    // dispatcher hands out strictly after `is_supported()` returned true
    // for GFNI + AVX-512 F/BW on this CPU; both slices are `dst.len()`
    // bytes long and, being `&mut` and `&`, do not overlap.
    unsafe { map::<false>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c) }
}

fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    // SAFETY: as in `mul_slice`.
    unsafe { map::<true>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c) }
}

fn scale_slice(dst: &mut [u8], c: u8) {
    let data = dst.as_mut_ptr();
    // SAFETY: features as in `mul_slice`; source and destination are the
    // same `dst.len()` bytes, which `map` allows when it does not
    // accumulate.
    unsafe { map::<false>(data, data, dst.len(), c) }
}

fn mul_add_rows(dsts: &mut [&mut [u8]], rows: &[Row<'_>]) {
    let len = dsts[0].len();
    assert!(
        dsts.iter().all(|dst| dst.len() == len) && rows.iter().all(|(_, row)| row.len() == len),
        "slice length mismatch"
    );
    // SAFETY: features as in `mul_slice`; every destination is the same
    // `len` bytes and every row was just checked to be exactly as long.
    // The destinations are distinct `&mut` slices, so they overlap
    // neither each other nor a row. Each arm passes as many pointers as
    // the match proved there are destinations.
    unsafe {
        match dsts {
            [a] => mul_add_rows_gfni([a.as_mut_ptr()], len, rows),
            [a, b] => mul_add_rows_gfni([a.as_mut_ptr(), b.as_mut_ptr()], len, rows),
            [a, b, c] => {
                mul_add_rows_gfni([a.as_mut_ptr(), b.as_mut_ptr(), c.as_mut_ptr()], len, rows)
            }
            [a, b, c, d] => mul_add_rows_gfni(
                [
                    a.as_mut_ptr(),
                    b.as_mut_ptr(),
                    c.as_mut_ptr(),
                    d.as_mut_ptr(),
                ],
                len,
                rows,
            ),
            _ => unreachable!("the dispatch layer passes 1 to 4 destinations"),
        }
    }
}

/// Mask selecting the first `remaining` byte lanes (all 64 when more
/// remain, none when none do).
#[inline(always)]
fn lanes(remaining: usize) -> __mmask64 {
    if remaining >= 64 {
        u64::MAX
    } else {
        (1 << remaining) - 1
    }
}

/// `dst[i] = c * src[i]` for `i < len`, or `dst[i] ^= c * src[i]` when
/// `ADD`.
///
/// From 64 bytes on, the last vector is the one ending at `len`; it
/// overlaps its predecessor unless `len` is a multiple of 64. Its operands
/// are read before anything is stored, so the bytes both vectors cover are
/// written twice with the same value. A 32–63-byte slice is two such
/// 32-byte vectors, and only a slice shorter than 32 bytes is masked.
///
/// # Safety
///
/// The CPU must support GFNI and AVX-512 F + BW. `src` must be readable
/// and `dst` writable for `len` bytes; the two ranges are disjoint or,
/// without `ADD`, identical.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn map<const ADD: bool>(dst: *mut u8, src: *const u8, len: usize, c: u8) {
    let matrix = _mm512_set1_epi64(AFFINE[c as usize] as i64);
    if len >= 64 {
        let product = |off: usize| {
            let out =
                _mm512_gf2p8affine_epi64_epi8::<0>(_mm512_loadu_si512(src.add(off).cast()), matrix);
            if ADD {
                _mm512_xor_si512(out, _mm512_loadu_si512(dst.add(off).cast()))
            } else {
                out
            }
        };
        let last = len - 64;
        let last_out = product(last);
        let mut off = 0;
        while off < last {
            _mm512_storeu_si512(dst.add(off).cast(), product(off));
            off += 64;
        }
        _mm512_storeu_si512(dst.add(last).cast(), last_out);
    } else if len >= 32 {
        let matrix = _mm512_castsi512_si256(matrix);
        let product = |off: usize| {
            let out =
                _mm256_gf2p8affine_epi64_epi8::<0>(_mm256_loadu_si256(src.add(off).cast()), matrix);
            if ADD {
                _mm256_xor_si256(out, _mm256_loadu_si256(dst.add(off).cast()))
            } else {
                out
            }
        };
        let last = len - 32;
        let (first_out, last_out) = (product(0), product(last));
        _mm256_storeu_si256(dst.cast(), first_out);
        _mm256_storeu_si256(dst.add(last).cast(), last_out);
    } else {
        let part = lanes(len);
        let mut out =
            _mm512_gf2p8affine_epi64_epi8::<0>(_mm512_maskz_loadu_epi8(part, src.cast()), matrix);
        if ADD {
            out = _mm512_xor_si512(out, _mm512_maskz_loadu_epi8(part, dst.cast()));
        }
        _mm512_mask_storeu_epi8(dst.cast(), part, out);
    }
}

/// `dsts[d] ^= Σ c[d]·row` for `D` destinations: four vectors (256
/// bytes) of each in registers while walking the rows, then the last
/// one to four vectors of each in one more walk, its final vector under
/// a lane mask. Each source vector is loaded once for all `D`.
///
/// # Safety
///
/// The CPU must support GFNI and AVX-512 F + BW. Every destination must
/// be writable and every row readable for `len` bytes, and no
/// destination may overlap another or a row.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn mul_add_rows_gfni<const D: usize>(dsts: [*mut u8; D], len: usize, rows: &[Row<'_>]) {
    let mut off = 0;
    while off + 256 <= len {
        block::<D, 4, false>(&dsts, off, rows, u64::MAX);
        off += 256;
    }
    let vectors = (len - off).div_ceil(64);
    if vectors == 0 {
        return;
    }
    let last = lanes(len - off - 64 * (vectors - 1));
    match vectors {
        1 => block::<D, 1, true>(&dsts, off, rows, last),
        2 => block::<D, 2, true>(&dsts, off, rows, last),
        3 => block::<D, 3, true>(&dsts, off, rows, last),
        _ => block::<D, 4, true>(&dsts, off, rows, last),
    }
}

/// `V` vectors at `off` of each of `D` destinations, in registers for
/// one walk over the rows; with `MASKED`, the last of them covers only
/// the lanes in `last`.
///
/// # Safety
///
/// As [`mul_add_rows_gfni`], with `off + 64 * V <= len`, or without it
/// but with `MASKED` and `off + 64 * (V - 1) + last.count_ones() <= len`.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
#[inline]
unsafe fn block<const D: usize, const V: usize, const MASKED: bool>(
    dsts: &[*mut u8; D],
    off: usize,
    rows: &[Row<'_>],
    last: __mmask64,
) {
    let mut acc = [[_mm512_setzero_si512(); V]; D];
    for (acc, &dst) in acc.iter_mut().zip(dsts) {
        for (k, a) in acc.iter_mut().enumerate() {
            *a = load::<V, MASKED>(dst.add(off), k, last);
        }
    }
    // Rows in pairs: one three-way XOR (`vpternlogq`) adds both products,
    // so a pair costs two affine steps and one XOR per vector and
    // destination instead of two and two.
    let mut pairs = rows.chunks_exact(2);
    for pair in &mut pairs {
        let [(c0, row0), (c1, row1)] = [pair[0], pair[1]];
        let (m0, m1) = (matrices::<D>(&c0), matrices::<D>(&c1));
        let (s0, s1) = (row0.as_ptr().add(off), row1.as_ptr().add(off));
        for k in 0..V {
            let v0 = load::<V, MASKED>(s0, k, last);
            let v1 = load::<V, MASKED>(s1, k, last);
            for ((acc, &m0), &m1) in acc.iter_mut().zip(&m0).zip(&m1) {
                acc[k] = _mm512_ternarylogic_epi64::<0x96>(
                    acc[k],
                    _mm512_gf2p8affine_epi64_epi8::<0>(v0, m0),
                    _mm512_gf2p8affine_epi64_epi8::<0>(v1, m1),
                );
            }
        }
    }
    if let [(c, row)] = pairs.remainder() {
        let m = matrices::<D>(c);
        let s = row.as_ptr().add(off);
        for k in 0..V {
            let v = load::<V, MASKED>(s, k, last);
            for (acc, &m) in acc.iter_mut().zip(&m) {
                acc[k] = _mm512_xor_si512(acc[k], _mm512_gf2p8affine_epi64_epi8::<0>(v, m));
            }
        }
    }
    for (acc, &dst) in acc.iter().zip(dsts) {
        for (k, &a) in acc.iter().enumerate() {
            let p = dst.add(off + 64 * k);
            if MASKED && k == V - 1 {
                _mm512_mask_storeu_epi8(p.cast(), last, a);
            } else {
                _mm512_storeu_si512(p.cast(), a);
            }
        }
    }
}

/// The broadcast affine matrices of the first `D` coefficients.
#[target_feature(enable = "avx512f")]
#[inline]
fn matrices<const D: usize>(c: &[u8; MAX_DESTINATIONS]) -> [__m512i; D] {
    let mut m = [_mm512_setzero_si512(); D];
    for (m, &c) in m.iter_mut().zip(c) {
        *m = _mm512_set1_epi64(AFFINE[c as usize] as i64);
    }
    m
}

/// Vector `k` of a `V`-vector block at `p`: the last one of a `MASKED`
/// block under `last`, every other one whole.
///
/// # Safety
///
/// As [`block`], for the bytes of vector `k`.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn load<const V: usize, const MASKED: bool>(
    p: *const u8,
    k: usize,
    last: __mmask64,
) -> __m512i {
    if MASKED && k == V - 1 {
        _mm512_maskz_loadu_epi8(last, p.add(64 * k).cast())
    } else {
        _mm512_loadu_si512(p.add(64 * k).cast())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;

    #[test]
    fn affine_matrix_is_the_multiplication_map() {
        // Evaluate the matrix by hand (parity of masked bits) against the
        // product table, for every (coefficient, byte) pair.
        for c in 0..=255u8 {
            let m = AFFINE[c as usize].to_le_bytes();
            let row = Gf256::mul_row(c);
            for x in 0..=255u8 {
                let mut y = 0u8;
                for i in 0..8 {
                    if (m[7 - i] & x).count_ones() % 2 == 1 {
                        y |= 1 << i;
                    }
                }
                assert_eq!(y, row[x as usize], "c={c} x={x}");
            }
        }
    }
}
