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
//! per-coefficient cost is one broadcast load. A slice's last partial
//! vector is handled with AVX-512 byte-masked loads and stores — masked-out
//! lanes are neither read nor written — instead of a per-byte tail loop.
//!
//! Safety: each `#[target_feature]` function is only reachable through the
//! dispatch table after `is_x86_feature_detected!` confirmed GFNI and the
//! AVX-512 foundation + byte/word extensions (see
//! `KernelTier::is_supported`). Pointers are formed from slices whose
//! lengths the safe entry below has just checked, and every access stays
//! inside `[0, len)` of its slice: full vectors only while
//! `off + 64 <= len`, the remainder under a `len - off`-lane mask.
#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::{partial_products, Ops, Row};

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

fn mul_add_rows(dst: &mut [u8], rows: &[Row<'_>]) {
    assert!(
        rows.iter().all(|(_, row)| row.len() == dst.len()),
        "slice length mismatch"
    );
    // SAFETY: features as in `mul_slice`; every row was just checked to
    // be exactly as long as `dst`.
    unsafe { mul_add_rows_gfni(dst, rows) }
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
/// # Safety
///
/// The CPU must support GFNI and AVX-512 F + BW. `src` must be readable
/// and `dst` writable for `len` bytes; the two ranges are disjoint or,
/// without `ADD`, identical (each vector is loaded before it is stored).
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn map<const ADD: bool>(dst: *mut u8, src: *const u8, len: usize, c: u8) {
    let matrix = _mm512_set1_epi64(AFFINE[c as usize] as i64);
    let mut off = 0;
    while off + 64 <= len {
        let v = _mm512_loadu_si512(src.add(off).cast());
        let mut out = _mm512_gf2p8affine_epi64_epi8::<0>(v, matrix);
        if ADD {
            out = _mm512_xor_si512(out, _mm512_loadu_si512(dst.add(off).cast()));
        }
        _mm512_storeu_si512(dst.add(off).cast(), out);
        off += 64;
    }
    if off < len {
        let tail = lanes(len - off);
        let v = _mm512_maskz_loadu_epi8(tail, src.add(off).cast());
        let mut out = _mm512_gf2p8affine_epi64_epi8::<0>(v, matrix);
        if ADD {
            out = _mm512_xor_si512(out, _mm512_maskz_loadu_epi8(tail, dst.add(off).cast()));
        }
        _mm512_mask_storeu_epi8(dst.add(off).cast(), tail, out);
    }
}

/// `dst ^= Σ c·row`, keeping four vectors (256 bytes) of `dst` in
/// registers while walking the rows, then one (possibly partial) vector
/// at a time.
///
/// # Safety
///
/// The CPU must support GFNI and AVX-512 F + BW, and every row must be
/// exactly `dst.len()` bytes long.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn mul_add_rows_gfni(dst: &mut [u8], rows: &[Row<'_>]) {
    let len = dst.len();
    let dst = dst.as_mut_ptr();
    let mut off = 0;
    while off + 256 <= len {
        let d = dst.add(off);
        let mut acc = [
            _mm512_loadu_si512(d.cast()),
            _mm512_loadu_si512(d.add(64).cast()),
            _mm512_loadu_si512(d.add(128).cast()),
            _mm512_loadu_si512(d.add(192).cast()),
        ];
        for &(c, row) in rows {
            let matrix = _mm512_set1_epi64(AFFINE[c as usize] as i64);
            let s = row.as_ptr().add(off);
            for (k, a) in acc.iter_mut().enumerate() {
                let v = _mm512_loadu_si512(s.add(64 * k).cast());
                *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(v, matrix));
            }
        }
        for (k, a) in acc.iter().enumerate() {
            _mm512_storeu_si512(d.add(64 * k).cast(), *a);
        }
        off += 256;
    }
    while off < len {
        let part = lanes(len - off);
        let mut acc = _mm512_maskz_loadu_epi8(part, dst.add(off).cast());
        for &(c, row) in rows {
            let matrix = _mm512_set1_epi64(AFFINE[c as usize] as i64);
            let v = _mm512_maskz_loadu_epi8(part, row.as_ptr().add(off).cast());
            acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8::<0>(v, matrix));
        }
        _mm512_mask_storeu_epi8(dst.add(off).cast(), part, acc);
        off += 64;
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
