//! Explicit x86_64 SIMD kernels: GF(2^8) constant multiplication via
//! `pshufb` nibble-table lookups.
//!
//! `c * x` splits over the low/high nibble of each byte:
//! `c*x = c*(x & 0x0F) ⊕ c*(x >> 4 << 4)`. Both partial products come from
//! 16-entry tables, and `pshufb` looks up 16 (SSE) or 32 (AVX2) lanes per
//! instruction. This is the classic vectorized Reed-Solomon/RLNC kernel
//! (ISA-L, kodo, klauspost/reedsolomon all use it).
//!
//! The table pairs of all 256 coefficients are built at compile time
//! ([`NIBBLES`], 8 KiB), so a call's only per-coefficient cost is two
//! loads. A slice that does not end on a vector boundary is finished by
//! one more whole vector ending at its last byte, overlapping the previous
//! one, instead of a per-byte loop. The two tiers are one implementation
//! ([`pshufb_tier!`]) at two vector widths.
//!
//! Safety: each `#[target_feature]` function is only reachable through the
//! dispatch table after `is_x86_feature_detected!` confirmed the feature
//! (see `KernelTier::is_supported`). Pointers are formed from slices whose
//! lengths the safe entries below have just checked (`len >= WIDTH`, every
//! row as long as `dst`), and every access is a whole vector at an offset
//! `off` with `off + WIDTH <= len`.
#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::{partial_products, Ops, Row};

/// `NIBBLES.0[c]` is the low-nibble table (`c * i` for `i < 16`) followed
/// by the high-nibble table (`c * (i << 4)`).
#[repr(align(32))]
struct NibbleTables([[u8; 32]; 256]);

static NIBBLES: NibbleTables = {
    let mut tables = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let partials = partial_products(c as u8);
        let mut i = 0;
        while i < 16 {
            let mut k = 0;
            while k < 4 {
                if i >> k & 1 == 1 {
                    tables[c][i] ^= partials[k];
                    tables[c][16 + i] ^= partials[4 + k];
                }
                k += 1;
            }
            i += 1;
        }
        c += 1;
    }
    NibbleTables(tables)
};

/// The (low, high) nibble tables of `c`.
#[inline(always)]
unsafe fn tables16(c: u8) -> (__m128i, __m128i) {
    let pair = NIBBLES.0[c as usize].as_ptr();
    (
        _mm_loadu_si128(pair.cast()),
        _mm_loadu_si128(pair.add(16).cast()),
    )
}

/// [`tables16`] broadcast to both 128-bit lanes (`vpshufb` shuffles within
/// each lane).
#[inline(always)]
unsafe fn tables32(c: u8) -> (__m256i, __m256i) {
    let (lo, hi) = tables16(c);
    (
        _mm256_broadcastsi128_si256(lo),
        _mm256_broadcastsi128_si256(hi),
    )
}

/// The low and high nibble of each of 16 lanes, the `pshufb` indices.
#[inline(always)]
unsafe fn split16(v: __m128i) -> (__m128i, __m128i) {
    let low_mask = _mm_set1_epi8(0x0F);
    (
        _mm_and_si128(v, low_mask),
        _mm_and_si128(_mm_srli_epi64::<4>(v), low_mask),
    )
}

/// One 16-lane product of split lanes:
/// `pshufb(lo_tbl, lo) ^ pshufb(hi_tbl, hi)`.
#[inline(always)]
unsafe fn lookup16((lo, hi): (__m128i, __m128i), (lo_tbl, hi_tbl): (__m128i, __m128i)) -> __m128i {
    _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi))
}

/// [`split16`] on 32 lanes.
#[inline(always)]
unsafe fn split32(v: __m256i) -> (__m256i, __m256i) {
    let low_mask = _mm256_set1_epi8(0x0F);
    (
        _mm256_and_si256(v, low_mask),
        _mm256_and_si256(_mm256_srli_epi64::<4>(v), low_mask),
    )
}

/// [`lookup16`] on 32 lanes, via `vpshufb` on broadcast nibble tables.
#[inline(always)]
unsafe fn lookup32((lo, hi): (__m256i, __m256i), (lo_tbl, hi_tbl): (__m256i, __m256i)) -> __m256i {
    _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_tbl, lo),
        _mm256_shuffle_epi8(hi_tbl, hi),
    )
}

macro_rules! pshufb_tier {
    (
        $tier:ident, $feature:literal, $width:literal, $vector:ty,
        $tables:ident, $split:ident, $lookup:ident,
        $zero:ident, $load:ident, $store:ident, $xor:ident
    ) => {
        pub(super) mod $tier {
            use super::super::scalar;
            use super::*;

            /// Bytes per vector. Slices shorter than one vector (short
            /// coefficient rows) go to the scalar kernel.
            const WIDTH: usize = $width;

            pub(in super::super) static OPS: Ops = Ops {
                mul: mul_slice,
                mul_add: mul_add_slice,
                scale: scale_slice,
                mul_add_rows,
            };

            fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
                assert_eq!(dst.len(), src.len(), "slice length mismatch");
                if dst.len() < WIDTH {
                    return scalar::mul_slice(dst, src, c);
                }
                // SAFETY: this entry is only installed in `OPS`, which the
                // dispatcher hands out strictly after `is_supported()`
                // returned true for this tier's feature on this CPU; both
                // slices are `dst.len() >= WIDTH` bytes long and, being
                // `&mut` and `&`, do not overlap.
                unsafe { map::<false>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c) }
            }

            fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
                assert_eq!(dst.len(), src.len(), "slice length mismatch");
                if dst.len() < WIDTH {
                    return scalar::mul_add_slice(dst, src, c);
                }
                // SAFETY: as in `mul_slice`.
                unsafe { map::<true>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c) }
            }

            fn scale_slice(dst: &mut [u8], c: u8) {
                if dst.len() < WIDTH {
                    return scalar::scale_slice(dst, c);
                }
                let data = dst.as_mut_ptr();
                // SAFETY: feature as in `mul_slice`; source and
                // destination are the same `dst.len() >= WIDTH` bytes,
                // which `map` allows when it does not accumulate.
                unsafe { map::<false>(data, data, dst.len(), c) }
            }

            fn mul_add_rows(dsts: &mut [&mut [u8]], rows: &[Row<'_>]) {
                let len = dsts[0].len();
                assert!(
                    dsts.iter().all(|dst| dst.len() == len)
                        && rows.iter().all(|(_, row)| row.len() == len),
                    "slice length mismatch"
                );
                if len < WIDTH {
                    return scalar::mul_add_rows(dsts, rows);
                }
                // SAFETY: feature as in `mul_slice`; every destination is
                // the same `len >= WIDTH` bytes and every row was just
                // checked to be exactly as long. The destinations are
                // distinct `&mut` slices, so they overlap neither each
                // other nor a row. Each arm passes as many pointers as
                // the match proved there are destinations.
                unsafe {
                    match dsts {
                        [a] => mul_add_rows_simd::<1, 4>([a.as_mut_ptr()], len, rows),
                        [a, b] => {
                            mul_add_rows_simd::<2, 2>([a.as_mut_ptr(), b.as_mut_ptr()], len, rows)
                        }
                        [a, b, c] => mul_add_rows_simd::<3, 1>(
                            [a.as_mut_ptr(), b.as_mut_ptr(), c.as_mut_ptr()],
                            len,
                            rows,
                        ),
                        [a, b, c, d] => mul_add_rows_simd::<4, 1>(
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

            /// `dst[i] = c * src[i]` for `i < len`, or `dst[i] ^= c * src[i]`
            /// when `ADD`.
            ///
            /// The last vector is the one ending at `len`; it overlaps its
            /// predecessor unless `len` is a multiple of `WIDTH`. Its
            /// operands are read before anything is stored, so the bytes
            /// both vectors cover are written twice with the same value.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's feature and `len >= WIDTH`.
            /// `src` must be readable and `dst` writable for `len` bytes;
            /// the two ranges are disjoint or, without `ADD`, identical.
            #[target_feature(enable = $feature)]
            unsafe fn map<const ADD: bool>(dst: *mut u8, src: *const u8, len: usize, c: u8) {
                let tables = $tables(c);
                let last = len - WIDTH;
                let mut last_out = $lookup($split($load(src.add(last).cast())), tables);
                if ADD {
                    last_out = $xor(last_out, $load(dst.add(last).cast()));
                }
                let mut off = 0;
                while off < last {
                    let mut out = $lookup($split($load(src.add(off).cast())), tables);
                    if ADD {
                        out = $xor(out, $load(dst.add(off).cast()));
                    }
                    $store(dst.add(off).cast(), out);
                    off += WIDTH;
                }
                $store(dst.add(last).cast(), last_out);
            }

            /// `dsts[d] ^= Σ c[d]·row` for `D` destinations, keeping `V`
            /// vectors of each in registers while walking the rows, then
            /// one vector of each at a time, then the vector ending at
            /// `len` — accumulated onto each destination as it was before
            /// the others were stored, so the bytes it shares with its
            /// predecessor get the same value twice. Each source vector
            /// is loaded and split into nibbles once for all `D`.
            ///
            /// # Safety
            ///
            /// The CPU must support this tier's feature. Every
            /// destination must be writable and every row readable for
            /// `len >= WIDTH` bytes, and no destination may overlap
            /// another or a row.
            #[target_feature(enable = $feature)]
            unsafe fn mul_add_rows_simd<const D: usize, const V: usize>(
                dsts: [*mut u8; D],
                len: usize,
                rows: &[Row<'_>],
            ) {
                let last = len - WIDTH;
                let mut last_acc = [$zero(); D];
                for (acc, dst) in last_acc.iter_mut().zip(&dsts) {
                    *acc = $load(dst.add(last).cast());
                }
                let mut off = 0;
                while off + V * WIDTH <= len {
                    block::<D, V>(&dsts, off, rows);
                    off += V * WIDTH;
                }
                while off + WIDTH <= len {
                    block::<D, 1>(&dsts, off, rows);
                    off += WIDTH;
                }
                if off < len {
                    for &(c, row) in rows {
                        let split = $split($load(row.as_ptr().add(last).cast()));
                        for (acc, &c) in last_acc.iter_mut().zip(&c) {
                            *acc = $xor(*acc, $lookup(split, $tables(c)));
                        }
                    }
                    for (acc, dst) in last_acc.iter().zip(&dsts) {
                        $store(dst.add(last).cast(), *acc);
                    }
                }
            }

            /// `V` vectors at `off` of each of `D` destinations, in
            /// registers for one walk over the rows.
            ///
            /// # Safety
            ///
            /// As [`mul_add_rows_simd`], with `off + V * WIDTH <= len`.
            #[inline(always)]
            unsafe fn block<const D: usize, const V: usize>(
                dsts: &[*mut u8; D],
                off: usize,
                rows: &[Row<'_>],
            ) {
                let mut acc: [[$vector; V]; D] = [[$zero(); V]; D];
                for (acc, dst) in acc.iter_mut().zip(dsts) {
                    for (k, a) in acc.iter_mut().enumerate() {
                        *a = $load(dst.add(off + k * WIDTH).cast());
                    }
                }
                for &(c, row) in rows {
                    let s = row.as_ptr().add(off);
                    let mut split = [($zero(), $zero()); V];
                    for (k, v) in split.iter_mut().enumerate() {
                        *v = $split($load(s.add(k * WIDTH).cast()));
                    }
                    for (acc, &c) in acc.iter_mut().zip(&c) {
                        let tables = $tables(c);
                        for (a, &v) in acc.iter_mut().zip(&split) {
                            *a = $xor(*a, $lookup(v, tables));
                        }
                    }
                }
                for (acc, dst) in acc.iter().zip(dsts) {
                    for (k, a) in acc.iter().enumerate() {
                        $store(dst.add(off + k * WIDTH).cast(), *a);
                    }
                }
            }
        }
    };
}

pshufb_tier!(
    ssse3,
    "ssse3",
    16,
    __m128i,
    tables16,
    split16,
    lookup16,
    _mm_setzero_si128,
    _mm_loadu_si128,
    _mm_storeu_si128,
    _mm_xor_si128
);
pshufb_tier!(
    avx2,
    "avx2",
    32,
    __m256i,
    tables32,
    split32,
    lookup32,
    _mm256_setzero_si256,
    _mm256_loadu_si256,
    _mm256_storeu_si256,
    _mm256_xor_si256
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;

    #[test]
    fn nibble_tables_split_the_product_row() {
        for c in 0..=255u8 {
            let row = Gf256::mul_row(c);
            let pair = &NIBBLES.0[c as usize];
            for i in 0..16 {
                assert_eq!(pair[i], row[i], "lo c={c} i={i}");
                assert_eq!(pair[16 + i], row[i << 4], "hi c={c} i={i}");
            }
        }
    }
}
