//! Bulk slice kernels over GF(2^8), with runtime-dispatched tiers.
//!
//! The RLNC hot path multiplies whole packet payloads (≈1460 bytes) by a
//! single coefficient and accumulates them: `dst[i] ^= c * src[i]`. Three
//! kernel implementations cover the hardware spectrum:
//!
//! * [`KernelTier::Scalar`] — one 256-entry product-table lookup plus one
//!   XOR per byte. Portable baseline; works everywhere.
//! * [`KernelTier::Swar`] — branchless Russian-peasant bit ladder over
//!   `u64` words (8 bytes per lane, four lanes per step). Safe Rust whose
//!   straight-line shift/XOR structure LLVM auto-vectorizes.
//! * [`KernelTier::Ssse3`] / [`KernelTier::Avx2`] — explicit x86_64
//!   `pshufb` kernels using 16-entry low/high-nibble product tables,
//!   16 (SSSE3) or 32 (AVX2) bytes per shuffle pair.
//! * [`KernelTier::Gfni`] — GFNI + AVX-512 `vgf2p8affineqb` kernel, 64
//!   bytes per instruction via a per-coefficient 8×8 bit matrix (the
//!   field's 0x11D polynomial rules out the hardwired-0x11B `gf2p8mulb`).
//!
//! Every tier has four entries: `mul`, `mul_add`, `scale` and the fused
//! row kernel `dst_d ^= Σ c_{i,d}·rowᵢ` for one to four destinations
//! ([`mul_add_rows_multi`]), which reads each source row once for all of
//! them. Every many-rows-into-one accumulation goes through it:
//! [`mul_add_rows`] is its one-destination case. The x86 tiers take their
//! per-coefficient operands (nibble tables, affine matrices) from
//! tables built at compile time and finish a slice's tail in-register, so
//! a call costs nothing beyond its bytes.
//!
//! The fastest tier the CPU supports is selected once per process (see
//! [`kernel_tier`]); every public entry point below then routes through it.
//! Set `NCVNF_GF256_KERNEL=scalar|swar|ssse3|avx2|gfni` before first use
//! to pin a specific tier (benchmarking, differential testing); forcing a
//! tier the CPU cannot run panics rather than silently falling back.
//!
//! All functions interpret `&[u8]` as a vector of GF(2^8) elements.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod gfni;
mod scalar;
mod swar;
#[cfg(target_arch = "x86_64")]
mod x86;

/// One bulk-kernel implementation level.
///
/// Tiers are ordered slowest-first, so `max`-style comparisons pick the
/// better kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Per-byte 256-entry product-table lookups (portable baseline).
    Scalar,
    /// SWAR bit ladder over `u64` words (safe Rust, auto-vectorizable).
    Swar,
    /// x86_64 SSSE3 `pshufb` nibble-table kernel (16 bytes per step).
    Ssse3,
    /// x86_64 AVX2 `vpshufb` nibble-table kernel (32 bytes per step).
    Avx2,
    /// x86_64 GFNI + AVX-512 `vgf2p8affineqb` kernel (64 bytes per step).
    Gfni,
}

impl KernelTier {
    /// Stable lower-case name (matches the `NCVNF_GF256_KERNEL` values).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Swar => "swar",
            KernelTier::Ssse3 => "ssse3",
            KernelTier::Avx2 => "avx2",
            KernelTier::Gfni => "gfni",
        }
    }

    /// Parses a `NCVNF_GF256_KERNEL` value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "scalar" => Some(KernelTier::Scalar),
            "swar" => Some(KernelTier::Swar),
            "ssse3" => Some(KernelTier::Ssse3),
            "avx2" => Some(KernelTier::Avx2),
            "gfni" => Some(KernelTier::Gfni),
            _ => None,
        }
    }

    /// True when the running CPU can execute this tier.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Scalar | KernelTier::Swar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// `dst[i] = c * src[i]` using this tier specifically, bypassing the
    /// process-wide dispatch (differential tests, per-tier benchmarks).
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch or if the tier is unsupported here.
    pub fn mul_slice(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => (self.ops().mul)(dst, src, c),
        }
    }

    /// `dst[i] ^= c * src[i]` using this tier specifically.
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch or if the tier is unsupported here.
    pub fn mul_add_slice(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match c {
            0 => {}
            1 => add_slice(dst, src),
            _ => (self.ops().mul_add)(dst, src, c),
        }
    }

    /// `dst ^= Σ cᵢ·rowᵢ` using this tier specifically (see
    /// [`mul_add_rows`]).
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch or if the tier is unsupported here.
    pub fn mul_add_rows<'a, R: AsRef<[u8]> + ?Sized + 'a>(
        self,
        dst: &mut [u8],
        rows: impl IntoIterator<Item = (u8, &'a R)>,
    ) {
        batch_rows(self.ops(), &mut [dst], one_destination(rows));
    }

    /// `dsts[d] ^= Σ cᵢ[d]·rowᵢ` using this tier specifically (see
    /// [`mul_add_rows_multi`]).
    ///
    /// # Panics
    ///
    /// As [`mul_add_rows_multi`], or if the tier is unsupported here.
    pub fn mul_add_rows_multi<'a, C: AsRef<[u8]>, R: AsRef<[u8]> + ?Sized + 'a>(
        self,
        dsts: &mut [&mut [u8]],
        rows: impl IntoIterator<Item = (C, &'a R)>,
    ) {
        let count = dsts.len();
        batch_rows(self.ops(), dsts, widen(count, rows));
    }

    /// `dst[i] = c * dst[i]` using this tier specifically.
    ///
    /// # Panics
    ///
    /// Panics if the tier is unsupported on this CPU.
    pub fn scale_slice(self, dst: &mut [u8], c: u8) {
        match c {
            0 => dst.fill(0),
            1 => {}
            _ => (self.ops().scale)(dst, c),
        }
    }

    fn ops(self) -> &'static Ops {
        assert!(
            self.is_supported(),
            "GF(2^8) kernel tier `{}` is not supported on this CPU",
            self.name()
        );
        match self {
            KernelTier::Scalar => &SCALAR_OPS,
            KernelTier::Swar => &SWAR_OPS,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Ssse3 => &x86::ssse3::OPS,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => &x86::avx2::OPS,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Gfni => &gfni::GFNI_OPS,
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("unsupported tiers rejected above"),
        }
    }
}

/// Destinations one row-kernel pass accumulates into at most.
pub const MAX_DESTINATIONS: usize = 4;

/// One term of a row combination as the tier kernels take it: the
/// coefficient for each destination (lanes past the destination count
/// are zero) and the row they scale.
pub(crate) type Row<'a> = ([u8; MAX_DESTINATIONS], &'a [u8]);

/// The entry points of one kernel tier (`add_slice` is coefficient-free
/// and shared by all tiers). The single-row entries are only reached with
/// `c >= 2`; `mul_add_rows` with 1 to [`MAX_DESTINATIONS`] destinations
/// of one length, every row as long and no row whose coefficients are
/// all zero — the dispatch layer below handles the rest.
pub(crate) struct Ops {
    /// `dst[..] = c * src[..]`.
    pub(crate) mul: fn(&mut [u8], &[u8], u8),
    /// `dst[..] ^= c * src[..]`.
    pub(crate) mul_add: fn(&mut [u8], &[u8], u8),
    /// `dst[..] = c * dst[..]`.
    pub(crate) scale: fn(&mut [u8], u8),
    /// `dsts[d][..] ^= Σ c[d] * row[..]` over at most [`ROW_BATCH`] rows.
    pub(crate) mul_add_rows: fn(&mut [&mut [u8]], &[Row<'_>]),
}

static SCALAR_OPS: Ops = Ops {
    mul: scalar::mul_slice,
    mul_add: scalar::mul_add_slice,
    scale: scalar::scale_slice,
    mul_add_rows: scalar::mul_add_rows,
};

static SWAR_OPS: Ops = Ops {
    mul: swar::mul_slice,
    mul_add: swar::mul_add_slice,
    scale: swar::scale_slice,
    mul_add_rows: swar::mul_add_rows,
};

/// The eight products `c · 2^k` (the xtime ladder under 0x11D).
/// Multiplication by `c` is GF(2)-linear in the bits of the other
/// operand, so these determine it: every tier's per-coefficient operand
/// (SWAR's broadcast partials, the `pshufb` nibble tables, the GFNI
/// bit matrix) is derived from them.
pub(crate) const fn partial_products(c: u8) -> [u8; 8] {
    let mut partials = [0u8; 8];
    let mut p = c;
    let mut k = 0;
    while k < 8 {
        partials[k] = p;
        // xtime: shift, reduce by 0x1D on overflow.
        p = (p << 1) ^ if p & 0x80 != 0 { 0x1D } else { 0 };
        k += 1;
    }
    partials
}

/// Every tier compiled into this binary, slowest first (the x86 tiers are
/// listed even when the CPU lacks them — pair with
/// [`KernelTier::is_supported`]).
pub fn compiled_tiers() -> &'static [KernelTier] {
    #[cfg(target_arch = "x86_64")]
    {
        &[
            KernelTier::Scalar,
            KernelTier::Swar,
            KernelTier::Ssse3,
            KernelTier::Avx2,
            KernelTier::Gfni,
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[KernelTier::Scalar, KernelTier::Swar]
    }
}

fn select_tier() -> KernelTier {
    if let Ok(name) = std::env::var("NCVNF_GF256_KERNEL") {
        let tier = KernelTier::from_name(name.trim()).unwrap_or_else(|| {
            panic!("NCVNF_GF256_KERNEL={name:?} is not one of scalar|swar|ssse3|avx2|gfni")
        });
        assert!(
            tier.is_supported(),
            "NCVNF_GF256_KERNEL={} forced, but this CPU does not support it",
            tier.name()
        );
        return tier;
    }
    *compiled_tiers()
        .iter()
        .filter(|t| t.is_supported())
        .max()
        .expect("scalar tier is always supported")
}

/// The selected tier and its entry points, resolved (and its CPU support
/// asserted) once per process.
fn active() -> (KernelTier, &'static Ops) {
    static ACTIVE: OnceLock<(KernelTier, &'static Ops)> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let tier = select_tier();
        (tier, tier.ops())
    })
}

/// The tier all dispatched entry points below use, selected once per
/// process: the `NCVNF_GF256_KERNEL` override if set, otherwise the fastest
/// supported tier.
pub fn kernel_tier() -> KernelTier {
    active().0
}

#[inline]
fn active_ops() -> &'static Ops {
    active().1
}

/// `dst[i] ^= src[i]` for all `i` (addition in GF(2^8)).
///
/// Addition is carry-free XOR, so one word-wide loop serves every tier
/// (LLVM vectorizes it to the widest available registers).
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn add_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    let split = dst.len() - dst.len() % 8;
    let (dst_chunks, dst_tail) = dst.split_at_mut(split);
    let (src_chunks, src_tail) = src.split_at(split);
    for (d, s) in dst_chunks
        .chunks_exact_mut(8)
        .zip(src_chunks.chunks_exact(8))
    {
        let x = u64::from_ne_bytes(d.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= *s;
    }
}

/// `dst[i] = c * dst[i]` for all `i`.
#[inline]
pub fn scale_slice(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => (active_ops().scale)(dst, c),
    }
}

/// `dst[i] = c * src[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => (active_ops().mul)(dst, src, c),
    }
}

/// `dst[i] ^= c * src[i]` for all `i` — the RLNC inner loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use ncvnf_gf256::bulk::mul_add_slice;
/// let mut acc = vec![0u8; 4];
/// mul_add_slice(&mut acc, &[1, 2, 3, 4], 3);
/// mul_add_slice(&mut acc, &[1, 2, 3, 4], 3);
/// assert_eq!(acc, vec![0; 4]); // adding twice cancels in GF(2^8)
/// ```
#[inline]
pub fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => {}
        1 => add_slice(dst, src),
        _ => (active_ops().mul_add)(dst, src, c),
    }
}

/// Rows one fused kernel call walks; longer combinations are split.
const ROW_BATCH: usize = 32;

/// `dst ^= Σ cᵢ·rowᵢ` over `(coefficient, row)` pairs — one coded packet
/// from a generation or one recombination of a recoder's buffer, in a
/// single fused kernel call per 32 rows: `dst` is loaded and stored once
/// per call instead of once per row. The one-destination case of
/// [`mul_add_rows_multi`]. Zero coefficients are skipped; nothing is
/// allocated. Rows are anything that derefs to bytes (`&[u8]`,
/// `&Vec<u8>`, arrays).
///
/// # Panics
///
/// Panics if any row's length differs from `dst.len()`.
///
/// # Examples
///
/// ```
/// use ncvnf_gf256::bulk::mul_add_rows;
/// let rows = [[1u8, 0, 0], [0, 1, 0]];
/// let mut out = [0u8; 3];
/// mul_add_rows(&mut out, [5, 7].into_iter().zip(&rows));
/// assert_eq!(out, [5, 7, 0]);
/// ```
pub fn mul_add_rows<'a, R: AsRef<[u8]> + ?Sized + 'a>(
    dst: &mut [u8],
    rows: impl IntoIterator<Item = (u8, &'a R)>,
) {
    batch_rows(active_ops(), &mut [dst], one_destination(rows));
}

/// `dsts[d] ^= Σ cᵢ[d]·rowᵢ` for every destination `d` at once: each
/// source row is read once per pass for all of them, so combining the
/// same rows into several destinations costs one walk over the rows
/// instead of one per destination. Each item pairs a row with its
/// coefficients, one per destination (`cᵢ.len() == dsts.len()`). A row
/// whose coefficients are all zero is skipped; nothing is allocated.
///
/// # Panics
///
/// Panics unless there are 1 to [`MAX_DESTINATIONS`] destinations, all
/// of one length, every row is as long and every coefficient slice has
/// one entry per destination.
///
/// # Examples
///
/// ```
/// use ncvnf_gf256::bulk::mul_add_rows_multi;
/// let rows = [[1u8, 0], [0, 1]];
/// let (mut a, mut b) = ([0u8; 2], [0u8; 2]);
/// mul_add_rows_multi(&mut [&mut a, &mut b], [[2, 3], [4, 5]].iter().zip(&rows));
/// assert_eq!((a, b), ([2, 4], [3, 5]));
/// ```
pub fn mul_add_rows_multi<'a, C: AsRef<[u8]>, R: AsRef<[u8]> + ?Sized + 'a>(
    dsts: &mut [&mut [u8]],
    rows: impl IntoIterator<Item = (C, &'a R)>,
) {
    let count = dsts.len();
    batch_rows(active_ops(), dsts, widen(count, rows));
}

/// Single coefficients as the first lane of a kernel coefficient array.
fn one_destination<'a, R: AsRef<[u8]> + ?Sized + 'a>(
    rows: impl IntoIterator<Item = (u8, &'a R)>,
) -> impl Iterator<Item = ([u8; MAX_DESTINATIONS], &'a [u8])> {
    rows.into_iter()
        .map(|(c, row)| ([c, 0, 0, 0], row.as_ref()))
}

/// Per-destination coefficient slices as kernel coefficient arrays.
fn widen<'a, C: AsRef<[u8]>, R: AsRef<[u8]> + ?Sized + 'a>(
    count: usize,
    rows: impl IntoIterator<Item = (C, &'a R)>,
) -> impl Iterator<Item = ([u8; MAX_DESTINATIONS], &'a [u8])> {
    rows.into_iter().map(move |(coefficients, row)| {
        let coefficients = coefficients.as_ref();
        assert_eq!(coefficients.len(), count, "one coefficient per destination");
        let mut lanes = [0u8; MAX_DESTINATIONS];
        lanes[..count].copy_from_slice(coefficients);
        (lanes, row.as_ref())
    })
}

fn batch_rows<'a>(
    ops: &Ops,
    dsts: &mut [&mut [u8]],
    rows: impl Iterator<Item = ([u8; MAX_DESTINATIONS], &'a [u8])>,
) {
    assert!(
        (1..=MAX_DESTINATIONS).contains(&dsts.len()),
        "1 to {MAX_DESTINATIONS} destinations"
    );
    let len = dsts[0].len();
    assert!(
        dsts.iter().all(|dst| dst.len() == len),
        "slice length mismatch"
    );
    let mut batch: [Row<'_>; ROW_BATCH] = [([0; MAX_DESTINATIONS], &[]); ROW_BATCH];
    let mut filled = 0;
    for (coefficients, row) in rows {
        assert_eq!(row.len(), len, "slice length mismatch");
        if coefficients == [0; MAX_DESTINATIONS] {
            continue;
        }
        batch[filled] = (coefficients, row);
        filled += 1;
        if filled == ROW_BATCH {
            (ops.mul_add_rows)(dsts, &batch);
            filled = 0;
        }
    }
    if filled > 0 {
        (ops.mul_add_rows)(dsts, &batch[..filled]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;

    #[test]
    fn mul_slice_matches_scalar_multiplication() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x53, 0xFF] {
            let mut dst = vec![0u8; 256];
            mul_slice(&mut dst, &src, c);
            for (i, &d) in dst.iter().enumerate() {
                let expect = Gf256::new(c) * Gf256::new(src[i]);
                assert_eq!(d, expect.value());
            }
        }
    }

    #[test]
    fn scale_matches_mul() {
        let src: Vec<u8> = (0..100).map(|i| (i * 7 + 3) as u8).collect();
        for c in [0u8, 1, 9, 200] {
            let mut a = src.clone();
            scale_slice(&mut a, c);
            let mut b = vec![0u8; src.len()];
            mul_slice(&mut b, &src, c);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mul_add_is_mul_then_add() {
        let src: Vec<u8> = (0..64).map(|i| (i * 31) as u8).collect();
        let base: Vec<u8> = (0..64).map(|i| (i * 13 + 5) as u8).collect();
        for c in [0u8, 1, 77] {
            let mut a = base.clone();
            mul_add_slice(&mut a, &src, c);
            let mut product = vec![0u8; src.len()];
            mul_slice(&mut product, &src, c);
            let mut b = base.clone();
            add_slice(&mut b, &product);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mul_add_rows_accumulates_and_skips_zero_coefficients() {
        let rows = [[1u8, 0, 0], [0, 1, 0], [9, 9, 9]];
        let mut out = [0u8, 0, 4];
        mul_add_rows(&mut out, [5, 7, 0].into_iter().zip(&rows));
        assert_eq!(out, [5, 7, 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mul_add_rows_checks_zero_coefficient_rows_too() {
        let mut dst = [0u8; 3];
        mul_add_rows(&mut dst, [(0u8, &[1u8, 2][..])]);
    }

    #[test]
    fn mul_add_rows_multi_gives_each_destination_its_own_column() {
        let rows = [[1u8, 0, 0], [0, 1, 0], [0, 0, 1]];
        let mut out = [[0u8; 3]; 4];
        let [a, b, c, d] = &mut out;
        let coefficients = [[1u8, 2, 3, 4], [5, 6, 7, 8], [0, 0, 0, 0]];
        mul_add_rows_multi(&mut [a, b, c, d], coefficients.iter().zip(&rows));
        assert_eq!(out, [[1, 5, 0], [2, 6, 0], [3, 7, 0], [4, 8, 0]]);
    }

    #[test]
    #[should_panic(expected = "1 to 4 destinations")]
    fn mul_add_rows_multi_rejects_five_destinations() {
        let mut out = [[0u8; 1]; 5];
        let [a, b, c, d, e] = &mut out;
        mul_add_rows_multi(&mut [a, b, c, d, e], [([1u8; 5], &[1u8][..])]);
    }

    #[test]
    #[should_panic(expected = "one coefficient per destination")]
    fn mul_add_rows_multi_checks_the_coefficient_count() {
        let (mut a, mut b) = ([0u8; 2], [0u8; 2]);
        mul_add_rows_multi(&mut [&mut a, &mut b], [([1u8], &[1u8, 2][..])]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mul_add_rows_multi_checks_destination_lengths() {
        let (mut a, mut b) = ([0u8; 2], [0u8; 3]);
        mul_add_rows_multi(&mut [&mut a, &mut b], [([1u8, 1], &[1u8, 2][..])]);
    }

    #[test]
    fn partial_products_are_the_xtime_ladder() {
        for c in 0..=255u8 {
            let partials = partial_products(c);
            for (k, &p) in partials.iter().enumerate() {
                assert_eq!(p, (Gf256::new(c) * Gf256::new(1 << k)).value());
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = [0u8; 3];
        mul_add_slice(&mut dst, &[1, 2], 3);
    }

    #[test]
    fn every_supported_tier_matches_the_table() {
        // Exhaustive over (coefficient, byte) for every runnable tier
        // and every entry: 259 bytes is vector body + in-register tail,
        // 52 (the tail of a 1460-byte payload) is tail only, 32 and 33
        // are one and two overlapping half-width gfni vectors.
        for len in [259usize, 52, 32, 33] {
            let src: Vec<u8> = (0..=255u8).cycle().take(len).collect();
            for &tier in compiled_tiers() {
                if !tier.is_supported() {
                    continue;
                }
                for c in 0..=255u8 {
                    let row_check: Vec<u8> = src
                        .iter()
                        .map(|&s| (Gf256::new(c) * Gf256::new(s)).value())
                        .collect();
                    let mut got = vec![0u8; len];
                    tier.mul_slice(&mut got, &src, c);
                    assert_eq!(got, row_check, "mul tier {} c={c}", tier.name());
                    let mut got = vec![0u8; len];
                    tier.mul_add_slice(&mut got, &src, c);
                    assert_eq!(got, row_check, "mul_add tier {} c={c}", tier.name());
                    let mut got = vec![0u8; len];
                    tier.mul_add_rows(&mut got, [(c, &src[..])]);
                    assert_eq!(got, row_check, "rows tier {} c={c}", tier.name());
                    let mut got = [vec![0u8; len], vec![0u8; len], vec![0u8; len]];
                    let [a, b, d] = &mut got;
                    tier.mul_add_rows_multi(&mut [a, b, d], [([c, 0, c], &src[..])]);
                    assert_eq!(got[0], row_check, "multi tier {} c={c}", tier.name());
                    assert_eq!(got[1], vec![0u8; len], "multi tier {}", tier.name());
                    assert_eq!(got[2], row_check, "multi tier {} c={c}", tier.name());
                    let mut got = src.clone();
                    tier.scale_slice(&mut got, c);
                    assert_eq!(got, row_check, "scale tier {} c={c}", tier.name());
                }
            }
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for &tier in compiled_tiers() {
            assert_eq!(KernelTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::from_name("nope"), None);
    }

    #[test]
    fn dispatch_picks_a_supported_tier() {
        assert!(kernel_tier().is_supported());
    }
}
