//! Portable baseline kernel: one 256-entry product-table row per
//! coefficient, one lookup plus one XOR per byte.
//!
//! The `0`/`1` fast paths live in the dispatch layer.

use super::Row;
use crate::gf256::Gf256;

pub(super) fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    let row = Gf256::mul_row(c);
    for (d, s) in dst.iter_mut().zip(src) {
        *d = row[*s as usize];
    }
}

pub(super) fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    let row = Gf256::mul_row(c);
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

pub(super) fn mul_add_rows(dsts: &mut [&mut [u8]], rows: &[Row<'_>]) {
    for (d, dst) in dsts.iter_mut().enumerate() {
        for &(c, src) in rows {
            if c[d] != 0 {
                mul_add_slice(dst, src, c[d]);
            }
        }
    }
}

pub(super) fn scale_slice(dst: &mut [u8], c: u8) {
    let row = Gf256::mul_row(c);
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}
