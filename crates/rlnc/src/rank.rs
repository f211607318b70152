//! Incremental rank tracking over GF(2^8) coefficient vectors.
//!
//! A source that draws coding coefficients at random occasionally draws a
//! vector that is linearly dependent on what it already sent — for g = 4
//! over GF(2^8) roughly one generation in 250 ends up singular when exactly
//! `g` packets are sent. [`RankTracker`] lets the source (or any sender)
//! check each candidate coefficient vector for innovation *before* emitting
//! it, so a loss-free burst of `g` packets always decodes.
//!
//! The tracker keeps only the coefficient rows, reduced to row-echelon form,
//! mirroring the elimination the decoder performs — no payloads, so the cost
//! per check is O(g^2) byte operations. [`Recoder`](crate::Recoder) uses it
//! the same way: a relay only needs to know *whether* a packet is
//! innovative, never its reduced form.

use ncvnf_gf256::bulk;
use ncvnf_gf256::{Field, Gf256};

/// Tracks the rank of a growing set of GF(2^8) coefficient vectors.
#[derive(Debug, Clone)]
pub struct RankTracker {
    generation_size: usize,
    /// Leading (first nonzero) index of each stored row.
    leads: Vec<usize>,
    /// The stored rows back to back, `generation_size` bytes each, in the
    /// order they were absorbed. Echelon form: a row's leading entry is 1,
    /// and the row is zero at the leading index of every row before it —
    /// which is all that eliminating in that same order needs, so rows are
    /// appended, never sorted or moved.
    rows: Vec<u8>,
    scratch: Vec<u8>,
}

impl RankTracker {
    /// A tracker for coefficient vectors of length `generation_size`.
    pub fn new(generation_size: usize) -> Self {
        Self {
            generation_size,
            leads: Vec::with_capacity(generation_size),
            rows: Vec::new(),
            scratch: vec![0u8; generation_size],
        }
    }

    /// Current rank of the absorbed set.
    pub fn rank(&self) -> usize {
        self.leads.len()
    }

    /// True once the absorbed set spans the whole generation.
    pub fn is_full(&self) -> bool {
        self.leads.len() == self.generation_size
    }

    /// Forget everything; ready for the next generation.
    pub fn reset(&mut self) {
        self.leads.clear();
        self.rows.clear();
    }

    /// Returns whether `coefficients` would increase the rank, without
    /// absorbing it.
    pub fn is_innovative(&mut self, coefficients: &[u8]) -> bool {
        !self.is_unit_duplicate(coefficients) && self.reduce(coefficients).is_some()
    }

    /// Absorb a coefficient vector; returns `true` if it increased the rank.
    pub fn absorb(&mut self, coefficients: &[u8]) -> bool {
        if self.is_unit_duplicate(coefficients) {
            return false;
        }
        match self.reduce(coefficients) {
            Some(lead) => {
                let inv = Gf256::new(self.scratch[lead]).inv().value();
                let start = self.rows.len();
                self.rows.extend_from_slice(&self.scratch);
                bulk::scale_slice(&mut self.rows[start..], inv);
                self.leads.push(lead);
                true
            }
            None => false,
        }
    }

    /// Fast rejection for duplicate systematic vectors: a single-nonzero
    /// vector whose column is already covered by a stored *unit* row is a
    /// scalar multiple of it — no elimination pass or scratch-row work
    /// needed. (Verbatim source packets arriving twice are the common
    /// case under systematic retransmission.)
    fn is_unit_duplicate(&self, coefficients: &[u8]) -> bool {
        assert_eq!(
            coefficients.len(),
            self.generation_size,
            "coefficient vector length must match the generation size"
        );
        let mut nonzero = coefficients.iter().enumerate().filter(|(_, &c)| c != 0);
        let Some((col, _)) = nonzero.next() else {
            return false;
        };
        if nonzero.next().is_some() {
            return false;
        }
        // A stored row leading at `col` is a unit row iff nothing follows
        // the (normalized) pivot.
        let rows = self.rows.chunks_exact(self.generation_size);
        self.leads
            .iter()
            .zip(rows)
            .any(|(&lead, row)| lead == col && row[col + 1..].iter().all(|&v| v == 0))
    }

    /// Eliminate `coefficients` against the stored rows into `self.scratch`;
    /// returns the leading index of the residual, or `None` if it reduced to
    /// zero (i.e. the vector is dependent).
    fn reduce(&mut self, coefficients: &[u8]) -> Option<usize> {
        assert_eq!(
            coefficients.len(),
            self.generation_size,
            "coefficient vector length must match the generation size"
        );
        if self.is_full() {
            return None;
        }
        self.scratch.copy_from_slice(coefficients);
        // Each factor depends on the eliminations before it (the rows are
        // in echelon, not reduced, form), so this pass cannot be one fused
        // row-kernel call; the rows are only `g` bytes long.
        let rows = self.rows.chunks_exact(self.generation_size);
        for (&lead, row) in self.leads.iter().zip(rows) {
            let factor = self.scratch[lead];
            bulk::mul_add_slice(&mut self.scratch, row, factor);
        }
        self.scratch.iter().position(|&v| v != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_vectors_raise_rank() {
        let mut t = RankTracker::new(4);
        assert!(t.absorb(&[1, 0, 0, 0]));
        assert!(t.absorb(&[0, 2, 0, 0]));
        assert!(t.absorb(&[1, 2, 3, 0]));
        assert_eq!(t.rank(), 3);
        assert!(!t.is_full());
        assert!(t.absorb(&[5, 6, 7, 8]));
        assert!(t.is_full());
    }

    #[test]
    fn dependent_vector_is_rejected() {
        let mut t = RankTracker::new(3);
        assert!(t.absorb(&[1, 2, 3]));
        assert!(t.absorb(&[0, 1, 1]));
        // 1*[1,2,3] + 2*[0,1,1] over GF(2^8): addition is XOR.
        let dep = [1u8, 2 ^ 2, 3 ^ 2];
        assert!(!t.is_innovative(&dep));
        assert!(!t.absorb(&dep));
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn zero_vector_is_never_innovative() {
        let mut t = RankTracker::new(4);
        assert!(!t.is_innovative(&[0, 0, 0, 0]));
        assert!(!t.absorb(&[0, 0, 0, 0]));
        assert_eq!(t.rank(), 0);
    }

    #[test]
    fn is_innovative_does_not_absorb() {
        let mut t = RankTracker::new(2);
        assert!(t.is_innovative(&[1, 1]));
        assert_eq!(t.rank(), 0);
        assert!(t.absorb(&[1, 1]));
        assert!(t.is_innovative(&[1, 0]));
        assert_eq!(t.rank(), 1);
    }

    #[test]
    fn duplicate_systematic_vectors_are_rejected_without_rank_cost() {
        let mut t = RankTracker::new(4);
        assert!(t.absorb(&[0, 0, 1, 0]));
        // Verbatim duplicate and scalar multiple of a held unit row:
        // rejected by the fast path, rank unchanged.
        assert!(!t.is_innovative(&[0, 0, 1, 0]));
        assert!(!t.absorb(&[0, 0, 1, 0]));
        assert!(!t.absorb(&[0, 0, 7, 0]));
        assert_eq!(t.rank(), 1);
        // A unit vector for a different column is still innovative.
        assert!(t.absorb(&[0, 1, 0, 0]));
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn unit_vector_against_non_unit_row_is_still_innovative() {
        let mut t = RankTracker::new(4);
        assert!(t.absorb(&[1, 2, 3, 0]));
        // Stored row leads at column 0 but carries trailing mass, so the
        // unit vector e0 is NOT in its span.
        assert!(t.is_innovative(&[1, 0, 0, 0]));
        assert!(t.absorb(&[1, 0, 0, 0]));
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = RankTracker::new(2);
        assert!(t.absorb(&[1, 0]));
        assert!(t.absorb(&[0, 1]));
        assert!(t.is_full());
        t.reset();
        assert_eq!(t.rank(), 0);
        assert!(t.is_innovative(&[1, 0]));
    }

    #[test]
    fn random_full_rank_sets_reach_full() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let g = 8;
            let mut t = RankTracker::new(g);
            let mut draws = 0usize;
            while !t.is_full() {
                let mut row = vec![0u8; g];
                rng.fill(&mut row[..]);
                t.absorb(&row);
                draws += 1;
                assert!(draws < 200, "rank should saturate quickly");
            }
        }
    }
}
