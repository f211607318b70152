//! Dense two-phase primal simplex.

use crate::error::SolveError;
use crate::problem::{LinearProgram, Relation, Row, VarId};

/// Feasibility/pivot tolerance.
const EPS: f64 = 1e-8;

/// An optimal solution to a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value (maximization).
    pub objective: f64,
    values: Vec<f64>,
}

impl Solution {
    /// Value of `var` at the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range for the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// All variable values, indexed by [`VarId`] order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Dense simplex tableau.
///
/// Layout: `rows x cols` coefficient matrix `a`, right-hand side `b`
/// (kept non-negative), objective row `c` (reduced costs as pivoting
/// proceeds), objective offset `obj`.
struct Tableau {
    rows: usize,
    cols: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    obj: f64,
    /// Basis: which column is basic in each row.
    basis: Vec<usize>,
    /// Scratch: the pivot row's non-zero columns.
    nz: Vec<usize>,
}

impl Tableau {
    fn at(&self, r: usize, col: usize) -> f64 {
        self.a[r * self.cols + col]
    }

    fn at_mut(&mut self, r: usize, col: usize) -> &mut f64 {
        &mut self.a[r * self.cols + col]
    }

    /// Pivot on (row, col): scale the row so a[row,col]=1 and eliminate
    /// the column elsewhere, including the objective row.
    ///
    /// Elimination visits only the pivot row's non-zero columns: any
    /// other column would have `f × 0` subtracted, which leaves a non-zero
    /// entry bit-for-bit unchanged and can at most flip a zero's sign.
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.at(row, col);
        debug_assert!(p.abs() > EPS, "pivot on near-zero element");
        let inv = 1.0 / p;
        let cols = self.cols;
        let pivot_row = row * cols;
        self.nz.clear();
        for j in 0..cols {
            let v = &mut self.a[pivot_row + j];
            *v *= inv;
            if *v != 0.0 {
                self.nz.push(j);
            }
        }
        self.b[row] *= inv;
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let f = self.at(r, col);
            if f.abs() <= EPS {
                continue;
            }
            let base = r * cols;
            for &j in &self.nz {
                let delta = f * self.a[pivot_row + j];
                self.a[base + j] -= delta;
            }
            self.b[r] -= f * self.b[row];
        }
        let f = self.c[col];
        if f.abs() > EPS {
            for &j in &self.nz {
                self.c[j] -= f * self.a[pivot_row + j];
            }
            self.obj -= f * self.b[row];
        }
        self.basis[row] = col;
    }

    /// Runs primal simplex to optimality on the current objective row.
    ///
    /// `allowed` marks the columns that may enter the basis.
    fn optimize(&mut self, allowed: &[bool]) -> Result<(), SolveError> {
        let max_iters = 200 * (self.rows + self.cols).max(50);
        // Dantzig rule, switching to Bland's rule after a burn-in to
        // guarantee termination under degeneracy.
        let bland_after = max_iters / 2;
        for iter in 0..max_iters {
            let entering = if iter < bland_after {
                // Most positive reduced cost (maximization).
                let mut best = None;
                let mut best_val = EPS;
                for (j, &ok) in allowed.iter().enumerate().take(self.cols) {
                    if ok && self.c[j] > best_val {
                        best_val = self.c[j];
                        best = Some(j);
                    }
                }
                best
            } else {
                (0..self.cols).find(|&j| allowed[j] && self.c[j] > EPS)
            };
            let Some(col) = entering else {
                return Ok(());
            };
            // Ratio test. Ties are broken by the larger pivot element
            // (numerical stability) during the Dantzig phase, and by the
            // lowest basis index (Bland, anti-cycling) afterwards.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let coef = self.at(r, col);
                if coef > EPS {
                    let ratio = self.b[r] / coef;
                    let better_tie = leave.is_some_and(|l| {
                        if iter < bland_after {
                            coef > self.at(l, col)
                        } else {
                            self.basis[r] < self.basis[l]
                        }
                    });
                    if ratio < best_ratio - EPS || (ratio < best_ratio + EPS && better_tie) {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(row) = leave else {
                return Err(SolveError::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(SolveError::IterationLimit {
            iterations: max_iters,
        })
    }
}

/// Solves `lp` (maximization, x ≥ 0) with the two-phase simplex method.
pub(crate) fn solve(lp: &LinearProgram) -> Result<Solution, SolveError> {
    let n = lp.num_vars();
    // Rows: the model's constraints, then one `x ≤ ub` row per upper
    // bound. A constraint with a negative rhs enters the tableau negated,
    // its relation flipped, so every rhs starts non-negative.
    let n_bounds = lp.upper_bounds.iter().flatten().count();
    let m = lp.rows.len() + n_bounds;
    // Column layout: [structural | slack/surplus | artificial].
    let mut n_slack = n_bounds;
    let mut n_art = 0;
    for row in &lp.rows {
        match normalized(row) {
            Relation::Le => n_slack += 1,
            Relation::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => n_art += 1,
        }
    }
    let cols = n + n_slack + n_art;
    let mut t = Tableau {
        rows: m,
        cols,
        a: vec![0.0; m * cols],
        b: vec![0.0; m],
        c: vec![0.0; cols],
        obj: 0.0,
        basis: vec![usize::MAX; m],
        nz: Vec::with_capacity(cols),
    };
    for (r, row) in lp.rows.iter().enumerate() {
        let negate = row.rhs < 0.0;
        for &(v, c) in lp.row_terms(row) {
            *t.at_mut(r, v) += if negate { -c } else { c };
        }
        t.b[r] = if negate { -row.rhs } else { row.rhs };
    }
    let bounds = lp
        .upper_bounds
        .iter()
        .enumerate()
        .filter_map(|(v, ub)| ub.map(|ub| (v, ub)));
    for (r, (v, ub)) in (lp.rows.len()..).zip(bounds) {
        *t.at_mut(r, v) += 1.0;
        t.b[r] = ub;
    }
    let relations = lp
        .rows
        .iter()
        .map(normalized)
        .chain(std::iter::repeat_n(Relation::Le, n_bounds));
    let mut slack_idx = n;
    let mut art_idx = n + n_slack;
    let mut artificial_cols = Vec::with_capacity(n_art);
    for (r, relation) in relations.enumerate() {
        match relation {
            Relation::Le => {
                *t.at_mut(r, slack_idx) = 1.0;
                t.basis[r] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                *t.at_mut(r, slack_idx) = -1.0;
                slack_idx += 1;
                *t.at_mut(r, art_idx) = 1.0;
                t.basis[r] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                *t.at_mut(r, art_idx) = 1.0;
                t.basis[r] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }

    // Problem magnitude for relative tolerances (original rhs, before
    // pivoting rewrites b).
    let scale = t.b.iter().fold(1.0f64, |acc, &b| acc.max(b.abs()));
    let allowed_all: Vec<bool> = vec![true; cols];
    if !artificial_cols.is_empty() {
        // Phase 1: maximize -(sum of artificials).
        for &j in &artificial_cols {
            t.c[j] = -1.0;
        }
        // Price out the initial basis (artificials are basic with cost -1).
        for r in 0..m {
            if artificial_cols.contains(&t.basis[r]) {
                for j in 0..cols {
                    t.c[j] += t.at(r, j);
                }
                t.obj += t.b[r];
            }
        }
        t.optimize(&allowed_all)?;
        // The tableau tracks obj = -z; phase-1 optimum z* = max(-Σ art)
        // must be ~0 for feasibility, i.e. any positive residual in
        // `t.obj` means some artificial variable is stuck above zero.
        // The tolerance is relative to the problem's magnitude: rounding
        // across many large-coefficient pivots legitimately leaves a
        // residual far above machine epsilon.
        if t.obj > 1e-7 * scale * (m as f64).max(1.0) {
            return Err(SolveError::Infeasible);
        }
        // Drive any remaining artificial variables out of the basis.
        // The replacement column must not already be basic elsewhere, or
        // the basis would contain a duplicate and the tableau corrupts.
        for r in 0..m {
            if artificial_cols.contains(&t.basis[r]) {
                let col =
                    (0..n + n_slack).find(|&j| !t.basis.contains(&j) && t.at(r, j).abs() > EPS);
                if let Some(col) = col {
                    t.pivot(r, col);
                }
                // If no candidate exists the constraint was redundant;
                // leave the artificial basic at value 0.
            }
        }
        // Reset the objective row for phase 2.
        t.c.fill(0.0);
        t.obj = 0.0;
    }

    // Phase 2: install the real objective and price out the basis.
    let mut allowed = allowed_all;
    for &j in &artificial_cols {
        allowed[j] = false;
    }
    for v in 0..n {
        t.c[v] = lp.objective[v];
    }
    for r in 0..m {
        let bcol = t.basis[r];
        if bcol == usize::MAX {
            continue;
        }
        let f = t.c[bcol];
        if f.abs() > EPS {
            for j in 0..cols {
                t.c[j] -= f * t.at(r, j);
            }
            t.obj -= f * t.b[r];
        }
    }
    t.optimize(&allowed)?;

    let mut values = vec![0.0; n];
    for r in 0..m {
        let bcol = t.basis[r];
        if bcol < n {
            values[bcol] = t.b[r];
        }
    }
    // Recompute the objective from the primal values rather than trusting
    // the incrementally tracked offset (immune to accumulated drift).
    let objective = values.iter().zip(&lp.objective).map(|(x, c)| x * c).sum();
    Ok(Solution { objective, values })
}

/// `row`'s relation once a negative rhs has been negated away.
fn normalized(row: &Row) -> Relation {
    match row.relation {
        Relation::Le if row.rhs < 0.0 => Relation::Ge,
        Relation::Ge if row.rhs < 0.0 => Relation::Le,
        relation => relation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_two_var() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => 36 at (2, 6)
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let sol = lp.solve().unwrap();
        approx(sol.objective, 36.0);
        approx(sol.value(x), 2.0);
        approx(sol.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x - y = 1 => x = 3, y = 2
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let sol = lp.solve().unwrap();
        approx(sol.objective, 5.0);
        approx(sol.value(x), 3.0);
        approx(sol.value(y), 2.0);
    }

    #[test]
    fn ge_constraints_and_minimization_via_negation() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1  === max -(2x + 3y)
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", -2.0);
        let y = lp.add_var("y", -3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let sol = lp.solve().unwrap();
        approx(sol.objective, -8.0); // x = 4, y = 0
        approx(sol.value(x), 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 1.0);
        let _ = x;
        assert_eq!(lp.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        lp.set_upper_bound(x, 2.5);
        let sol = lp.solve().unwrap();
        approx(sol.objective, 2.5);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -1 with x, y >= 0: max x s.t. y >= x + 1, y <= 3
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -1.0);
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 3.0);
        let sol = lp.solve().unwrap();
        approx(sol.objective, 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Known cycling-prone example (Beale); Bland fallback must finish.
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var("x1", 0.75);
        let x2 = lp.add_var("x2", -150.0);
        let x3 = lp.add_var("x3", 0.02);
        let x4 = lp.add_var("x4", -6.0);
        lp.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -1.0 / 25.0), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -1.0 / 50.0), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0);
        let sol = lp.solve().unwrap();
        approx(sol.objective, 0.05);
    }

    #[test]
    fn zero_variable_problem() {
        let lp = LinearProgram::new();
        let sol = lp.solve().unwrap();
        approx(sol.objective, 0.0);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(&[(x, 2.0)], Relation::Eq, 4.0);
        let sol = lp.solve().unwrap();
        approx(sol.value(x), 2.0);
    }
}
