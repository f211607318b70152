//! Depth-first branch-and-bound for integer variables.

use crate::error::SolveError;
use crate::problem::{LinearProgram, Relation, VarId};
use crate::tableau::Solution;

/// Integrality tolerance.
const INT_EPS: f64 = 1e-6;

/// Solves `lp` with the listed variables restricted to non-negative
/// integers, by LP-relaxation branch-and-bound (most-fractional branching,
/// depth-first, incumbent pruning).
///
/// This is the exact counterpart of the paper's "apply certain LP solvers,
/// e.g., cplex, to directly solve the integer linear program"; the
/// LP-relax-and-round path used in production lives in the deployment
/// crate.
///
/// # Errors
///
/// [`SolveError::Infeasible`] if no integer point exists,
/// [`SolveError::NodeLimit`] if `max_nodes` is exhausted before the tree
/// is closed, or any LP error from the relaxations.
pub fn solve_integer(
    lp: &LinearProgram,
    integer_vars: &[VarId],
    max_nodes: usize,
) -> Result<Solution, SolveError> {
    let mut best: Option<Solution> = None;
    let mut nodes = 0usize;
    // Each stack entry is a set of extra bound rows (var, relation, rhs).
    let mut stack: Vec<Vec<(VarId, Relation, f64)>> = vec![Vec::new()];
    while let Some(extra) = stack.pop() {
        nodes += 1;
        if nodes > max_nodes {
            return Err(SolveError::NodeLimit { nodes: max_nodes });
        }
        let mut node_lp = lp.clone();
        for &(v, rel, rhs) in &extra {
            node_lp.add_constraint(&[(v, 1.0)], rel, rhs);
        }
        let sol = match node_lp.solve() {
            Ok(s) => s,
            Err(SolveError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        // Bound: prune if the relaxation cannot beat the incumbent.
        if let Some(ref b) = best {
            if sol.objective <= b.objective + INT_EPS {
                continue;
            }
        }
        // Find the most fractional integer variable.
        let mut branch_var: Option<(VarId, f64)> = None;
        let mut best_frac = INT_EPS;
        for &v in integer_vars {
            let x = sol.value(v);
            let frac = (x - x.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some((v, x));
            }
        }
        match branch_var {
            None => {
                // Integral: candidate incumbent.
                if best.as_ref().is_none_or(|b| sol.objective > b.objective) {
                    best = Some(sol);
                }
            }
            Some((v, x)) => {
                let floor = x.floor();
                // Explore the "round down" branch first (cheaper
                // deployments first in our domain).
                let mut up = extra.clone();
                up.push((v, Relation::Ge, floor + 1.0));
                stack.push(up);
                let mut down = extra;
                down.push((v, Relation::Le, floor));
                stack.push(down);
            }
        }
    }
    best.ok_or(SolveError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn knapsack_like() {
        // max 5x + 4y s.t. 6x + 5y <= 10, x,y integer => (1,0): 5... but
        // (0,2) gives 8. Optimum integer = 8.
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 5.0);
        let y = lp.add_var("y", 4.0);
        lp.add_constraint(&[(x, 6.0), (y, 5.0)], Relation::Le, 10.0);
        let sol = solve_integer(&lp, &[x, y], 1000).unwrap();
        approx(sol.objective, 8.0);
        approx(sol.value(x), 0.0);
        approx(sol.value(y), 2.0);
    }

    #[test]
    fn relaxation_already_integral() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 3.0);
        let sol = solve_integer(&lp, &[x], 10).unwrap();
        approx(sol.objective, 3.0);
    }

    #[test]
    fn mixed_integer() {
        // max x + y, x integer, y continuous; x + y <= 2.5; x <= 1.7
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 2.5);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.7);
        let sol = solve_integer(&lp, &[x], 1000).unwrap();
        approx(sol.objective, 2.5);
        let xv = sol.value(x);
        assert!((xv - xv.round()).abs() < 1e-6);
    }

    #[test]
    fn integer_infeasible() {
        // 0.4 <= x <= 0.6 has no integer point.
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 0.4);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 0.6);
        assert_eq!(
            solve_integer(&lp, &[x], 1000).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn node_limit_enforced() {
        let mut lp = LinearProgram::new();
        let mut vars = Vec::new();
        for _ in 0..8 {
            vars.push(lp.add_var("x", 1.0));
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        lp.add_constraint(&terms, Relation::Le, 7.0);
        assert!(matches!(
            solve_integer(&lp, &vars, 1),
            Err(SolveError::NodeLimit { .. })
        ));
    }
}
