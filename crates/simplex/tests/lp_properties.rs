//! Property-based tests for the LP solver: feasibility of returned
//! solutions and sample-based optimality certificates.

use ncvnf_simplex::{solve_integer, ConstraintId, LinearProgram, Relation, SolveError, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct RandomLp {
    n: usize,
    objective: Vec<f64>,
    /// (coeffs, rhs); all constraints are `≤` with non-negative coeffs
    /// and positive rhs, so x = 0 is always feasible and the LP is
    /// bounded whenever every objective-positive variable is constrained.
    rows: Vec<(Vec<f64>, f64)>,
}

fn arb_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..6, 1usize..7, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let objective: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..5.0)).collect();
        let mut rows = Vec::new();
        // One covering row bounds every variable, guaranteeing boundedness.
        rows.push(((0..n).map(|_| 1.0).collect(), rng.gen_range(1.0..50.0)));
        for _ in 0..m {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
            let rhs = rng.gen_range(0.5..40.0);
            rows.push((coeffs, rhs));
        }
        RandomLp { n, objective, rows }
    })
}

fn build(lp: &RandomLp) -> (LinearProgram, Vec<VarId>) {
    let (prog, vars, _) = build_rows(lp);
    (prog, vars)
}

fn build_rows(lp: &RandomLp) -> (LinearProgram, Vec<VarId>, Vec<ConstraintId>) {
    let mut prog = LinearProgram::new();
    let vars: Vec<_> = lp.objective.iter().map(|&c| prog.add_var("x", c)).collect();
    let rows = lp
        .rows
        .iter()
        .map(|(coeffs, rhs)| {
            let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
            prog.add_constraint(&terms, Relation::Le, *rhs)
        })
        .collect();
    (prog, vars, rows)
}

/// Every bit of a solve's outcome.
fn outcome_bits(prog: &LinearProgram) -> Result<(u64, Vec<u64>), SolveError> {
    prog.solve().map(|s| {
        let values = s.values().iter().map(|v| v.to_bits()).collect();
        (s.objective.to_bits(), values)
    })
}

fn is_feasible(lp: &RandomLp, x: &[f64]) -> bool {
    if x.iter().any(|&v| v < -1e-7) {
        return false;
    }
    lp.rows.iter().all(|(coeffs, rhs)| {
        let lhs: f64 = coeffs.iter().zip(x).map(|(c, v)| c * v).sum();
        lhs <= rhs + 1e-6 * rhs.max(1.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The returned solution is feasible and its objective matches the
    /// reported optimum.
    #[test]
    fn solutions_are_feasible_and_consistent(lp in arb_lp()) {
        let (prog, vars) = build(&lp);
        let sol = prog.solve().unwrap();
        let x: Vec<f64> = vars.iter().map(|&v| sol.value(v)).collect();
        prop_assert!(is_feasible(&lp, &x), "infeasible solution {x:?}");
        let recomputed: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        prop_assert!((recomputed - sol.objective).abs() < 1e-6 * (1.0 + sol.objective.abs()));
    }

    /// No randomly sampled feasible point beats the reported optimum
    /// (sample-based optimality certificate).
    #[test]
    fn no_sampled_point_beats_optimum(lp in arb_lp(), sample_seed in any::<u64>()) {
        let (prog, _) = build(&lp);
        let sol = prog.solve().unwrap();
        let mut rng = StdRng::seed_from_u64(sample_seed);
        for _ in 0..200 {
            // Sample within the covering box, then project to feasibility
            // by scaling down.
            let mut x: Vec<f64> = (0..lp.n).map(|_| rng.gen_range(0.0..20.0)).collect();
            let mut worst = 1.0f64;
            for (coeffs, rhs) in &lp.rows {
                let lhs: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
                if lhs > *rhs {
                    worst = worst.max(lhs / rhs);
                }
            }
            for v in &mut x {
                *v /= worst;
            }
            let val: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
            prop_assert!(
                val <= sol.objective + 1e-5 * (1.0 + sol.objective.abs()),
                "sampled point beats simplex: {val} > {}",
                sol.objective
            );
        }
    }

    /// A built program whose coefficients and right-hand sides are
    /// rewritten in place solves bit for bit like one built with the new
    /// values, including rows whose new rhs is negative (the tableau
    /// negates those as it fills them).
    #[test]
    fn rewritten_program_solves_like_a_fresh_build(lp in arb_lp(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut changed = lp.clone();
        // The covering row stays, so the program stays bounded.
        for (coeffs, rhs) in changed.rows.iter_mut().skip(1) {
            for c in coeffs.iter_mut() {
                *c = rng.gen_range(0.0..4.0);
            }
            *rhs = rng.gen_range(-5.0..40.0);
        }
        let (mut kept, vars, rows) = build_rows(&lp);
        for (&row, (coeffs, rhs)) in rows.iter().zip(&changed.rows) {
            for (&var, &c) in vars.iter().zip(coeffs) {
                kept.set_coefficient(row, var, c);
            }
            kept.set_rhs(row, *rhs);
        }
        let (fresh, _) = build(&changed);
        prop_assert_eq!(outcome_bits(&kept), outcome_bits(&fresh));
    }

    /// Integer solutions are integral, feasible, and no worse than any
    /// sampled integer point.
    #[test]
    fn integer_solutions_are_integral_and_good(lp in arb_lp(), sample_seed in any::<u64>()) {
        let (prog, vars) = build(&lp);
        let sol = match solve_integer(&prog, &vars, 50_000) {
            Ok(s) => s,
            Err(SolveError::NodeLimit { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("solver error {e}"))),
        };
        let x: Vec<f64> = vars.iter().map(|&v| sol.value(v)).collect();
        for &v in &x {
            prop_assert!((v - v.round()).abs() < 1e-5, "non-integral {v}");
        }
        prop_assert!(is_feasible(&lp, &x));
        // Sampled integer points cannot beat it.
        let mut rng = StdRng::seed_from_u64(sample_seed);
        for _ in 0..100 {
            let cand: Vec<f64> = (0..lp.n).map(|_| rng.gen_range(0..8) as f64).collect();
            if is_feasible(&lp, &cand) {
                let val: f64 = lp.objective.iter().zip(&cand).map(|(c, v)| c * v).sum();
                prop_assert!(
                    val <= sol.objective + 1e-5 * (1.0 + sol.objective.abs()),
                    "integer point {cand:?} beats B&B"
                );
            }
        }
    }
}
