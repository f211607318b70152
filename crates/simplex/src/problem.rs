//! LP model builder.

use crate::error::SolveError;
use crate::tableau::{self, Solution};

/// Identifier of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

/// Identifier of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub(crate) usize);

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// One constraint row: its terms are `terms[start..end]` of the model.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A maximization LP over non-negative variables.
///
/// All variables have a lower bound of zero (matching the paper's program,
/// where flows, rates and VNF counts are non-negative); optional upper
/// bounds are handled as extra rows. The objective sense is maximize.
///
/// Every constraint term lives in one flat array, a row being a span of
/// it, so building a model allocates per model, not per row, and a built
/// model can have its coefficients rewritten in place
/// ([`LinearProgram::set_coefficient`], [`LinearProgram::set_rhs`]).
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    pub(crate) names: Vec<&'static str>,
    pub(crate) objective: Vec<f64>,
    pub(crate) upper_bounds: Vec<Option<f64>>,
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) rows: Vec<Row>,
}

impl LinearProgram {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a non-negative variable with the given objective coefficient.
    /// `name` is the variable's kind; error messages add its index.
    pub fn add_var(&mut self, name: &'static str, objective: f64) -> VarId {
        self.names.push(name);
        self.objective.push(objective);
        self.upper_bounds.push(None);
        VarId(self.names.len() - 1)
    }

    /// Sets (replaces) the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: f64) {
        assert!(var.0 < self.names.len(), "unknown variable");
        self.objective[var.0] = coeff;
    }

    /// Sets an upper bound `var ≤ ub` (in addition to the implicit
    /// `var ≥ 0`).
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn set_upper_bound(&mut self, var: VarId, ub: f64) {
        assert!(var.0 < self.names.len(), "unknown variable");
        self.upper_bounds[var.0] = Some(ub);
    }

    /// Adds a linear constraint `Σ terms {≤,=,≥} rhs`; duplicate variables
    /// in `terms` are summed.
    pub fn add_constraint(
        &mut self,
        terms: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> ConstraintId {
        let start = self.terms.len();
        for &(v, c) in terms {
            assert!(v.0 < self.names.len(), "unknown variable");
            if let Some(entry) = self.terms[start..].iter_mut().find(|(i, _)| *i == v.0) {
                entry.1 += c;
            } else {
                self.terms.push((v.0, c));
            }
        }
        self.rows.push(Row {
            start,
            end: self.terms.len(),
            relation,
            rhs,
        });
        ConstraintId(self.rows.len() - 1)
    }

    /// Replaces the coefficient of `var` in constraint `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not belong to this model or `var` has no term
    /// in it.
    pub fn set_coefficient(&mut self, row: ConstraintId, var: VarId, coeff: f64) {
        let Row { start, end, .. } = self.rows[row.0];
        let term = self.terms[start..end]
            .iter_mut()
            .find(|(i, _)| *i == var.0)
            .expect("variable has no term in this constraint");
        term.1 = coeff;
    }

    /// Replaces the right-hand side of constraint `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not belong to this model.
    pub fn set_rhs(&mut self, row: ConstraintId, rhs: f64) {
        self.rows[row.0].rhs = rhs;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints (excluding bounds).
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// The name (kind) of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_name(&self, var: VarId) -> &'static str {
        self.names[var.0]
    }

    /// The terms of constraint row `r`.
    pub(crate) fn row_terms(&self, r: &Row) -> &[(usize, f64)] {
        &self.terms[r.start..r.end]
    }

    /// Solves the LP relaxation with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`],
    /// [`SolveError::IterationLimit`] on numerical failure, or
    /// [`SolveError::InvalidCoefficient`] if the model contains NaN or
    /// infinite data.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.validate()?;
        tableau::solve(self)
    }

    fn validate(&self) -> Result<(), SolveError> {
        for (i, c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(SolveError::InvalidCoefficient {
                    context: format!("objective coefficient of {} {i}", self.names[i]),
                });
            }
        }
        for (i, ub) in self.upper_bounds.iter().enumerate() {
            if let Some(ub) = ub {
                if !ub.is_finite() || *ub < 0.0 {
                    return Err(SolveError::InvalidCoefficient {
                        context: format!("upper bound of {} {i}", self.names[i]),
                    });
                }
            }
        }
        for (row, r) in self.rows.iter().enumerate() {
            if !r.rhs.is_finite() {
                return Err(SolveError::InvalidCoefficient {
                    context: format!("rhs of constraint {row}"),
                });
            }
            for &(var, coeff) in self.row_terms(r) {
                if !coeff.is_finite() {
                    return Err(SolveError::InvalidCoefficient {
                        context: format!("constraint {row}, variable {} {var}", self.names[var]),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_duplicate_terms() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0), (x, 2.0)], Relation::Le, 9.0);
        assert_eq!(lp.row_terms(&lp.rows[0]), &[(0, 3.0)]);
        // x <= 3 effectively
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rows_are_spans_of_one_term_array() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        let a = lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 4.0);
        let b = lp.add_constraint(&[(y, 1.0), (y, 1.0)], Relation::Le, 3.0);
        assert_eq!(lp.terms, vec![(0, 1.0), (1, 2.0), (1, 2.0)]);
        lp.set_coefficient(a, y, 5.0);
        lp.set_rhs(b, 6.0);
        assert_eq!(lp.row_terms(&lp.rows[a.0]), &[(0, 1.0), (1, 5.0)]);
        assert_eq!(lp.rows[b.0].rhs, 6.0);
    }

    #[test]
    #[should_panic(expected = "no term")]
    fn rewriting_an_absent_term_panics() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        let a = lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        lp.set_coefficient(a, y, 1.0);
    }

    #[test]
    fn invalid_coefficients_are_reported() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", f64::NAN);
        assert!(matches!(
            lp.solve(),
            Err(SolveError::InvalidCoefficient { .. })
        ));
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(&[(x, f64::INFINITY)], Relation::Le, 1.0);
        match lp.solve() {
            Err(SolveError::InvalidCoefficient { context }) => {
                assert_eq!(context, "constraint 0, variable x 0");
            }
            other => panic!("expected an invalid coefficient, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_panics() {
        let mut a = LinearProgram::new();
        let mut b = LinearProgram::new();
        let _x = a.add_var("x", 1.0);
        let y = VarId(5);
        b.add_constraint(&[(y, 1.0)], Relation::Le, 1.0);
    }
}
