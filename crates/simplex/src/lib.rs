//! A linear-programming solver built from scratch.
//!
//! The paper solves its joint VNF-deployment / multicast-routing program
//! (an integer LP) by relaxing integrality and calling a stock solver
//! ("use standard LP solvers, e.g., glpk ... or apply certain LP solvers,
//! e.g., cplex, to directly solve the integer linear program"). This crate
//! is the from-scratch substitute: a two-phase primal simplex with a
//! Bland anti-cycling fallback, plus depth-first branch-and-bound for the
//! integer variables.
//!
//! A [`LinearProgram`] stores every constraint term in one flat array,
//! each row a span of it, and variable names as static kinds, so a model
//! costs a handful of allocations however many rows it has, and a built
//! model's coefficients and right-hand sides can be rewritten in place
//! for a re-solve. `solve` fills a dense tableau straight from those
//! spans, negating a negative-rhs row as it writes it, and each pivot
//! eliminates only over the pivot row's non-zero columns. Problem sizes
//! in this system (5–20 data centers, a handful of sessions) are tiny by
//! LP standards, so a dense tableau is the right tool.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + y <= 4`, `x + 3y <= 6`:
//!
//! ```
//! use ncvnf_simplex::{LinearProgram, Relation};
//!
//! # fn main() -> Result<(), ncvnf_simplex::SolveError> {
//! let mut lp = LinearProgram::new();
//! let x = lp.add_var("x", 0.0);
//! let y = lp.add_var("y", 0.0);
//! lp.set_objective_coeff(x, 3.0);
//! lp.set_objective_coeff(y, 2.0);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x = 4, y = 0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod error;
mod problem;
mod tableau;

pub use branch::solve_integer;
pub use error::SolveError;
pub use problem::{ConstraintId, LinearProgram, Relation, VarId};
pub use tableau::Solution;
