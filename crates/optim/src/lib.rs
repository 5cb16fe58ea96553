//! # neurfill-optim
//!
//! Optimization substrate of the NeurFill reproduction:
//!
//! * [`SqpSolver`] — the sequential-quadratic-programming maximizer used by
//!   the MSP-SQP framework (paper §IV), realized at scale with a
//!   limited-memory quasi-Newton subproblem model and a projected-arc line
//!   search; [`qp`] holds the dense active-set box-QP reference solver.
//! * [`Nmmso`] — the niching migratory multi-swarm optimizer of the
//!   multi-modal starting-points search (paper §IV-D, Fieldsend 2014).
//! * [`maximize_multi_start`] — the MSP driver combining both.
//! * [`maximize_projected_gradient`] — the ablation baseline without a
//!   curvature model.
//!
//! All solvers follow the *maximization* convention of the filling-quality
//! score (Eq. 5) and operate under box constraints (Eq. 5d).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod linesearch;
mod msp;
mod nmmso;
mod problem;
mod projgrad;
pub mod qp;
mod sqp;
pub mod testfns;

pub use linesearch::{projected_backtracking, LineSearch, LineSearchResult};
pub use msp::{maximize_multi_start, MultiStartResult};
pub use nmmso::{Mode, Nmmso, NmmsoConfig, NmmsoResult};
pub use problem::{Bounds, BoxNormalized, FnObjective, Objective};
pub use projgrad::{maximize_projected_gradient, ProjGradConfig};
pub use sqp::{SqpConfig, SqpResult, SqpSolver};

/// Verifies an [`Objective`]'s analytic gradient against central finite
/// differences at `x` (test helper shared across the workspace).
#[must_use]
pub fn gradcheck_objective(obj: &dyn Objective, x: &[f64], eps: f64, tol: f64) -> bool {
    let g = obj.gradient(x);
    for i in 0..x.len() {
        let mut xp = x.to_vec();
        let mut xm = x.to_vec();
        xp[i] += eps;
        xm[i] -= eps;
        let fd = (obj.value(&xp) - obj.value(&xm)) / (2.0 * eps);
        if (fd - g[i]).abs() > tol * (1.0 + fd.abs()) {
            return false;
        }
    }
    true
}
