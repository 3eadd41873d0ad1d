#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Dense linear algebra and statistics primitives for the TESLA reproduction.
//!
//! The paper trains (1 + N_a + N_d)·L independent ridge regressions
//! (§3.2, "Training methodology") whose analytical solutions are obtained
//! via the normal equations. This crate supplies exactly the numerical
//! machinery that entails and nothing more:
//!
//! * [`Matrix`] — a small row-major dense matrix with the handful of
//!   operations the upper crates need (products, transpose, slicing).
//! * [`Cholesky`] — factorization of symmetric positive-definite systems,
//!   used both to solve the ridge normal equations and by the Gaussian
//!   process in `tesla-gp`.
//! * [`Ridge`] / [`fit_ridge`] — closed-form ridge/OLS regression
//!   (`α = 0` reproduces the OLS variant used by the Lazic et al. baseline).
//! * [`stats`] — means/variances/quantiles and the error metrics (MAPE,
//!   RMSE, MAE) used throughout the evaluation section.
//!
//! Everything operates on `f64`. Matrices in this workload are small
//! (hundreds of rows, tens of columns), so the implementation favours
//! clarity and numerical robustness (jittered Cholesky). The hot kernels
//! (Cholesky factorization, batched forward substitution, posterior
//! draws) run several independent sums in lockstep instead of cache
//! blocking, and keep each sum's operation order so results are
//! bit-identical to the plain loops.
//!
//! # Example: closed-form ridge fit
//!
//! ```
//! use tesla_linalg::{fit_ridge, Matrix};
//!
//! // y = 2·x + 1, recovered through the normal equations.
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
//! let ridge = fit_ridge(&x, &[1.0, 3.0, 5.0, 7.0], 1e-6)?;
//! assert!((ridge.predict(&[4.0]) - 9.0).abs() < 1e-3);
//! # Ok::<(), tesla_linalg::LinalgError>(())
//! ```

pub mod cholesky;
pub mod matrix;
pub mod ridge;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use ridge::{fit_ridge, Ridge};

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand.
        lhs: (usize, usize),
        /// Dimensions of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix is not positive definite (even after jitter), so a
    /// Cholesky factorization does not exist.
    NotPositiveDefinite,
    /// An operation that requires a non-empty input received an empty one.
    Empty(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinalgError::Empty(what) => write!(f, "empty input: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
