//! Dense linear algebra kernels used throughout the DisTenC reproduction.
//!
//! This crate deliberately implements only what the paper's algorithms need,
//! from scratch, and with one `unsafe` block: [`isa::widest`]'s call into
//! its AVX2 instantiation, whose `// SAFETY:` argument is that the CPU has
//! just reported the feature. Everything else is safe code:
//!
//! * [`Mat`] — a small row-major dense matrix with the handful of BLAS-like
//!   operations the completion algorithms perform on `R×R` and `I×R`
//!   operands (products, Gram matrices, Hadamard products, norms).
//! * [`chol`] — Cholesky factorization and SPD solves for the
//!   `(UᵀU + λI + ηI)⁻¹`-style systems in Algorithm 1 / Algorithm 3.
//! * [`eigen`] — dense symmetric eigensolvers: Householder + QL for
//!   production, cyclic Jacobi as the test oracle.
//! * [`tridiag`] — Householder tridiagonalization and implicit-shift QL
//!   for symmetric tridiagonal matrices, the inner solver of both the
//!   dense path and Lanczos.
//! * [`isa`] — the runtime dispatch that runs the hot bodies (here:
//!   [`Mat::matmul_into`], [`tridiag::tqli`], Lanczos' reorthogonalization;
//!   in `distenc-tensor`, the entry sweep) on 256-bit lanes where the CPU
//!   has them, bit for bit.
//! * [`lanczos`] — truncated Lanczos with full reorthogonalization over an
//!   abstract [`LinOp`], standing in for the MRRR eigensolver the paper uses
//!   to truncate graph Laplacians (`L ≈ VΛVᵀ`, §III-B).

#![warn(missing_docs)]

#![allow(clippy::needless_range_loop)] // indexed loops mirror the math in numeric kernels

pub(crate) mod chol;
pub mod eigen;
pub mod isa;
pub(crate) mod lanczos;
pub(crate) mod mat;
pub(crate) mod tridiag;
pub(crate) mod vec_ops;

pub use chol::Cholesky;
pub use eigen::symmetric_eigen;
pub use lanczos::lanczos_smallest;
pub use lanczos::LinOp;
pub use mat::Mat;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix was expected to be symmetric positive definite but a
    /// non-positive pivot was encountered during factorization.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Which method failed.
        method: &'static str,
        /// Number of iterations performed.
        iters: usize,
    },
    /// An argument was out of the accepted domain (e.g. `k > n` eigenpairs).
    InvalidArgument(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(f, "matrix not positive definite: pivot {pivot} = {value}")
            }
            LinalgError::NoConvergence { method, iters } => {
                write!(f, "{method} did not converge after {iters} iterations")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
