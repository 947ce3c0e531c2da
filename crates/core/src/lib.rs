//! **DisTenC** — distributed trace-regularized tensor completion
//! (Ge et al., ICDE 2018).
//!
//! The problem (Eq. 4): given a partially observed `N`-order tensor `T`
//! with observation mask `Ω` and per-mode similarity matrices, find a
//! rank-`R` CP model minimizing
//!
//! ```text
//!   ½‖X − [[A⁽¹⁾,…,A⁽ᴺ⁾]]‖²_F + (λ/2)Σₙ‖A⁽ⁿ⁾‖²_F + Σₙ (αₙ/2)·tr(B⁽ⁿ⁾ᵀLₙB⁽ⁿ⁾)
//!   s.t.  Ω∗X = T,   A⁽ⁿ⁾ = B⁽ⁿ⁾
//! ```
//!
//! solved by ADMM (Algorithm 1). This crate provides:
//!
//! * `admm` — the serial reference solver (Algorithm 1, with the
//!   efficient updates of §III already applied; it is the correctness
//!   oracle for the distributed version),
//! * `distenc` — Algorithm 3: the distributed solver executing on a
//!   [`distenc_dataflow::Cluster`], with greedy blocking (Algorithm 2),
//!   cached Gram matrices, eigendecomposed Laplacians, and
//!   residual-tensor updates,
//! * [`config`] — hyper-parameters shared by both solvers,
//! * [`trace`] — convergence traces (training RMSE vs time, the data
//!   behind Figs. 6b/7b),
//! * [`model`] — the analytical cost/memory model (Lemmas 1–3) used by the
//!   large-scale scalability experiments (Fig. 3) where materializing the
//!   tensor is impossible by design.

#![warn(missing_docs)]

pub(crate) mod admm;
pub mod config;
pub(crate) mod distenc;
pub mod model;
pub(crate) mod solver;
pub mod trace;

pub use admm::AdmmSolver;
pub use config::AdmmConfig;
pub use config::CheckpointPolicy;
pub use distenc::DisTenC;
pub use model::WorkloadSpec;
pub use solver::checkpoint::Checkpoint;
pub use solver::checkpoint::CheckpointError;
pub use trace::ConvergenceTrace;

use distenc_tensor::KruskalTensor;

/// One tick on the pass-count instrument per full entry-list sweep over
/// `entries` nonzeros the *cluster backend* performs locally (the host
/// backend's sweeps are recorded by the `distenc-tensor` kernels
/// themselves). Compiles to nothing without the `pass-count` feature; one
/// tick per kernel invocation, never per block or thread, so counts are
/// host-independent.
#[inline]
pub(crate) fn record_entry_sweep(entries: usize) {
    #[cfg(feature = "pass-count")]
    distenc_dataflow::passes::record_sweep(entries);
    #[cfg(not(feature = "pass-count"))]
    let _ = entries;
}

/// Errors from the completion solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Invalid problem setup (shape/rank/similarity mismatches).
    Invalid(String),
    /// Propagated linear-algebra failure.
    Linalg(distenc_linalg::LinalgError),
    /// Propagated tensor-algebra failure.
    Tensor(distenc_tensor::TensorError),
    /// Propagated engine failure (including the simulated O.O.M./O.O.T.
    /// and injected machine loss / task failure).
    Dataflow(distenc_dataflow::DataflowError),
    /// A checkpoint could not be written, read, or validated.
    Checkpoint(solver::checkpoint::CheckpointError),
    /// An iteration left a non-finite factor change or `‖E‖²`: it diverged.
    NonFinite {
        /// The iteration (0-based).
        iter: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Invalid(msg) => write!(f, "invalid completion setup: {msg}"),
            CoreError::Linalg(e) => write!(f, "{e}"),
            CoreError::Tensor(e) => write!(f, "{e}"),
            CoreError::Dataflow(e) => write!(f, "{e}"),
            CoreError::Checkpoint(e) => write!(f, "{e}"),
            CoreError::NonFinite { iter } => write!(f, "non-finite value at iteration {iter}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<distenc_linalg::LinalgError> for CoreError {
    fn from(e: distenc_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<distenc_tensor::TensorError> for CoreError {
    fn from(e: distenc_tensor::TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<distenc_dataflow::DataflowError> for CoreError {
    fn from(e: distenc_dataflow::DataflowError) -> Self {
        CoreError::Dataflow(e)
    }
}

impl From<solver::checkpoint::CheckpointError> for CoreError {
    fn from(e: solver::checkpoint::CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Outcome of a completion run.
#[derive(Debug, Clone)]
pub struct CompletionResult {
    /// The learned CP model; unobserved cells are predicted by
    /// [`KruskalTensor::eval`].
    pub model: KruskalTensor,
    /// Per-iteration convergence data.
    pub trace: ConvergenceTrace,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the factor-delta criterion fired before `max_iters`.
    pub converged: bool,
}
