//! **distenc-stream** — streaming completion on top of the DisTenC solver.
//!
//! Production tensors are never finished: new interactions arrive, known
//! values get revised, and whole slices (new users, new items) appear.
//! The batch solvers in `distenc-core` answer this only with a cold
//! re-solve. This crate adds the incremental lifecycle:
//!
//! * [`DeltaBatch`] — a validated description of one change set: new
//!   nonzeros, value updates to existing entries, and per-mode dimension
//!   growth. Construction rejects out-of-range and duplicate coordinates
//!   with typed [`StreamError`]s; nothing panics.
//! * [`StreamingSolver`] — owns the evolving observed tensor and the
//!   current model. Applying a batch folds it into both *incrementally*
//!   (the sorted batch located by one forward galloping walk over the
//!   entries, `O(|Δ|·log(nnz/|Δ|))` probes; one splice; seeded rows for
//!   grown slices) instead of rebuilding anything, then a warm re-solve
//!   restarts ADMM from the previous factors under a convergence budget.
//!
//! The warm path is exact, not heuristic: a warm
//! [`StreamingSolver::solve`] is bit-identical to
//! [`distenc_core::AdmmSolver::solve_from`] on the final tensor. It keeps
//! no residual between solves — the residual is a function of the
//! factors, and the re-solve's first sweep derives it, as every solve's
//! does — and it contains no eigensolve.

#![warn(missing_docs)]

mod delta;
mod solver;

pub use delta::DeltaBatch;
pub use delta::StreamError;
pub use solver::StreamingSolver;

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, StreamError>;
