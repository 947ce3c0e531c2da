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
//! * [`StreamingSolver`] — owns the evolving observed tensor, the current
//!   model, and the residual values between solves. Applying a batch folds it
//!   into all three *incrementally* (`O(|Δ|·N·R)` model evaluations; the
//!   sorted batch located by one forward galloping walk over the entries,
//!   `O(|Δ|·log(nnz/|Δ|))` probes; one splice) instead of rebuilding
//!   anything, then a warm re-solve restarts ADMM from the previous
//!   factors under a convergence budget.
//!
//! The warm path is exact, not heuristic: after `apply`, the carried
//! residual equals `Ω∗(T − [[model…]])` bit-for-bit on the new support, so
//! a warm [`StreamingSolver::solve`] is bit-identical to
//! [`distenc_core::AdmmSolver::solve_from`] on the final tensor — only
//! faster, because the residual skips its `O(nnz)` rebuild.

#![warn(missing_docs)]

mod delta;
mod solver;

pub use delta::{DeltaBatch, StreamError};
pub use solver::StreamingSolver;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StreamError>;
