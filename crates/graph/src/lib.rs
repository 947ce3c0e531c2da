//! Similarity graphs and graph Laplacians for DisTenC's trace regularizer.
//!
//! Tensor completion with auxiliary information (Eq. 4) attaches to each
//! mode `n` a similarity matrix `Sₙ` over that mode's entities, and
//! penalizes `tr(B⁽ⁿ⁾ᵀ Lₙ B⁽ⁿ⁾)` where `Lₙ = Dₙ − Sₙ` is the graph
//! Laplacian. This crate provides:
//!
//! * [`SparseSym`] — a CSR-ish symmetric sparse matrix for similarities,
//! * [`laplacian`] — Laplacian construction and its [`LinOp`]
//!   implementation for matrix-free eigensolves,
//! * [`TruncatedLaplacian`] — the precomputed `L ≈ VΛVᵀ` that makes the
//!   `B⁽ⁿ⁾` update cheap (Eq. 6/7), including the ordered
//!   `Vₙ(η+αΛ)⁻¹(Vₙᵀ(ηA−Y))` application,
//! * [`builders`] — similarity constructions used by the experiments: the
//!   paper's tri-diagonal chain (Eq. 17), community blocks, and feature
//!   kNN graphs.
//!
//! [`LinOp`]: distenc_linalg::LinOp

#![warn(missing_docs)]

pub mod builders;
pub(crate) mod laplacian;
pub(crate) mod sparse;

pub use laplacian::Laplacian;
pub use laplacian::ShiftedInverseScratch;
pub use laplacian::TruncatedLaplacian;
pub use sparse::SparseSym;
