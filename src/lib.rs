//! # distenc
//!
//! A from-scratch Rust reproduction of **DisTenC** (Ge et al., ICDE 2018):
//! distributed low-rank CP tensor completion with auxiliary-information
//! (trace/graph-Laplacian) regularization via ADMM, executed on an
//! in-process Spark-like dataflow engine with virtual-time, memory, and
//! shuffle accounting.
//!
//! This umbrella crate re-exports the workspace so downstream users (and
//! the examples under `examples/`) can depend on a single crate:
//!
//! * [`linalg`] — dense matrices, Cholesky, Jacobi / Lanczos eigensolvers
//! * [`tensor`] — sparse COO tensors and CP/Kruskal algebra
//! * [`graph`] — similarity graphs and graph Laplacians
//! * [`dataflow`] — the simulated cluster's cost accounting and the
//!   deterministic executor
//! * [`partition`] — greedy load-balanced tensor blocking (Algorithm 2)
//! * [`core`] — the DisTenC algorithm itself (Algorithms 1 & 3)
//! * [`baselines`] — ALS, TFAI, SCouT, FlexiFact comparators
//! * [`datagen`] — synthetic workloads mirroring the paper's datasets
//! * [`eval`] — metrics and the figure/table experiment harness
//! * [`serve`] — batched model serving for completed tensors: one queue
//!   in front of one hot-swappable engine
//! * [`stream`] — streaming completion: delta batches, warm re-solves,
//!   and live model swap into the serve tier

#![warn(missing_docs)]

pub use distenc_baselines as baselines;
pub use distenc_core as core;
pub use distenc_dataflow as dataflow;
pub use distenc_datagen as datagen;
pub use distenc_eval as eval;
pub use distenc_graph as graph;
pub use distenc_linalg as linalg;
pub use distenc_partition as partition;
pub use distenc_serve as serve;
pub use distenc_stream as stream;
pub use distenc_tensor as tensor;
