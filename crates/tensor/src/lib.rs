//! Sparse tensors and CP/Kruskal algebra for the DisTenC reproduction.
//!
//! The paper's tensors are extremely sparse (billions of cells, ≤10⁹
//! non-zeros), stored in coordinate (COO) format — exactly how the Spark
//! implementation keeps them ("all entries are stored in a list with the
//! coordinate format", §III-F). This crate provides:
//!
//! * [`CooTensor`] — the N-order sparse tensor, with per-mode slice
//!   statistics (input to the greedy partitioner, Algorithm 2),
//! * [`KruskalTensor`] — a CP factorization `[[A⁽¹⁾,…,A⁽ᴺ⁾]]`, evaluable at
//!   individual indices in `O(R)`,
//! * [`csf`] — SPLATT's compressed-sparse-fiber layout (§III-C cites it)
//!   with a fiber-factorized MTTKRP,
//! * [`mttkrp`] — the matricized-tensor-times-Khatri-Rao-product kernel and
//!   the Gram-product identity `UᵀU = ⊛ₖ A⁽ᵏ⁾ᵀA⁽ᵏ⁾` (Eq. 12),
//! * [`khatri_rao`] — explicit (dense) Khatri-Rao products and
//!   matricizations, used as small-scale oracles in tests,
//! * [`residual`] — the sparse residual tensor `E = Ω∗(T − [[A…]])`
//!   (Eq. 14) that keeps every iteration `O(nnz)`,
//! * [`fused`] — the one per-entry sweep body, and the block cut
//!   ([`fused::BlockCut`]) the solver sweeps the observed tensor through
//!   on any executor,
//! * [`layout`] — COO, CSF and cache-blocked tiled [`TensorLayout`]s, the
//!   kernel structures the benchmark times behind one surface,
//! * [`dense`] — a tiny dense tensor for test oracles,
//! * [`split`] — train/test splitting by missing rate,
//! * [`io`] — plain-text COO serialization.

#![warn(missing_docs)]

pub(crate) mod coo;
pub(crate) mod csf;
pub(crate) mod dense;
pub mod fused;
pub mod io;
pub mod khatri_rao;
pub(crate) mod layout;
pub(crate) mod kruskal;
pub mod mttkrp;
pub mod residual;
pub mod split;

pub use coo::CooTensor;
pub use dense::DenseTensor;
pub use kruskal::KruskalTensor;
pub use layout::LayoutKind;
pub use layout::TensorLayout;

/// One tick on the pass-count instrument per full entry-list sweep over
/// `entries` nonzeros (see `distenc_dataflow::passes`); compiles to
/// nothing without the `pass-count` feature. Called once per kernel
/// invocation — never per thread or chunk — so counts are
/// host-independent.
#[inline]
pub(crate) fn record_entry_sweep(entries: usize) {
    #[cfg(feature = "pass-count")]
    distenc_dataflow::passes::record_sweep(entries);
    #[cfg(not(feature = "pass-count"))]
    let _ = entries;
}

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// An entry's index fell outside the tensor's shape.
    IndexOutOfBounds {
        /// Offending index tuple.
        index: Vec<usize>,
        /// Tensor shape.
        shape: Vec<usize>,
    },
    /// Operand orders/shapes are incompatible.
    ShapeMismatch(String),
    /// A tensor shape itself is malformed (empty, or a zero dimension).
    InvalidShape {
        /// The rejected shape.
        shape: Vec<usize>,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A file could not be opened or read ([`io`]); the payload is the
    /// operating system's message.
    Io(String),
    /// Text that is not a valid `.coo` tensor or Kruskal model ([`io`]);
    /// the payload says what was wrong.
    Parse(String),
    /// Wrapped linear-algebra failure.
    Linalg(distenc_linalg::LinalgError),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::InvalidShape { shape, reason } => {
                write!(f, "invalid tensor shape {shape:?}: {reason}")
            }
            TensorError::Io(msg) => write!(f, "i/o error: {msg}"),
            TensorError::Parse(msg) => write!(f, "parse error: {msg}"),
            TensorError::Linalg(e) => write!(f, "linalg error: {e}"),
        }
    }
}

impl std::error::Error for TensorError {}

impl From<distenc_linalg::LinalgError> for TensorError {
    fn from(e: distenc_linalg::LinalgError) -> Self {
        TensorError::Linalg(e)
    }
}

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, TensorError>;
