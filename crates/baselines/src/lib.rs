//! Baseline methods from the DisTenC evaluation (§IV-A).
//!
//! Four comparators, each with a runnable solver (for the accuracy and
//! convergence experiments) and an analytical scalability model (for the
//! Fig. 3 sweeps; see `distenc_core::model`):
//!
//! * [`als`] — distributed CP-ALS tensor completion (Smith et al. SC'16
//!   style). *Coarse-grained*: every machine replicates the full factor
//!   matrices and entire matrices are exchanged each epoch — fast at
//!   moderate scale, O.O.M. once `N·I·R` replicas outgrow a machine.
//! * [`tfai`] — single-machine tensor factorization with auxiliary
//!   information (Narita et al.): the trace regularizer couples rows, so
//!   each mode update solves a Sylvester-type system through the
//!   Laplacian eigenbasis. Bounded by one machine's memory.
//! * [`scout`] — SCouT-style coupled matrix-tensor factorization (Jeon et
//!   al. ICDE'16) on **MapReduce**: similarity matrices enter as coupled
//!   factorizations, state is row-partitioned (scales like DisTenC in
//!   memory) but every stage spills to disk.
//! * [`flexifact`] — FlexiFact (Beutel et al. SDM'14): stratified SGD for
//!   coupled matrix-tensor factorization on **MapReduce**, with
//!   full-matrix working copies and heavy per-epoch communication.

#![warn(missing_docs)]

pub(crate) mod als;
pub(crate) mod flexifact;
pub(crate) mod scout;
pub(crate) mod tfai;

pub use als::AlsConfig;
pub use als::AlsModel;
pub use als::AlsSolver;
pub use flexifact::FlexiFactConfig;
pub use flexifact::FlexiFactModel;
pub use flexifact::FlexiFactSolver;
pub use scout::ScoutConfig;
pub use scout::ScoutModel;
pub use scout::ScoutSolver;
pub use tfai::TfaiConfig;
pub use tfai::TfaiModel;
pub use tfai::TfaiSolver;
