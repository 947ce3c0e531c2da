//! Synthetic workload generators for the DisTenC evaluation.
//!
//! Two families (§IV-A):
//!
//! * [`synthetic`] — the paper's own synthetic data: uniformly random
//!   tensors for the scalability sweeps (`Synthetic-scalability`) and the
//!   linear-factor construction with tri-diagonal similarities for the
//!   reconstruction-error tests (`Synthetic-error`, Eq. 17).
//! * [`apps`] — *analogs* of the four real-world datasets (Table II).
//!   The originals are proprietary or impractically large, so each analog
//!   plants the structure the corresponding experiment measures: the same
//!   tensor shape family, comparable sparsity, a low-rank signal, and
//!   per-mode similarity matrices that are genuinely informative about
//!   that signal (see DESIGN.md §2 on substitutions).

#![warn(missing_docs)]

pub mod apps;
pub mod synthetic;

