//! Experiment harness reproducing the DisTenC evaluation (§IV).
//!
//! One module per concern:
//!
//! * [`metrics`] — Relative Error (§IV-D) and RMSE (§IV-E) exactly as the
//!   paper defines them;
//! * [`methods`] — a uniform driver over the five competitors, adapting
//!   each solver's native inputs (Laplacians vs similarity matrices vs
//!   nothing) and pairing it with its execution substrate;
//! * [`figures`] — one driver per table/figure: `fig3a/b/c` (data
//!   scalability via the calibrated models), `fig4` (machine
//!   scalability), `fig5` (reconstruction error), `fig6`/`fig7`
//!   (recommendation & link prediction accuracy + convergence), `table2`
//!   (dataset summary), `table3` (concept discovery);
//! * [`discovery`] — top-k concept extraction and purity scoring for
//!   Table III;
//! * [`ablation`] — ablations of the paper's three key insights;
//! * `calibrate` (test-only) — engine-vs-model fidelity gate;
//! * [`table`] — plain-text rendering used by the `distenc-bench`
//!   binaries.

#![warn(missing_docs)]

pub mod ablation;
#[cfg(test)]
mod calibrate;
pub mod discovery;
pub mod figures;
pub mod methods;
pub mod metrics;
pub mod sensitivity;
pub mod table;

