//! The sampled (sketched) [`StepBackend`]: statistical MTTKRP estimates
//! from a norm-proportional entry sample, in the spirit of randomized
//! sparse CP decomposition (Bharadwaj et al., arXiv 2210.05105).
//!
//! **Estimator.** For an output mode `n`, the exact sparse MTTKRP is
//! `Σ_i e_i · ⊛_{k≠n} A⁽ᵏ⁾(i_k,:)` over all `nnz` residual entries. The
//! sketched step draws `S` entry positions i.i.d. from a fixed
//! importance distribution `p` ([`EntrySampler`]) and accumulates the
//! importance-weighted partial sum `(1/S) Σ_s (e_s / p_s) · ⊛rows` — an
//! unbiased estimator whose variance the sampler's uniform floor keeps
//! finite. The residual value `e_s` is *recomputed from the model at
//! draw time* (`e = t − [[A…]](idx)`, via the same partial Hadamard
//! product completed with the skipped row), so the backend never needs
//! the `O(nnz)` residual refresh during the sketch phase: its residual (a
//! [`TensorLayout`], like the host's, so the polish phase takes it over
//! as is) keeps stale values until the phase's final exact refresh.
//!
//! **Pass economics.** One sketched iteration of an order-N tensor
//! touches exactly `N·S` entries: `N−1` sampled MTTKRPs of `S` draws for
//! modes `1..N`, plus one `S`-draw fused sweep ([`StepBackend::fused_step`])
//! that estimates `‖E‖²_F` and writes the next iteration's mode-0 MTTKRP
//! estimate into the core's bank from the same draws — mirroring the
//! exact backend's N-pass fusion. The exact tier touches `N·nnz`; `tests/pass_count.rs` pins the
//! ratio through the entry-touch instrument
//! ([`distenc_dataflow::passes::entries_touched`]). Sampled gathers are
//! charged as entry touches but *not* as sweeps — they never traverse
//! the full nonzero list.
//!
//! **Determinism.** All sampled computation runs sequentially on the
//! driver thread; the RNG is seeded from the config seed and consumed in
//! a fixed order ([`EntrySampler::draw_into`]). The executor is only used
//! for the end-of-phase exact refresh, which is bit-exact under any
//! chunking — so the whole sketched schedule is bit-identical across
//! `DISTENC_THREADS` settings (`tests/sketched_equivalence.rs` and the
//! sketched golden trace pin this).
//!
//! **Hand-off invariant.** When [`StepBackend::fused_step`] is called
//! with an empty bank (final or converged iteration — the sketch phase
//! always runs with fusion on), this backend performs a *full exact*
//! residual refresh and returns the exact `‖E‖²_F`, so the residual values leaving the sketch phase satisfy the
//! [`crate::ResidualHandoff`] invariant (`e = Ω∗(T − [[model…]])`) and
//! the exact polish phase warm-starts without a prologue rebuild.

use super::StepBackend;
use crate::Result;
use distenc_dataflow::Executor;
use distenc_linalg::sketch::{hadamard_rows_skip_into, SketchScratch};
use distenc_linalg::vec_ops::dot;
use distenc_linalg::Mat;
use distenc_tensor::residual::ResidualWorkspace;
use distenc_tensor::sample::EntrySampler;
use distenc_tensor::{CooTensor, KruskalTensor, TensorLayout};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream-separation constant XORed into the config seed so the sampler
/// never shares an RNG stream with the factor initialization (which uses
/// the raw seed).
const SAMPLER_STREAM: u64 = 0x5ce7_c4ed_9b1f_a301;

/// Sketched backend: sampled MTTKRP / norm estimates during the sketch
/// phase, exact residual refresh only at phase exit.
pub(crate) struct SketchedBackend<'t, C> {
    /// The observed tensor — sampled entries read `t_i` (and indices)
    /// directly from it; the residual value is recomputed per draw.
    observed: &'t CooTensor,
    /// Fixed norm-proportional importance distribution over `observed`.
    sampler: EntrySampler,
    /// Driver-thread RNG, consumed sequentially (one `f64` per draw).
    rng: StdRng,
    /// Draws per sampled kernel invocation.
    samples: usize,
    /// Reused draw buffer (entry positions into `observed`).
    draws: Vec<usize>,
    /// Reused `R`-vector for the partial Hadamard row product.
    scratch: SketchScratch,
    /// Executor for the end-of-phase exact refresh only.
    exec: Executor,
    res: ResidualWorkspace,
    clock: C,
}

impl<'t, C: Fn(usize) -> f64> SketchedBackend<'t, C> {
    /// Build the sampler over `observed`, seed the draw stream from
    /// `seed`, and size all scratch for `samples` draws at rank `rank`.
    pub fn new(
        observed: &'t CooTensor,
        samples: usize,
        rank: usize,
        exec: Executor,
        seed: u64,
        clock: C,
    ) -> Result<Self> {
        let sampler = EntrySampler::norm_proportional(observed)?;
        let res = ResidualWorkspace::new(observed.nnz(), &exec);
        Ok(SketchedBackend {
            observed,
            sampler,
            rng: StdRng::seed_from_u64(seed ^ SAMPLER_STREAM),
            samples,
            draws: Vec::with_capacity(samples),
            scratch: SketchScratch::new(rank),
            exec,
            res,
            clock,
        })
    }

    /// One `S`-draw sampled pass for `mode`: overwrite `out` with the
    /// importance-weighted MTTKRP estimate and return the matching
    /// estimate of `‖E‖²_F = Σ e²` from the same draws. Charged to the
    /// entry-touch instrument as a gather, not a sweep.
    fn sample_into(&mut self, model: &KruskalTensor, mode: usize, out: &mut Mat) -> Result<f64> {
        self.sampler.draw_into(&mut self.rng, self.samples, &mut self.draws);
        crate::record_entry_gather(self.draws.len());
        out.fill(0.0);
        let inv_s = 1.0 / self.samples as f64;
        let mut frob = 0.0;
        for &pos in &self.draws {
            let idx = self.observed.index(pos);
            // e = t − [[A…]](idx); the model evaluation completes the
            // partial Hadamard product with the skipped mode's row.
            hadamard_rows_skip_into(model.factors(), mode, idx, &mut self.scratch.had)?;
            let pred = dot(&self.scratch.had, model.factors()[mode].row(idx[mode]));
            let e = self.observed.value(pos) - pred;
            let p = self.sampler.prob(pos);
            frob += e * e / p;
            let w = e * inv_s / p;
            let row = out.row_mut(idx[mode]);
            for (o, &h) in row.iter_mut().zip(self.scratch.had.iter()) {
                *o += w * h;
            }
        }
        Ok(frob * inv_s)
    }
}

impl<'t, C: Fn(usize) -> f64> StepBackend for SketchedBackend<'t, C> {
    type Residual = TensorLayout;

    fn sparse_mttkrp(
        &mut self,
        _residual: &TensorLayout,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()> {
        self.sample_into(model, mode, out).map(|_| ())
    }

    fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
        // Grams are O(Iₙ·R²), independent of nnz — always exact.
        factor.gram_into(out)?;
        Ok(())
    }

    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut TensorLayout,
        _refresh: bool,
        bank: &mut [Mat],
    ) -> Result<(f64, usize)> {
        // A sampled sweep neither reads nor writes the residual values (it
        // re-evaluates the model at its draws), so entered on a carried
        // residual (`refresh` off, a bank to fill) it is the sweep it
        // always is.
        let Some(h0) = bank.first_mut() else {
            // Final (or converged) iteration of the sketch phase: restore
            // the hand-off invariant with one exact refresh so the polish
            // phase — or a streaming carry — starts from fresh values.
            residual.refresh_values(observed, model, &mut self.res, &self.exec)?;
            return Ok((residual.frob_norm_sq(), 0));
        };
        // One S-draw pass estimates ‖E‖²_F and banks the mode-0 MTTKRP
        // estimate from the same draws — the sampled analogue of the exact
        // backend's fused pass.
        Ok((self.sample_into(model, 0, h0)?, 1))
    }

    fn clock(&self, iter: usize) -> f64 {
        (self.clock)(iter)
    }
}
