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
//! product completed with the skipped row), so the sketch iterations never
//! need the `O(nnz)` residual refresh: the residual keeps stale values
//! until the boundary sweep rewrites them.
//!
//! **Pass economics.** Like every backend, this one banks all N modes in
//! its sweep ([`StepBackend::fused_step`]): a sampled sweep draws `S`
//! entries for each mode, `0..N` in order from the one draw stream, writes
//! every mode's MTTKRP estimate for the next iteration into the core's
//! bank, and estimates `‖E‖²_F` from mode 0's draws. One sketched
//! iteration of an order-N tensor therefore touches exactly `N·S`
//! entries, where an exact one touches `nnz`; `tests/pass_count.rs` pins
//! the count through the entry-touch instrument
//! ([`distenc_dataflow::passes::entries_touched`]). Sampled gathers are
//! charged as entry touches but *not* as sweeps — they never traverse
//! the full nonzero list.
//!
//! **One run.** The backend wraps the [`HostBackend`] and counts the
//! core's sweeps. The prologue (or entry) sweep and the sweeps closing the
//! first `sketch_iters − 1` iterations are sampled, so the MTTKRPs of the
//! first `sketch_iters` iterations are estimates. Every later sweep goes
//! to the host, starting with the *boundary sweep* that closes iteration
//! `sketch_iters − 1`: the host's refreshing sweep, which rewrites the
//! residual exactly and banks the first exact iteration's MTTKRPs. The
//! ADMM state (`Y`, `η`) runs on through the boundary as in any solve.
//!
//! **Determinism.** All sampled computation runs sequentially on the
//! driver thread; the RNG is seeded from the config seed and consumed in
//! a fixed order ([`EntrySampler::draw_into`]). The exact iterations are
//! the host's, bit-exact under any chunking — so the whole sketched
//! schedule is bit-identical across `DISTENC_THREADS` settings
//! (`tests/sketched_equivalence.rs` and the sketched golden trace pin
//! this).
//!
//! **Residual.** The host's values, indexed by `observed`. A sweep handed
//! no bank — the solve's last, or a converged one, in either phase — is
//! the host's plain exact refresh, so the values a sketched solve returns
//! are `Ω∗(T − [[model…]])` and its final `‖E‖²_F` is exact.

use super::{HostBackend, StepBackend};
use crate::Result;
use distenc_linalg::sketch::{hadamard_rows_skip_into, SketchScratch};
use distenc_linalg::vec_ops::dot;
use distenc_linalg::Mat;
use distenc_tensor::sample::EntrySampler;
use distenc_tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream-separation constant XORed into the config seed so the sampler
/// never shares an RNG stream with the factor initialization (which uses
/// the raw seed).
const SAMPLER_STREAM: u64 = 0x5ce7_c4ed_9b1f_a301;

/// Sketched backend: sampled MTTKRP / norm estimates for the first
/// `sketch_iters` iterations, the wrapped host backend for the rest.
pub(crate) struct SketchedBackend<C> {
    /// Runs every exact sweep and kernel, and stamps the trace.
    host: HostBackend<C>,
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
    /// Leading iterations whose MTTKRPs are sampled.
    sketch_iters: usize,
    /// Sweeps made so far: sweep `k` opens iteration `k`.
    sweeps: usize,
}

impl<C: Fn(usize) -> f64> SketchedBackend<C> {
    /// Build the sampler over `observed`, seed the draw stream from
    /// `seed`, and size all scratch for `samples` draws at rank `rank`;
    /// the first `sketch_iters` iterations sample, `host` runs the rest.
    pub fn new(
        host: HostBackend<C>,
        observed: &CooTensor,
        samples: usize,
        sketch_iters: usize,
        rank: usize,
        seed: u64,
    ) -> Result<Self> {
        Ok(SketchedBackend {
            host,
            sampler: EntrySampler::norm_proportional(observed)?,
            rng: StdRng::seed_from_u64(seed ^ SAMPLER_STREAM),
            samples,
            draws: Vec::with_capacity(samples),
            scratch: SketchScratch::new(rank),
            sketch_iters,
            sweeps: 0,
        })
    }

    /// One `S`-draw sampled pass for `mode`: overwrite `out` with the
    /// importance-weighted MTTKRP estimate and return the matching
    /// estimate of `‖E‖²_F = Σ e²` from the same draws, each recomputing
    /// its residual from `observed`. Charged to the entry-touch instrument
    /// as a gather, not a sweep.
    fn sample_into(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<f64> {
        self.sampler.draw_into(&mut self.rng, self.samples, &mut self.draws);
        crate::record_entry_gather(self.draws.len());
        out.fill(0.0);
        let inv_s = 1.0 / self.samples as f64;
        let mut frob = 0.0;
        for &pos in &self.draws {
            let idx = observed.index(pos);
            // e = t − [[A…]](idx); the model evaluation completes the
            // partial Hadamard product with the skipped mode's row.
            hadamard_rows_skip_into(model.factors(), mode, idx, &mut self.scratch.had)?;
            let pred = dot(&self.scratch.had, model.factors()[mode].row(idx[mode]));
            let e = observed.value(pos) - pred;
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

impl<C: Fn(usize) -> f64> StepBackend for SketchedBackend<C> {
    type Residual = Vec<f64>;

    fn refresh_gram(&mut self, factor: &Mat, mode: usize, out: &mut Mat) -> Result<()> {
        // Grams are O(Iₙ·R²), independent of nnz — always exact.
        self.host.refresh_gram(factor, mode, out)
    }

    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut Vec<f64>,
        refresh: bool,
        bank: &mut [Mat],
    ) -> Result<f64> {
        let opens = self.sweeps;
        self.sweeps += 1;
        if bank.is_empty() || opens >= self.sketch_iters {
            return self.host.fused_step(observed, model, residual, refresh, bank);
        }
        // One S-draw pass per mode, in mode order: each banks its mode's
        // MTTKRP estimate, and mode 0's draws estimate ‖E‖²_F. The passes
        // neither read nor write the residual values (they re-evaluate
        // the model at their draws), so as an entry sweep this is the
        // same sweep.
        let mut frob = 0.0;
        for (mode, h) in bank.iter_mut().enumerate() {
            let estimate = self.sample_into(observed, model, mode, h)?;
            if mode == 0 {
                frob = estimate;
            }
        }
        Ok(frob)
    }

    fn clock(&self, iter: usize) -> f64 {
        self.host.clock(iter)
    }
}
