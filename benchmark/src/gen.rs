//! Inputs, made from the seed and nothing else: the observed tensor and
//! its planted truth, held-out cells, delta batches and the request
//! schedule. The program under test only ever sees these.

use crate::workloads::{
    Mix, TensorKind, Workload, HELDOUT_CELLS, OVERLOAD_RANK, OVERLOAD_SHAPE, SERVE_BATCH,
    SERVE_TOPK,
};
use distenc_datagen::synthetic;
use distenc_graph::builders::tridiagonal_chain;
use distenc_graph::{Laplacian, SparseSym};
use distenc_serve::workload::{open_loop_trace, OpenLoopConfig, TimedRequest, TraceConfig};
use distenc_tensor::{CooTensor, KruskalTensor};

/// SplitMix64: the harness's own generator for everything the program's
/// generators do not cover.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

// Sub-stream tags, so no two inputs share a random stream.
const TRUTH: u64 = 2018;
const MASK: u64 = 0x6d61_736b;
const HELDOUT: u64 = 0x6865_6c64;
const DELTA: u64 = 0x0064_656c_7461;
const TRAFFIC: u64 = 0x7472_6166;
const SERVED: u64 = 0x7365_7276;

/// The model the traced pass's overload phase serves.
pub fn overload_model(seed: u64) -> KruskalTensor {
    KruskalTensor::random(&OVERLOAD_SHAPE, OVERLOAD_RANK, seed ^ SERVED)
}

/// One draw of a cell index under the workload's sampling law.
fn draw_cell(kind: TensorKind, shape: &[usize], rng: &mut SplitMix, idx: &mut [usize]) {
    for (slot, &d) in idx.iter_mut().zip(shape) {
        let u = rng.unit();
        *slot = match kind {
            TensorKind::Planted | TensorKind::PaperAux => ((d as f64 * u) as usize).min(d - 1),
            TensorKind::PlantedSquareSkew => ((d as f64 * u * u) as usize).min(d - 1),
        };
    }
}

/// The observed tensor with the model that generated it.
pub struct Observed {
    pub tensor: CooTensor,
    pub truth: KruskalTensor,
    pub similarities: Vec<SparseSym>,
}

impl Observed {
    /// One Laplacian per mode, `None` where the workload solves without a
    /// similarity.
    pub fn laplacians(&self) -> Vec<Option<Laplacian>> {
        if self.similarities.is_empty() {
            return vec![None; self.tensor.order()];
        }
        self.similarities
            .iter()
            .map(|s| Some(Laplacian::from_similarity(s.clone())))
            .collect()
    }
}

pub fn observed(w: &Workload, seed: u64) -> Observed {
    // The planted model is part of the workload, like its shape: it comes
    // from a constant, and the seed decides which cells are observed (and
    // which deltas and requests arrive). With the model drawn from the
    // seed too, ten seeds took 12 to 16 iterations to one target on
    // `solve_skew4`, and 14 to 21 on the paper's tensor, whose two
    // constants per rank and mode swing its scale (rms 3.3 to 9.7).
    let truth = match w.kind {
        TensorKind::PaperAux => synthetic::error_tensor(&w.shape, w.rank, 1, TRUTH).truth,
        TensorKind::Planted | TensorKind::PlantedSquareSkew => {
            KruskalTensor::random(&w.shape, w.rank, TRUTH)
        }
    };
    let mut rng = SplitMix(seed ^ MASK);
    let mut mask = CooTensor::new(w.shape.clone());
    mask.reserve(w.draws);
    let mut idx = vec![0usize; w.shape.len()];
    for _ in 0..w.draws {
        draw_cell(w.kind, &w.shape, &mut rng, &mut idx);
        mask.push(&idx, 1.0).expect("index in range");
    }
    mask.sort_dedup();
    let tensor = truth.eval_at(&mask).expect("mask has the truth's shape");
    let similarities = if w.similarities {
        w.shape.iter().map(|&d| tridiagonal_chain(d)).collect()
    } else {
        Vec::new()
    };
    Observed {
        tensor,
        truth,
        similarities,
    }
}

/// Root mean square of the observed values.
pub fn rms(t: &CooTensor) -> f64 {
    (t.frob_norm_sq() / t.nnz().max(1) as f64).sqrt()
}

/// The accuracy target: a pure function of the generated tensor and the
/// workload's literal.
pub fn target_rmse(w: &Workload, t: &CooTensor) -> f64 {
    w.target_rel * rms(t)
}

/// `count` distinct cells that `observed` does not hold, drawn under the
/// workload's own sampling law (so they fall where the model was
/// trained), in a seed-determined order.
fn unobserved_cells(
    w: &Workload,
    observed: &CooTensor,
    count: usize,
    rng: &mut SplitMix,
) -> Vec<Vec<usize>> {
    let mut cells: Vec<Vec<usize>> = Vec::with_capacity(count + count / 4);
    let mut idx = vec![0usize; w.shape.len()];
    // Draw with a margin, drop observed and repeated cells, top up until
    // enough remain (dense heads reject many draws).
    for _round in 0..64 {
        if cells.len() >= count {
            break;
        }
        let want = (count - cells.len()) * 5 / 4 + 16;
        for _ in 0..want {
            draw_cell(w.kind, &w.shape, rng, &mut idx);
            if observed.position_of(&idx).is_none() {
                cells.push(idx.clone());
            }
        }
        cells.sort_unstable();
        cells.dedup();
    }
    assert!(
        cells.len() >= count,
        "{}: could not draw {count} unobserved cells",
        w.name
    );
    // Keep a seed-determined subset, not the lexicographic head.
    for i in 0..count {
        let j = i + rng.below(cells.len() - i);
        cells.swap(i, j);
    }
    cells.truncate(count);
    cells
}

/// Held-out cells with their true values.
pub fn heldout(w: &Workload, o: &Observed, seed: u64) -> Vec<(Vec<usize>, f64)> {
    let mut rng = SplitMix(seed ^ HELDOUT);
    let count = HELDOUT_CELLS.min(o.tensor.nnz() / 4);
    unobserved_cells(w, &o.tensor, count, &mut rng)
        .into_iter()
        .map(|c| {
            let v = o.truth.eval(&c);
            (c, v)
        })
        .collect()
}

/// Model error on the held-out cells, relative to the truth's rms there.
pub fn heldout_rmse(model: &KruskalTensor, cells: &[(Vec<usize>, f64)]) -> f64 {
    let (mut err, mut norm) = (0.0, 0.0);
    for (c, v) in cells {
        let d = model.eval(c) - v;
        err += d * d;
        norm += v * v;
    }
    (err / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// One delta batch: new cells and revised values of observed cells.
pub struct Delta {
    pub inserts: Vec<(Vec<usize>, f64)>,
    pub updates: Vec<(Vec<usize>, f64)>,
}

/// `w.max_batches` batches. Inserts are distinct unobserved cells (no
/// cell twice across batches); updates revise observed cells by up to
/// ±1% of the truth.
pub fn deltas(w: &Workload, o: &Observed, seed: u64) -> Vec<Delta> {
    let mut rng = SplitMix(seed ^ DELTA);
    let pool = unobserved_cells(w, &o.tensor, w.max_batches * w.batch_inserts, &mut rng);
    pool.chunks(w.batch_inserts)
        .map(|chunk| {
            let inserts = chunk.iter().map(|c| (c.clone(), o.truth.eval(c))).collect();
            let mut picked: Vec<usize> = (0..w.batch_updates * 5 / 4 + 4)
                .map(|_| rng.below(o.tensor.nnz()))
                .collect();
            picked.sort_unstable();
            picked.dedup();
            picked.truncate(w.batch_updates);
            let updates = picked
                .into_iter()
                .map(|e| {
                    let c = o.tensor.index(e).to_vec();
                    let v = o.tensor.value(e) * (1.0 + 0.01 * (2.0 * rng.unit() - 1.0));
                    (c, v)
                })
                .collect();
            Delta { inserts, updates }
        })
        .collect()
}

/// An open-loop request schedule over a model of `shape`: Poisson arrivals
/// at `qps` for `seconds`, with the query mix and Zipf skew of `mix`.
pub fn traffic(shape: &[usize], mix: Mix, qps: f64, seconds: f64, seed: u64) -> Vec<TimedRequest> {
    let cfg = OpenLoopConfig {
        qps,
        tenants: 1,
        tenant_zipf: 0.0,
        trace: TraceConfig {
            queries: (qps * seconds).ceil() as usize,
            point_frac: mix.point_frac,
            batch_frac: mix.batch_frac,
            batch_size: SERVE_BATCH,
            k: SERVE_TOPK,
            topk_budget: None,
            zipf_exponent: mix.zipf,
            seed: seed ^ TRAFFIC,
        },
    };
    open_loop_trace(shape, &cfg)
}

/// FNV-1a over the bit patterns of every factor entry: the model's
/// identity for the "same inputs, same bits" checks.
pub fn model_checksum(model: &KruskalTensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in model.factors() {
        for v in f.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn coo_bytes(t: &CooTensor) -> Vec<u8> {
        let mut out = Vec::new();
        distenc_tensor::io::write_coo(t, &mut out).unwrap();
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in workloads::all() {
            let w = w.smoke();
            let a = observed(&w, 11);
            let b = observed(&w, 11);
            let c = observed(&w, 12);
            assert_eq!(coo_bytes(&a.tensor), coo_bytes(&b.tensor), "{}", w.name);
            assert_ne!(coo_bytes(&a.tensor), coo_bytes(&c.tensor), "{}", w.name);
            assert_eq!(
                model_checksum(&a.truth),
                model_checksum(&c.truth),
                "the planted model is seed-free"
            );
            assert_eq!(heldout(&w, &a, 11), heldout(&w, &b, 11));
            assert_ne!(heldout(&w, &a, 11), heldout(&w, &a, 12));
            let (da, db) = (deltas(&w, &a, 11), deltas(&w, &b, 11));
            assert_eq!(da.len(), w.max_batches);
            for (x, y) in da.iter().zip(&db) {
                assert_eq!(x.inserts, y.inserts);
                assert_eq!(x.updates, y.updates);
            }
            let schedule = |seed| traffic(&w.shape, workloads::SERVE_MIX, 2000.0, 0.5, seed);
            assert_eq!(schedule(11), schedule(11));
            assert_ne!(schedule(11), schedule(12));
        }
    }

    #[test]
    fn deltas_are_valid_against_the_observed_tensor() {
        let w = workloads::by_name("solve_skew4").unwrap().smoke();
        let o = observed(&w, 5);
        let mut seen = std::collections::BTreeSet::new();
        for d in deltas(&w, &o, 5) {
            assert_eq!(d.inserts.len(), w.batch_inserts);
            assert!(!d.updates.is_empty() && d.updates.len() <= w.batch_updates);
            for (c, _) in &d.inserts {
                assert!(
                    o.tensor.position_of(c).is_none(),
                    "insert hits an observed cell"
                );
                assert!(seen.insert(c.clone()), "cell inserted twice");
            }
            for (c, _) in &d.updates {
                assert!(
                    o.tensor.position_of(c).is_some(),
                    "update misses the support"
                );
            }
        }
    }

    #[test]
    fn target_is_a_pure_function_of_the_inputs() {
        let w = workloads::by_name("solve_dense").unwrap().smoke();
        let a = observed(&w, 3);
        let b = observed(&w, 3);
        let t = target_rmse(&w, &a.tensor);
        assert_eq!(t.to_bits(), target_rmse(&w, &b.tensor).to_bits());
        assert_eq!(t.to_bits(), (w.target_rel * rms(&a.tensor)).to_bits());
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn heldout_rmse_of_the_truth_is_zero() {
        let w = workloads::by_name("solve_skew4").unwrap().smoke();
        let o = observed(&w, 9);
        let cells = heldout(&w, &o, 9);
        assert!(!cells.is_empty());
        assert_eq!(heldout_rmse(&o.truth, &cells), 0.0);
        for (c, _) in &cells {
            assert!(o.tensor.position_of(c).is_none());
        }
    }
}
