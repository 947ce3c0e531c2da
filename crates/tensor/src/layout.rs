//! Storage layouts of a residual and their entry sweeps: [`TensorLayout`].
//!
//! A residual tensor `E = Ω∗(T − [[A…]])` is traversed by three kernels
//! every iteration — per-mode MTTKRP, the fused refresh+MTTKRP sweep, and
//! the residual value refresh. A [`TensorLayout`] wraps the residual
//! entries and exposes those kernels per layout.
//!
//! The solver builds none: its residual is the plain entry list, swept by
//! [`crate::fused::cut_sweep_into`]. These are kernel-layer structures
//! that only the benchmark's per-layer probes and this module's tests
//! build:
//!
//! * [`LayoutKind::Coo`] — the flat entry list: walked in entry order by
//!   [`crate::fused`]'s entry body on one thread, and in parts — the
//!   entry list cut at Algorithm 2's row boundaries, each part in entry
//!   order — by executors that run parts concurrently. The bit-exactness
//!   baseline.
//! * [`LayoutKind::Csf`] — SPLATT's compressed sparse fibers
//!   ([`crate::csf`]). Factorizes shared index prefixes, so its
//!   accumulation *association* differs: results match COO to rounding,
//!   not bit-for-bit.
//! * [`LayoutKind::Tiled`] — a cache-blocked entry order. Per mode,
//!   entry positions are stably counting-sorted into tiles of
//!   [`TILE_ROWS`] consecutive output rows (the per-tile `H` rows stay
//!   L1-resident), and a part is a run of whole tiles. **Bit-identical to
//!   COO at every thread count** — see below.
//!
//! COO under threads and tiled run the same sweeps over the same part
//! structure ([`MttkrpWorkspace`]); they differ only in how
//! [`TensorLayout::workspace`] cuts and orders the positions.
//!
//! # Why the tiled order is bit-exact
//!
//! A mode-`n` tile contains *whole* output rows (`tile = row /
//! TILE_ROWS`), and the counting sort is stable, so within a tile — and
//! hence within a row — entries keep their original order. Every `H` row
//! therefore sums its contributions in exactly the sequential COO order,
//! for any tile size and any partitioning of tiles across threads; that a
//! source which keeps per-row entry order gives the sequential bits is
//! the entry body's guarantee, stated once in [`crate::fused`]. This
//! module's tests pin COO↔tiled bit-identity of every kernel at
//! `Sequential` and under threads, on fixed and on random tensors.
//!
//! The same invariant — per-row order *is* entry order — is why COO on
//! one thread walks the flat entry list through [`crate::fused`]'s
//! entry-order kernel instead of building parts.

use crate::coo::CooTensor;
use crate::csf::CsfTensor;
use crate::fused::{fused_mttkrp_refresh_into, fuses_entry_order};
use crate::kruskal::KruskalTensor;
use crate::mttkrp::{mttkrp_blocked_into, MttkrpWorkspace};
use crate::residual::{residual_refresh_exec, ResidualWorkspace};
use crate::{Result, TensorError};
use distenc_dataflow::Executor;
use distenc_linalg::Mat;
use std::sync::Arc;

/// Output rows per tile. 16 rows × rank 16 × 8 bytes = 2 KiB per slab
/// tile — comfortably L1-resident. The value is a pure performance knob:
/// the stable tile sort preserves per-row entry order for *any* tile
/// size, so changing it never changes a bit (see the module docs).
const TILE_ROWS: usize = 16;

/// The storage layouts a [`TensorLayout`] can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Flat COO entry list (the bit-exactness baseline).
    Coo,
    /// Compressed sparse fibers (matches COO to rounding, not bits).
    Csf,
    /// Cache-blocked tile order with widened kernels (bit-identical to
    /// COO).
    Tiled,
}

/// One mode's tiled entry order: entry positions stably sorted by output
/// tile (`row / TILE_ROWS`), and the per-tile ranges of that order.
///
/// The structure depends only on the observed *support*, never on the
/// values.
#[derive(Debug, Clone)]
pub(crate) struct TiledMode {
    /// Tile `t` owns tile-order positions `tile_ptr[t]..tile_ptr[t+1]`
    /// (and output rows `t*TILE_ROWS..min((t+1)*TILE_ROWS, dim)`).
    tile_ptr: Vec<usize>,
    /// Tile-order position → original entry position; one per entry of
    /// the support it was built for. Shared with the workspaces cut from
    /// it.
    perm: Arc<[usize]>,
}

impl TiledMode {
    /// Lay out `e`'s entries in mode-`mode` tile order. A forward-scan
    /// counting sort — stable, so per-row entry order is preserved (the
    /// bit-exactness invariant).
    fn build(e: &CooTensor, mode: usize) -> Self {
        let nnz = e.nnz();
        let n_tiles = e.shape()[mode].div_ceil(TILE_ROWS);
        let mut counts = vec![0usize; n_tiles];
        for pos in 0..nnz {
            counts[e.index(pos)[mode] / TILE_ROWS] += 1;
        }
        let mut tile_ptr = Vec::with_capacity(n_tiles + 1);
        let mut acc = 0usize;
        tile_ptr.push(0);
        for &c in &counts {
            acc += c;
            tile_ptr.push(acc);
        }
        let mut cursor = tile_ptr.clone();
        let mut perm = vec![0usize; nnz];
        for pos in 0..nnz {
            let t = e.index(pos)[mode] / TILE_ROWS;
            perm[cursor[t]] = pos;
            cursor[t] += 1;
        }
        TiledMode { tile_ptr, perm: perm.into() }
    }

    /// The tile order cut into at most `max_parts` runs of whole tiles,
    /// as a mode-`mode` workspace over a dimension of `dim` rows.
    fn workspace(&self, mode: usize, dim: usize, rank: usize, max_parts: usize) -> MttkrpWorkspace {
        let cut = partition_tiles(&self.tile_ptr, max_parts)
            .into_iter()
            .map(|(_, t1)| (self.tile_ptr[t1], (t1 * TILE_ROWS).min(dim)))
            .collect();
        MttkrpWorkspace::from_parts(mode, rank, self.perm.clone(), cut)
    }
}

/// The residual tensor in one storage layout — the one dispatch point
/// for storage-dependent kernels. Owns the entry list (values in
/// original entry order, shared with the observed support) plus the
/// layout's acceleration structure.
#[derive(Debug, Clone)]
pub struct TensorLayout {
    kind: LayoutKind,
    e: CooTensor,
    csf: Vec<CsfTensor>,
    tiled: Vec<TiledMode>,
}

impl TensorLayout {
    /// Wrap `e` in layout `kind`, building the acceleration structure.
    pub fn build(e: CooTensor, kind: LayoutKind) -> Result<Self> {
        let n_modes = e.order();
        let csf = match kind {
            LayoutKind::Csf => {
                (0..n_modes).map(|n| CsfTensor::for_mode(&e, n)).collect::<Result<_>>()?
            }
            _ => Vec::new(),
        };
        let tiled = match kind {
            LayoutKind::Tiled => (0..n_modes).map(|n| TiledMode::build(&e, n)).collect(),
            _ => Vec::new(),
        };
        Ok(TensorLayout { kind, e, csf, tiled })
    }

    /// Build the per-mode sweep workspace this layout's kernels need
    /// under `exec`: per mode, the parts COO and tiled sweep concurrently
    /// ([`MttkrpWorkspace`]); nothing for CSF (its trees *are* the
    /// workspace).
    ///
    /// Tiled cuts each mode's tile order into at most
    /// [`Executor::parallelism`] runs of whole tiles and does not read
    /// `boundaries`. COO gets parts only where something reads them. Where
    /// its sweeps run in entry order ([`Self::sweeps_entry_order`]: one
    /// thread) there are none — a part list is a per-mode copy of the
    /// entry order, `nnz` positions each. With threads, part `p` of mode
    /// `n` owns the rows below the Algorithm-2 cut `boundaries[n][p]`;
    /// `boundaries` is not read otherwise (one thread has nothing to
    /// balance, so the orders outside the entry-order kernel get one part
    /// per mode).
    pub fn workspace(
        &self,
        rank: usize,
        boundaries: &[Vec<usize>],
        exec: &Executor,
    ) -> Result<LayoutWorkspace> {
        let n_modes = self.e.order();
        let shape = self.e.shape();
        let modes = match self.kind {
            LayoutKind::Csf => Vec::new(),
            LayoutKind::Coo if self.sweeps_entry_order(exec) => Vec::new(),
            LayoutKind::Coo => {
                let threaded = exec.parallelism() > 1;
                if threaded && boundaries.len() != n_modes {
                    return Err(TensorError::ShapeMismatch(format!(
                        "{} boundary lists for an order-{n_modes} tensor",
                        boundaries.len()
                    )));
                }
                (0..n_modes)
                    .map(|n| {
                        let whole = [shape[n]];
                        let cuts = if threaded { &boundaries[n][..] } else { &whole[..] };
                        MttkrpWorkspace::new(&self.e, n, cuts, rank)
                    })
                    .collect::<Result<_>>()?
            }
            LayoutKind::Tiled => (self.tiled.iter().zip(shape).enumerate())
                .map(|(n, (tm, &dim))| tm.workspace(n, dim, rank, exec.parallelism()))
                .collect(),
        };
        Ok(LayoutWorkspace { modes })
    }

    /// Whether this layout's fused sweeps run the sequential entry-order
    /// kernel of [`crate::fused`] under `exec`: one thread, entries kept
    /// in a flat list whose per-row order is entry order (COO, and tiled
    /// — its stable tile sort preserves exactly that), and an order the
    /// kernel's stack row cache holds.
    fn sweeps_entry_order(&self, exec: &Executor) -> bool {
        self.kind != LayoutKind::Csf
            && exec.parallelism() <= 1
            && fuses_entry_order(self.e.order())
    }

    /// Mode-`mode` MTTKRP of the residual against `factors`, written
    /// into `h`. One entry sweep; allocation-free in steady state. On one
    /// thread COO walks the entries in order through the body every sweep
    /// runs ([`crate::fused::mttkrp_modes_into`]); with threads it takes
    /// `lw`'s parts, as tiled always does — bit-identical to that walk for
    /// any cut.
    pub fn mttkrp_into(
        &self,
        factors: &[Mat],
        mode: usize,
        lw: &mut LayoutWorkspace,
        exec: &Executor,
        h: &mut Mat,
    ) -> Result<()> {
        match self.kind {
            LayoutKind::Coo if self.sweeps_entry_order(exec) => {
                crate::fused::mttkrp_modes_into(&self.e, factors, mode, std::slice::from_mut(h))
            }
            LayoutKind::Coo | LayoutKind::Tiled => {
                mttkrp_blocked_into(&self.e, factors, lw.parts(mode)?, exec, h)
            }
            LayoutKind::Csf => self.csf[mode].mttkrp_root_into(factors, h),
        }
    }

    /// Refresh the residual values to `Ω∗(T − [[model…]])` (no MTTKRP),
    /// keeping any value-carrying acceleration structure in sync.
    pub fn refresh_values(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        ws: &mut ResidualWorkspace,
        exec: &Executor,
    ) -> Result<()> {
        residual_refresh_exec(observed, model, &mut self.e, ws, exec)?;
        for c in self.csf.iter_mut() {
            c.set_values(&self.e)?;
        }
        Ok(())
    }

    /// Fused residual refresh + mode-0 MTTKRP: refreshes the residual
    /// values in place, overwrites `h` with `E₍₀₎U⁽⁰⁾` against the fresh
    /// values, and returns `‖E‖²_F` — one entry sweep total, bit-wise
    /// the numbers of [`Self::refresh_values`] + [`Self::mttkrp_into`]
    /// for COO/tiled (CSF to rounding).
    pub fn fused_refresh_into(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        lw: &mut LayoutWorkspace,
        exec: &Executor,
        h: &mut Mat,
    ) -> Result<f64> {
        match self.kind {
            LayoutKind::Coo if self.sweeps_entry_order(exec) => {
                crate::fused::fused_refresh_modes_into(
                    observed,
                    model,
                    &mut self.e,
                    std::slice::from_mut(h),
                )
            }
            LayoutKind::Coo | LayoutKind::Tiled => {
                fused_mttkrp_refresh_into(observed, model, lw.parts(0)?, exec, &mut self.e, h)
            }
            LayoutKind::Csf => {
                let (first, rest) = self.csf.split_at_mut(1);
                let frob =
                    first[0].fused_mttkrp_refresh_root_into(observed, model, &mut self.e, h)?;
                for c in rest {
                    c.set_values(&self.e)?;
                }
                Ok(frob)
            }
        }
    }
}

/// Per-solve sweep state for a [`TensorLayout`]'s kernels: one
/// [`MttkrpWorkspace`] per mode for tiled and for COO under a threaded
/// executor, none for CSF and for COO on one thread (where it sweeps in
/// entry order). Steady-state kernel calls allocate nothing (the fused
/// value carriers are sized on first use, amortized).
pub struct LayoutWorkspace {
    modes: Vec<MttkrpWorkspace>,
}

impl LayoutWorkspace {
    /// Mode `mode`'s parts. A workspace built by a layout or for an
    /// executor that sweeps without parts has none; handing it to a sweep
    /// that needs them is a typed error (as is, inside the sweep, one of
    /// another rank or entry count).
    fn parts(&mut self, mode: usize) -> Result<&mut MttkrpWorkspace> {
        let held = self.modes.len();
        self.modes.get_mut(mode).ok_or_else(|| {
            TensorError::ShapeMismatch(format!(
                "layout workspace holds parts for {held} modes, none for mode {mode}: it was \
                 built for another tensor, or for a layout or executor that sweeps without parts"
            ))
        })
    }
}

/// Split `0..n_tiles` into at most `max_parts` contiguous,
/// entries-balanced ranges (cuts at the tile boundaries nearest the
/// uniform cumulative-entry targets). The partitioning — like the COO
/// boundaries — is bit-invisible: per-row accumulation order does not
/// depend on it.
fn partition_tiles(tile_ptr: &[usize], max_parts: usize) -> Vec<(usize, usize)> {
    let n_tiles = tile_ptr.len() - 1;
    let nnz = *tile_ptr.last().unwrap_or(&0);
    let parts = max_parts.max(1).min(n_tiles.max(1));
    if parts <= 1 || n_tiles <= 1 {
        return vec![(0, n_tiles)];
    }
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0usize);
    for p in 1..parts {
        let target = p * nnz / parts;
        let t = tile_ptr
            .partition_point(|&c| c < target)
            .max(cuts[p - 1] + 1)
            .min(n_tiles - (parts - p));
        cuts.push(t);
    }
    cuts.push(n_tiles);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttkrp::mttkrp;
    use crate::residual::residual;
    use distenc_dataflow::{ExecMode, Executor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
        }
        t.sort_dedup();
        t
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn partition_tiles_covers_and_bounds() {
        let tile_ptr = vec![0usize, 4, 4, 9, 11, 20, 21, 30];
        for max_parts in 1..10 {
            let parts = partition_tiles(&tile_ptr, max_parts);
            assert!(parts.len() <= max_parts.max(1));
            assert_eq!(parts.first().unwrap().0, 0);
            assert_eq!(parts.last().unwrap().1, 7);
            for w in parts.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            for &(a, b) in &parts {
                assert!(a < b);
            }
        }
    }

    /// A tensor whose mode-0 tile `t` holds exactly `counts[t]` entries,
    /// spread over the tile's rows.
    fn tiles_holding(counts: &[usize]) -> CooTensor {
        let mut t = CooTensor::new(vec![counts.len() * TILE_ROWS, 7, 5]);
        for (tile, &n) in counts.iter().enumerate() {
            for c in 0..n {
                let row = tile * TILE_ROWS + (5 * c + tile) % TILE_ROWS;
                t.push(&[row, (c + tile) % 7, c / 7], 0.25 * (c + 2 * tile) as f64 - 1.0).unwrap();
            }
        }
        t.sort_dedup();
        t
    }

    /// The tiled workspace with every tile a part of its own (a host's
    /// parallelism caps what [`TensorLayout::workspace`] cuts).
    fn tile_per_part(layout: &TensorLayout, rank: usize) -> LayoutWorkspace {
        let modes = (layout.tiled.iter().zip(layout.e.shape()).enumerate())
            .map(|(n, (tm, &dim))| tm.workspace(n, dim, rank, usize::MAX))
            .collect();
        LayoutWorkspace { modes }
    }

    /// The inputs of the two tiled bit-identity tests: random tensors of
    /// order 3 and 4, and one whose mode-0 tiles — parts, under
    /// [`tile_per_part`] — hold
    /// 0, 1, 3, 4, 5 and 7 entries (an empty sweep, and a short tail block
    /// alone, after one full block, and padded from every remainder).
    fn tiled_inputs() -> [CooTensor; 3] {
        let tile_counts = [0usize, 1, 3, 4, 5, 7];
        let by_tile = tiles_holding(&tile_counts);
        let layout = TensorLayout::build(by_tile.clone(), LayoutKind::Tiled).unwrap();
        let lw = tile_per_part(&layout, 1);
        let sizes: Vec<usize> = lw.modes[0].parts.iter().map(|p| p.entries.len()).collect();
        assert_eq!(sizes, tile_counts);
        [random_coo(&[45, 23, 17], 400, 4), random_coo(&[19, 6, 5, 4], 240, 6), by_tile]
    }

    const TILED_RANKS: [usize; 6] = [1, 3, 8, 16, 17, 20];

    #[test]
    fn tiled_mttkrp_is_bit_identical_to_sequential() {
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Threads(4));
        for x in tiled_inputs() {
            for &rank in &TILED_RANKS {
                let k = KruskalTensor::random(x.shape(), rank, 5 + rank as u64);
                let layout = TensorLayout::build(x.clone(), LayoutKind::Tiled).unwrap();
                for exec in [&seq, &par] {
                    let cut_for_exec = layout.workspace(rank, &[], exec).unwrap();
                    for mut lw in [cut_for_exec, tile_per_part(&layout, rank)] {
                        for (mode, &dim) in x.shape().iter().enumerate() {
                            let want = mttkrp(&x, k.factors(), mode).unwrap();
                            let mut h = Mat::random(dim, rank, 9); // dirty on purpose
                            // Twice through one workspace: reuse must be clean.
                            for _ in 0..2 {
                                layout
                                    .mttkrp_into(k.factors(), mode, &mut lw, exec, &mut h)
                                    .unwrap();
                                let label = format!("rank {rank} mode {mode}");
                                assert_eq!(bits(h.as_slice()), bits(want.as_slice()), "{label}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_fused_is_bit_identical_to_unfused_sequence() {
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Threads(4));
        for x in tiled_inputs() {
            for &rank in &TILED_RANKS {
                let model = KruskalTensor::random(x.shape(), rank, 11 + rank as u64);
                let we = residual(&x, &model).unwrap();
                let wh = mttkrp(&we, model.factors(), 0).unwrap();
                let wf = we.frob_norm_sq();
                for exec in [&seq, &par] {
                    for per_tile in [false, true] {
                        let mut layout = TensorLayout::build(x.clone(), LayoutKind::Tiled).unwrap();
                        let mut lw = if per_tile {
                            tile_per_part(&layout, rank)
                        } else {
                            layout.workspace(rank, &[], exec).unwrap()
                        };
                        let mut h = Mat::random(x.shape()[0], rank, 13); // dirty on purpose
                        for _ in 0..2 {
                            let f = layout
                                .fused_refresh_into(&x, &model, &mut lw, exec, &mut h)
                                .unwrap();
                            assert_eq!(bits(layout.e.values()), bits(we.values()), "rank {rank}");
                            assert_eq!(bits(h.as_slice()), bits(wh.as_slice()), "rank {rank}");
                            assert_eq!(f.to_bits(), wf.to_bits(), "rank {rank}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coo_keeps_buckets_only_for_executors_that_read_them() {
        let shape = [14, 11, 9];
        let x = random_coo(&shape, 200, 3);
        let k = KruskalTensor::random(&shape, 3, 21);
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Threads(3));
        let coo = TensorLayout::build(x.clone(), LayoutKind::Coo).unwrap();
        // One thread: no parts, whatever boundaries are offered, and the
        // sweep needs none.
        let mut lw = coo.workspace(3, &[], &seq).unwrap();
        assert!(lw.modes.is_empty());
        let mut h = Mat::zeros(14, 3);
        coo.mttkrp_into(k.factors(), 0, &mut lw, &seq, &mut h).unwrap();
        assert_eq!(h.as_slice(), mttkrp(&x, k.factors(), 0).unwrap().as_slice());
        if par.parallelism() > 1 {
            // That workspace under a pool: a typed error, not an index
            // panic — from the plain and from the fused sweep.
            assert!(matches!(
                coo.mttkrp_into(k.factors(), 0, &mut lw, &par, &mut h),
                Err(TensorError::ShapeMismatch(_))
            ));
            let mut e = TensorLayout::build(x.clone(), LayoutKind::Coo).unwrap();
            assert!(e.fused_refresh_into(&x, &k, &mut lw, &par, &mut h).is_err());
            // A pool needs one boundary list per mode.
            assert!(matches!(coo.workspace(3, &[], &par), Err(TensorError::ShapeMismatch(_))));
            let cuts: Vec<Vec<usize>> = shape.iter().map(|&d| vec![d / 2, d]).collect();
            assert_eq!(coo.workspace(3, &cuts, &par).unwrap().modes.len(), 3);
        }
        // Outside the entry-order kernel's orders one thread still sweeps
        // parts: one per mode, the boundaries unread.
        let line = TensorLayout::build(random_coo(&[9], 6, 1), LayoutKind::Coo).unwrap();
        let lw = line.workspace(2, &[], &seq).unwrap();
        assert_eq!(lw.modes.len(), 1);
        assert_eq!(lw.modes[0].parts.len(), 1);
    }

    #[test]
    fn a_workspace_of_another_shape_is_a_typed_error_on_every_layout() {
        let shape = [40, 11, 9];
        let x = random_coo(&shape, 200, 3);
        let k = KruskalTensor::random(&shape, 3, 21);
        let seq = Executor::new(ExecMode::Sequential);
        let cuts: Vec<Vec<usize>> = shape.iter().map(|&d| vec![d / 2, d]).collect();
        let build = |t: &CooTensor, kind| TensorLayout::build(t.clone(), kind).unwrap();
        let tiled = build(&x, LayoutKind::Tiled);
        let smaller = random_coo(&shape, 100, 4);
        let flat = random_coo(&[40, 11], 50, 5);
        // Workspaces a tiled sweep cannot use: the part-less ones COO (on
        // one thread) and CSF build, and ones cut for another rank,
        // another entry count, another order.
        let wrong = [
            build(&x, LayoutKind::Coo).workspace(3, &cuts, &seq).unwrap(),
            build(&x, LayoutKind::Csf).workspace(3, &cuts, &seq).unwrap(),
            tiled.workspace(4, &cuts, &seq).unwrap(),
            build(&smaller, LayoutKind::Tiled).workspace(3, &cuts, &seq).unwrap(),
            build(&flat, LayoutKind::Tiled).workspace(3, &cuts, &seq).unwrap(),
        ];
        for mut lw in wrong {
            let mut h = Mat::zeros(9, 3);
            assert!(matches!(
                tiled.mttkrp_into(k.factors(), 2, &mut lw, &seq, &mut h),
                Err(TensorError::ShapeMismatch(_))
            ));
            let mut e = tiled.clone();
            let mut h = Mat::zeros(40, 3);
            let swept = e.fused_refresh_into(&x, &k, &mut lw, &seq, &mut h);
            // (The order-2 workspace does hold a mode 0 — of 50 entries.)
            assert!(matches!(swept, Err(TensorError::ShapeMismatch(_))));
            assert_eq!(e.e.values(), x.values(), "a rejected sweep must not touch the residual");
        }
    }

    #[test]
    fn coo_and_csf_layouts_delegate_to_their_kernels() {
        let rank = 3;
        let exec = Executor::new(ExecMode::Sequential);
        for x in [random_coo(&[14, 11, 9], 200, 3), random_coo(&[7, 6, 5, 4], 240, 5)] {
            let k = KruskalTensor::random(x.shape(), rank, 21);
            let boundaries: Vec<Vec<usize>> = x.shape().iter().map(|&d| vec![d]).collect();
            // COO layout == the sequential kernel, bitwise.
            let coo = TensorLayout::build(x.clone(), LayoutKind::Coo).unwrap();
            let mut lw = coo.workspace(rank, &boundaries, &exec).unwrap();
            for (mode, &dim) in x.shape().iter().enumerate() {
                let want = mttkrp(&x, k.factors(), mode).unwrap();
                let mut h = Mat::zeros(dim, rank);
                coo.mttkrp_into(k.factors(), mode, &mut lw, &exec, &mut h).unwrap();
                assert_eq!(h.as_slice(), want.as_slice());
            }
            // CSF layout == the fiber kernel: an exact reorganization, so
            // only floating-point association differs.
            let csf = TensorLayout::build(x.clone(), LayoutKind::Csf).unwrap();
            let mut lw = csf.workspace(rank, &boundaries, &exec).unwrap();
            for (mode, &dim) in x.shape().iter().enumerate() {
                let want = mttkrp(&x, k.factors(), mode).unwrap();
                let mut h = Mat::zeros(dim, rank);
                csf.mttkrp_into(k.factors(), mode, &mut lw, &exec, &mut h).unwrap();
                for (a, b) in h.as_slice().iter().zip(want.as_slice()) {
                    assert!((a - b).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn refresh_values_keeps_csf_in_sync() {
        let shape = [12, 9, 7];
        let x = random_coo(&shape, 150, 12);
        let model = KruskalTensor::random(&shape, 4, 3);
        let exec = Executor::new(ExecMode::Sequential);
        let mut ws = ResidualWorkspace::new(x.nnz(), &exec);
        let mut layout = TensorLayout::build(x.clone(), LayoutKind::Csf).unwrap();
        layout.refresh_values(&x, &model, &mut ws, &exec).unwrap();
        let want = residual(&x, &model).unwrap();
        assert_eq!(layout.e, want);
        // The CSF trees saw the fresh values: their MTTKRP must match an
        // MTTKRP of the fresh residual.
        let mut lw = layout.workspace(4, &[], &exec).unwrap();
        let mut h = Mat::zeros(12, 4);
        layout.mttkrp_into(model.factors(), 0, &mut lw, &exec, &mut h).unwrap();
        let oracle = mttkrp(&want, model.factors(), 0).unwrap();
        for (a, b) in h.as_slice().iter().zip(oracle.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    /// Everything one layout's kernels write for `model` under `exec`:
    /// each mode's `mttkrp_into` output, then the fused sweep's values,
    /// mode-0 output and `‖E‖²_F`, then the values `refresh_values` leaves.
    fn kernel_outputs(
        x: &CooTensor,
        model: &KruskalTensor,
        kind: LayoutKind,
        exec: &Executor,
    ) -> Vec<Vec<f64>> {
        let rank = model.rank();
        let cuts: Vec<Vec<usize>> = x.shape().iter().map(|&d| vec![d / 2, d]).collect();
        let mut layout = TensorLayout::build(x.clone(), kind).unwrap();
        let mut lw = layout.workspace(rank, &cuts, exec).unwrap();
        let mut out = Vec::new();
        for (mode, &dim) in x.shape().iter().enumerate() {
            let mut h = Mat::random(dim, rank, 9); // dirty on purpose
            layout.mttkrp_into(model.factors(), mode, &mut lw, exec, &mut h).unwrap();
            out.push(h.as_slice().to_vec());
        }
        let mut h = Mat::random(x.shape()[0], rank, 13);
        let frob = layout.fused_refresh_into(x, model, &mut lw, exec, &mut h).unwrap();
        out.extend([layout.e.values().to_vec(), h.as_slice().to_vec(), vec![frob]]);
        let mut fresh = TensorLayout::build(x.clone(), kind).unwrap();
        let mut ws = ResidualWorkspace::new(x.nnz(), exec);
        fresh.refresh_values(x, model, &mut ws, exec).unwrap();
        out.push(fresh.e.values().to_vec());
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// What whole solves on each layout used to show, at the kernels:
        /// on any tensor, every sweep under `Tiled` is `to_bits`-equal to
        /// `Coo` on one thread and on two, and under `Csf` equal to
        /// rounding (its fiber walks reassociate the folds).
        #[test]
        fn tiled_kernels_are_bitwise_coo_and_csf_within_rounding_on_random_tensors(
            seed in 0u64..1000,
            rank in 1usize..6,
        ) {
            let shape = [9, 8, 7];
            let x = random_coo(&shape, 220, seed.wrapping_mul(13).wrapping_add(3));
            let model = KruskalTensor::random(&shape, rank, seed);
            for mode in [ExecMode::Sequential, ExecMode::Threads(2)] {
                let exec = Executor::new(mode);
                let coo = kernel_outputs(&x, &model, LayoutKind::Coo, &exec);
                let tiled = kernel_outputs(&x, &model, LayoutKind::Tiled, &exec);
                let csf = kernel_outputs(&x, &model, LayoutKind::Csf, &exec);
                for (k, ((c, t), f)) in coo.iter().zip(&tiled).zip(&csf).enumerate() {
                    prop_assert_eq!(bits(c), bits(t), "{:?} output {}", mode, k);
                    let scale = c.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                    for (a, b) in c.iter().zip(f) {
                        prop_assert!((a - b).abs() <= 1e-9 * scale, "{:?} output {}", mode, k);
                    }
                }
            }
        }
    }
}
