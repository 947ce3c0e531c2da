//! The distributed [`StepBackend`]: block-local kernels plus the stage,
//! shuffle, and broadcast accounting of Algorithm 3 on a simulated
//! [`Cluster`].
//!
//! Numerically this backend runs the same [`super::mode_step`] arithmetic
//! as the host; what it adds is (a) the block/partition decomposition of
//! the three data-dependent kernels and (b) cluster charges at exactly
//! the points the pre-refactor `DisTenC::solve` charged them — the
//! charge *order* is load-bearing, because every charge advances the
//! virtual clock and the golden distenc trace pins the resulting
//! timestamps bit-for-bit.
//!
//! Its residual is the Algorithm 2 block partition (`Vec<ResidualBlock>`),
//! and every charge is a function of the blocking metadata alone
//! ([`BlockMeta`]): what the cluster moves and when does not depend on
//! whether the local arithmetic ran fused, banked, or not at all.
//!
//! The accounting vectors built per stage (`TaskCost` lists, shuffle
//! tallies, per-call reduction slabs) are bookkeeping, not step math, and
//! are the distributed driver's documented exemption from the
//! steady-state allocation budget.

use super::StepBackend;
use crate::Result;
use distenc_dataflow::cluster::TaskCost;
use distenc_dataflow::Cluster;
use distenc_linalg::Mat;
use distenc_partition::ModePartition;
use distenc_tensor::mttkrp::fold_entry;
use distenc_tensor::{CooTensor, KruskalTensor};

const F64: u64 = 8;

/// One tensor block's share of the residual: its entries and the values
/// `e = t − [[A…]](idx)` parallel to them.
pub(crate) struct ResidualBlock {
    /// The observed entries of this block.
    pub entries: CooTensor,
    /// Residual values, parallel to `entries`.
    pub vals: Vec<f64>,
}

/// `‖E‖²_F` summed block-major, each block in entry order — the fixed
/// association of this decomposition.
fn frob_norm_sq(blocks: &[ResidualBlock]) -> f64 {
    blocks.iter().flat_map(|b| b.vals.iter()).map(|v| v * v).sum()
}

/// Total entry count, for the pass-count instrument.
fn total_nnz(blocks: &[ResidualBlock]) -> usize {
    blocks.iter().map(|b| b.entries.nnz()).sum()
}

/// One work group's share of a mode-`mode` MTTKRP: the row slab of
/// `rows`, accumulated over the member blocks in ascending block order,
/// each in entry order. `value(m, pos, idx, t)` supplies the residual
/// value of entry `pos` (index `idx`, observed value `t`) of the `m`-th
/// member — stored, or freshly computed.
fn group_slab(
    model: &KruskalTensor,
    blocks: &[ResidualBlock],
    mode: usize,
    rows: std::ops::Range<usize>,
    members: &[usize],
    mut value: impl FnMut(usize, usize, &[usize], f64) -> f64,
) -> Mat {
    let mut slab = Mat::zeros(rows.len(), model.rank());
    let mut scratch = vec![0.0; model.rank()];
    for (m, &bi) in members.iter().enumerate() {
        for (pos, (idx, t)) in blocks[bi].entries.iter().enumerate() {
            let v = value(m, pos, idx, t);
            let out = slab.row_mut(idx[mode] - rows.start);
            fold_entry(model.factors(), idx, v, mode, &mut scratch, out);
        }
    }
    slab
}

/// Placement and activity metadata for one tensor block, parallel to the
/// [`ResidualBlock`] list that is this backend's residual.
pub(crate) struct BlockMeta {
    /// Machine this block is pinned to.
    pub machine: usize,
    /// Entries in this block.
    pub nnz: usize,
    /// Per-mode partition coordinates of this block.
    pub coords: Vec<usize>,
    /// Distinct mode-`n` indices appearing in this block (per mode) —
    /// determines which factor rows the block needs and how large its
    /// partial-`H` output is.
    pub active: Vec<Vec<usize>>,
}

/// Cluster backend bound to a simulated cluster and a fixed Algorithm 2
/// blocking.
pub(crate) struct ClusterBackend<'c> {
    cl: &'c Cluster,
    rank: usize,
    n_modes: usize,
    mode_parts: Vec<ModePartition>,
    meta: Vec<BlockMeta>,
    /// Per-mode MTTKRP work groups: blocks sharing a mode-`n` partition
    /// coordinate write the same output row range, so they form one work
    /// unit (fixed at construction — the blocking never changes).
    groups: Vec<Vec<Vec<usize>>>,
    /// Per-mode partial-Gram row ranges (the mode partition's ranges).
    gram_ranges: Vec<Vec<std::ops::Range<usize>>>,
    /// `truncated[n].k()` per mode, for the B-update projection charge.
    eigen_k: Vec<usize>,
}

impl<'c> ClusterBackend<'c> {
    /// Bind the backend to `cl` with the given blocking metadata.
    pub fn new(
        cl: &'c Cluster,
        rank: usize,
        mode_parts: Vec<ModePartition>,
        meta: Vec<BlockMeta>,
        eigen_k: Vec<usize>,
    ) -> Self {
        let n_modes = mode_parts.len();
        let groups = (0..n_modes)
            .map(|mode| {
                let mut g: Vec<Vec<usize>> = vec![Vec::new(); mode_parts[mode].parts()];
                for (i, b) in meta.iter().enumerate() {
                    g[b.coords[mode]].push(i);
                }
                g
            })
            .collect();
        let gram_ranges: Vec<Vec<std::ops::Range<usize>>> = mode_parts
            .iter()
            .map(|part| (0..part.parts()).map(|p| part.range(p)).collect())
            .collect();
        ClusterBackend { cl, rank, n_modes, mode_parts, meta, groups, gram_ranges, eigen_k }
    }

    // ---- Accounting helpers ---------------------------------------------

    /// A per-row stage over one mode's partitions (updates touching each
    /// factor row once: Y-updates, combines, …).
    fn charge_rows_stage(
        &self,
        part: &ModePartition,
        flops_per_row: f64,
        out_bytes_per_row: u64,
    ) -> Result<()> {
        let cl = self.cl;
        let tasks: Vec<TaskCost> = (0..part.parts())
            .map(|p| {
                let rows = part.range(p).len();
                TaskCost {
                    machine: cl.machine_for_partition(p),
                    flops: rows as f64 * flops_per_row,
                    input_bytes: rows as u64 * self.rank as u64 * F64,
                    output_bytes: rows as u64 * out_bytes_per_row,
                }
            })
            .collect();
        cl.run_stage(&tasks)?;
        Ok(())
    }

    /// Same, across all modes at once (convergence-delta reduction).
    fn charge_rows_stage_all(&self, flops_per_row: f64, out_bytes_per_row: u64) -> Result<()> {
        for part in &self.mode_parts {
            self.charge_rows_stage(part, flops_per_row, out_bytes_per_row)?;
        }
        Ok(())
    }

    /// Gram computation for every mode: per-partition `rows·R²` flops,
    /// `R×R` partials reduced and broadcast (Eqs. 12–13).
    fn charge_gram_stage(&self) -> Result<()> {
        let cl = self.cl;
        let m = cl.machines();
        let rank = self.rank;
        let r2_bytes = (rank * rank) as u64 * F64;
        for part in &self.mode_parts {
            self.charge_rows_stage(part, (rank * rank) as f64, r2_bytes)?;
            // Reduce partials to machine 0, broadcast the result.
            let mut sent = vec![r2_bytes; m];
            sent[0] = 0;
            let mut received = vec![0u64; m];
            received[0] = r2_bytes * (m as u64 - 1);
            cl.shuffle(&sent, &received)?;
            cl.broadcast_charge(r2_bytes)?;
        }
        Ok(())
    }

    /// Fetch the factor rows each block needs for modes it reads. With
    /// `skip_output = Some(n)`, mode `n`'s rows are not inputs (they are
    /// the stage's *output*), matching MTTKRP; with `None` every mode's
    /// rows are fetched (residual update). Rows whose home machine already
    /// hosts the block are free (§III-F keeps joins co-partitioned for
    /// exactly this reason).
    fn charge_factor_fetch(&self, skip_output: Option<usize>) -> Result<()> {
        let cl = self.cl;
        let m = cl.machines();
        // Dedup: machine × mode × partition fetched at most once per stage.
        let mut needed: std::collections::BTreeSet<(usize, usize, usize)> =
            std::collections::BTreeSet::new();
        for b in &self.meta {
            for (k, &pk) in b.coords.iter().enumerate() {
                if Some(k) == skip_output {
                    continue;
                }
                let home = cl.machine_for_partition(pk);
                if home != b.machine {
                    needed.insert((b.machine, k, pk));
                }
            }
        }
        let mut sent = vec![0u64; m];
        let mut received = vec![0u64; m];
        for &(dst, k, pk) in &needed {
            let rows = self.mode_parts[k].range(pk).len() as u64;
            let bytes = rows * self.rank as u64 * F64;
            sent[cl.machine_for_partition(pk)] += bytes;
            received[dst] += bytes;
        }
        cl.shuffle(&sent, &received)?;
        Ok(())
    }

    /// The residual refresh's per-block stage charge (`nnz·N·R` flops,
    /// entries in, values out) — the same whether or not the sweep also
    /// banks an MTTKRP.
    fn charge_refresh_stage(&self) -> Result<()> {
        let tasks: Vec<TaskCost> = self
            .meta
            .iter()
            .map(|m| TaskCost {
                machine: m.machine,
                flops: (m.nnz * self.n_modes * self.rank) as f64,
                input_bytes: m.nnz as u64 * (self.n_modes as u64 + 1) * F64,
                output_bytes: m.nnz as u64 * F64,
            })
            .collect();
        self.cl.run_stage(&tasks)?;
        Ok(())
    }

    /// Stitch a mode's disjoint row slabs into `out` in fixed partition
    /// order; the ranges cover every output row, so no pre-zeroing is
    /// needed.
    fn stitch<'a>(&self, mode: usize, slabs: impl Iterator<Item = &'a Mat>, out: &mut Mat) {
        let rank = self.rank;
        for (p, slab) in slabs.enumerate() {
            let rows = self.mode_parts[mode].range(p);
            out.as_mut_slice()[rows.start * rank..rows.end * rank]
                .copy_from_slice(slab.as_slice());
        }
    }
}

impl StepBackend for ClusterBackend<'_> {
    type Residual = Vec<ResidualBlock>;

    /// MTTKRP of the residual against the current factors, computed
    /// block-by-block and reduced into a full `Iₙ×R` matrix (partials
    /// combine at each factor partition's home).
    ///
    /// Algorithm 2's block boundaries double as the parallel work
    /// decomposition: blocks sharing a mode-`mode` partition coordinate
    /// write the same output row range, so they form one work unit
    /// (processed in ascending block order — the same order the old
    /// sequential loop used), while distinct coordinates own disjoint row
    /// ranges and run concurrently with no atomics. Bit-identical to a
    /// single sequential sweep for every `ExecMode`.
    fn sparse_mttkrp(
        &mut self,
        blocks: &Vec<ResidualBlock>,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()> {
        crate::record_entry_sweep(total_nnz(blocks));
        let part = &self.mode_parts[mode];
        let slabs = self.cl.executor().run(&self.groups[mode], |p, members| {
            group_slab(model, blocks, mode, part.range(p), members, |m, pos, _, _| {
                blocks[members[m]].vals[pos]
            })
        });
        self.stitch(mode, slabs.iter(), out);
        Ok(())
    }

    /// What the cluster pays for a mode's MTTKRP, banked or not (the bank
    /// is a local-compute shortcut, not a communication one — which keeps
    /// the virtual clock identical to the unfused schedule): the remote
    /// factor rows of every mode except `mode`'s own output, the per-block
    /// stage, the partial-`H` rows travelling to the factor partition's
    /// home, and the combine stage there.
    fn on_sparse_mttkrp(&mut self, mode: usize) -> Result<()> {
        let cl = self.cl;
        let rank = self.rank;
        self.charge_factor_fetch(Some(mode))?;
        let mut tasks = Vec::with_capacity(self.meta.len());
        let mut sent = vec![0u64; cl.machines()];
        let mut received = vec![0u64; cl.machines()];
        for m in &self.meta {
            let out_rows = m.active[mode].len() as u64;
            tasks.push(TaskCost {
                machine: m.machine,
                flops: (m.nnz * self.n_modes * rank) as f64,
                input_bytes: m.nnz as u64 * (self.n_modes as u64 + 2) * F64,
                output_bytes: out_rows * rank as u64 * F64,
            });
            let dst = cl.machine_for_partition(m.coords[mode]);
            if dst != m.machine {
                let bytes = out_rows * rank as u64 * F64;
                sent[m.machine] += bytes;
                received[dst] += bytes;
            }
        }
        cl.run_stage(&tasks)?;
        cl.shuffle(&sent, &received)?;
        self.charge_rows_stage(&self.mode_parts[mode], rank as f64, 0)
    }

    /// `A⁽ⁿ⁾ᵀA⁽ⁿ⁾` as the paper computes it (Eq. 13): each mode
    /// partition contributes the partial Gram of its factor rows, and the
    /// `R×R` partials reduce on the driver.
    ///
    /// The partial boundaries come from the *mode partition* — a function
    /// of the data, never of the thread count — and the partials are
    /// summed in ascending partition order under **every** `ExecMode`, so
    /// the floating-point association is fixed and `Sequential` and
    /// `Threads(n)` produce identical bits. (This association differs
    /// from a single unblocked row sweep, which is why the serial
    /// `AdmmSolver` oracle agrees to rounding, not to the bit.)
    fn refresh_gram(&mut self, factor: &Mat, mode: usize, out: &mut Mat) -> Result<()> {
        let partials = self
            .cl
            .executor()
            .run(&self.gram_ranges[mode], |_, r| factor.gram_range(r.clone()));
        out.fill(0.0);
        for partial in &partials {
            out.axpy(1.0, partial).expect("partial grams share the R×R shape");
        }
        out.mirror_upper();
        Ok(())
    }

    /// The block-local residual refresh `e = t − [[A…]](idx)`, fused with
    /// the mode-0 MTTKRP when handed the bank (see
    /// [`StepBackend::fused_step`]). The cluster charges are the same
    /// either way — `charge_factor_fetch(None)` (the stage reads every
    /// mode's factor rows at each block), then the per-block refresh
    /// stage — so the virtual clock (and the golden distenc trace) does
    /// not see fusion; its win on the simulated cluster is local flops,
    /// which this model charges per stage, not per arithmetic op.
    fn fused_step(
        &mut self,
        _observed: &CooTensor,
        model: &KruskalTensor,
        blocks: &mut Vec<ResidualBlock>,
        bank: &mut [Mat],
    ) -> Result<(f64, usize)> {
        self.charge_factor_fetch(None)?;
        crate::record_entry_sweep(total_nnz(blocks));
        let banked = match bank.first_mut() {
            None => {
                // Residual entries are independent, so one task per block
                // on the executor is bit-exact regardless of scheduling.
                self.cl.executor().run_mut(blocks, |_, b| {
                    for (pos, (idx, t)) in b.entries.iter().enumerate() {
                        b.vals[pos] = t - model.eval(idx);
                    }
                });
                0
            }
            Some(h0) => {
                // Mode-0 work groups partition the blocks (every block has
                // exactly one mode-0 coordinate), so sweeping group by
                // group visits each entry once. Per entry the arithmetic
                // is the refresh's `t − eval` followed by the MTTKRP's own
                // fold — the same two folds the unfused schedule runs in
                // separate sweeps, in the same order, so values, slabs and
                // `‖E‖²` all match bit-for-bit.
                let (part, groups) = (&self.mode_parts[0], &self.groups[0]);
                let shared: &[ResidualBlock] = blocks;
                let results = self.cl.executor().run(groups, |p, members| {
                    // Fresh residual values per member block (written back
                    // below — the closure cannot alias `blocks` mutably).
                    // Reduction-slab exemption from the allocation budget,
                    // like the slab itself.
                    let mut fresh: Vec<Vec<f64>> = members
                        .iter()
                        .map(|&bi| Vec::with_capacity(shared[bi].entries.nnz()))
                        .collect();
                    let refresh = |m: usize, _, idx: &[usize], t: f64| {
                        let v = t - model.eval(idx);
                        fresh[m].push(v);
                        v
                    };
                    let slab = group_slab(model, shared, 0, part.range(p), members, refresh);
                    (slab, fresh)
                });
                self.stitch(0, results.iter().map(|(slab, _)| slab), h0);
                for (members, (_, fresh)) in groups.iter().zip(results) {
                    for (&bi, vals) in members.iter().zip(fresh) {
                        blocks[bi].vals = vals;
                    }
                }
                1
            }
        };
        self.charge_refresh_stage()?;
        Ok((frob_norm_sq(blocks), banked))
    }

    fn clock(&self, _iter: usize) -> f64 {
        self.cl.now()
    }

    /// Line 8 (Eq. 7): local `ηA−Y`, a `K×R` projection reduced across
    /// machines and broadcast back, then local expansion.
    fn on_b_update(&mut self, mode: usize) -> Result<()> {
        let cl = self.cl;
        let m = cl.machines();
        let rank = self.rank;
        let k = self.eigen_k[mode];
        // Local work: 2·rows·R (rhs) + rows·K·R (projection) + rows·K·R
        // (expansion).
        let per_row = (2 * rank + 2 * k * rank) as f64;
        self.charge_rows_stage(&self.mode_parts[mode], per_row, rank as u64 * F64)?;
        if k > 0 {
            let kr_bytes = (k * rank) as u64 * F64;
            let mut sent = vec![kr_bytes; m];
            sent[0] = 0;
            let mut received = vec![0u64; m];
            received[0] = kr_bytes * (m as u64 - 1);
            cl.shuffle(&sent, &received)?;
            cl.broadcast_charge(kr_bytes)?;
        }
        Ok(())
    }

    /// Line 9: the Hadamard product on the driver is O(N·R²).
    fn on_gram_product(&mut self) -> Result<()> {
        self.cl
            .charge_driver_flops((self.n_modes * self.rank * self.rank) as f64)?;
        Ok(())
    }

    /// Line 11: the `R×R` factorization happens once, replicated (O(R³));
    /// assembling the numerator and applying the inverse is `O(rows·R²)`
    /// per partition.
    fn on_a_update(&mut self, mode: usize) -> Result<()> {
        let rank = self.rank;
        self.cl.charge_driver_flops((rank * rank * rank) as f64)?;
        self.charge_rows_stage(
            &self.mode_parts[mode],
            (2 * rank * rank + 3 * rank) as f64,
            rank as u64 * F64,
        )
    }

    /// Line 12: per-row Y write-back.
    fn on_y_update(&mut self, mode: usize) -> Result<()> {
        self.charge_rows_stage(
            &self.mode_parts[mode],
            self.rank as f64,
            self.rank as u64 * F64,
        )
    }

    fn on_grams_refreshed(&mut self) -> Result<()> {
        self.charge_gram_stage()
    }

    fn on_delta_reduced(&mut self) -> Result<()> {
        self.charge_rows_stage_all(self.rank as f64, 0)
    }
}
