//! The distributed [`StepBackend`]: block-local kernels plus the stage,
//! shuffle, and broadcast accounting of Algorithm 3 on a simulated
//! [`Cluster`].
//!
//! Numerically this backend runs the same [`super::mode_step`] arithmetic
//! as the host; what it adds is (a) the block/partition decomposition of
//! the three data-dependent kernels and (b) cluster charges at the points
//! of the schedule where a cluster would pay them. Every charge advances
//! the virtual clock and the golden distenc trace pins the resulting
//! timestamps bit-for-bit.
//!
//! It holds no residual: the Algorithm 2 blocks' entries are borrowed
//! from the blocking — built once per solve, like the backend and its
//! [`BlockMeta`] — and one block body serves every pass over them
//! ([`ClusterBackend::sweep_blocks`]): a task per block reads the block's
//! entries once, evaluates each one's residual value and writes the
//! block's partial `H` rows for every mode; the partials of a mode are
//! then added up at each factor partition's home in ascending block order
//! ([`ClusterBackend::combine`]). The prologue and end-of-iteration sweeps
//! run it banking every mode (one pass banks the next iteration's N
//! MTTKRPs), the last one banking none (the plain `‖E‖²`). A block's
//! partial for a mode is a function of the model and the block alone, and
//! the combine order is fixed, so resumed ≡ uninterrupted and
//! `Sequential` ≡ `Threads(n)` hold bit-for-bit by construction.
//!
//! The charges follow that schedule and nothing else. They model
//! Algorithm 3, which caches `E` as an RDD beside the blocks, so a pass
//! pays for writing the fresh values even though this backend keeps none.
//! They are a function of the blocking metadata ([`BlockMeta`]) and of
//! which passes ran: a
//! block task costs the sum of the passes it folds into one
//! ([`ClusterBackend::block_task`] — no arithmetic discount is claimed on
//! the virtual clock; the entries are read once), and a sweep is one
//! factor fetch, one block stage and one shuffle, where Algorithm 3 as
//! published pays N+1, N+1 and N ([`crate::model::DisTenCModel`] still
//! models that schedule).
//!
//! The accounting vectors built per stage (`TaskCost` lists, shuffle
//! tallies, the per-sweep task list) are bookkeeping, not step math, and
//! are the distributed driver's documented exemption from the
//! steady-state allocation budget.

use super::StepBackend;
use crate::Result;
use distenc_dataflow::cluster::TaskCost;
use distenc_dataflow::{Cluster, Executor};
use distenc_linalg::Mat;
use distenc_partition::{ModePartition, TensorBlocks};
use distenc_tensor::fused::block_sweep_into;
use distenc_tensor::{CooTensor, KruskalTensor};
use std::ops::Range;

const F64: u64 = 8;

/// One tensor block as this backend sees it: the blocking's entries,
/// borrowed, and where the block sits.
pub(crate) struct BlockMeta<'a> {
    /// Machine this block is pinned to.
    pub(crate) machine: usize,
    /// The observed entries of this block.
    pub(crate) entries: &'a CooTensor,
    /// Per-mode partition coordinates of this block.
    pub(crate) coords: Vec<usize>,
    /// Distinct mode-`n` indices appearing in this block (per mode) —
    /// determines which factor rows the block needs and how large its
    /// partial-`H` output is.
    pub(crate) active: Vec<Vec<usize>>,
}

impl BlockMeta<'_> {
    /// Entries in this block.
    pub(crate) fn nnz(&self) -> usize {
        self.entries.nnz()
    }
}

/// One block's partial-`H` output: per mode a row slab, dense over the
/// block's mode partition, and the global row that slab starts at. Sized
/// at construction — the blocking never changes — and overwritten by every
/// pass that sweeps the mode.
struct BlockSlabs {
    origin: Vec<usize>,
    partial: Vec<Mat>,
}

/// One block's share of a [`ClusterBackend::sweep_blocks`] pass.
struct BlockTask<'a> {
    entries: &'a CooTensor,
    origin: &'a [usize],
    partial: &'a mut [Mat],
    /// The block's `‖e‖²`, written by the task.
    frob: f64,
}

/// Cluster backend bound to a simulated cluster and a fixed Algorithm 2
/// blocking, built once per solve and reused by every attempt.
pub(crate) struct ClusterBackend<'a> {
    cl: &'a Cluster,
    /// Runs the block tasks and the Gram partials: the solve's executor.
    exec: &'a Executor,
    rank: usize,
    n_modes: usize,
    /// The blocking: the solve's one copy of the blocked entries, and the
    /// mode partitions.
    pub(crate) blocking: &'a TensorBlocks,
    /// Per block, parallel to `blocking.blocks`.
    pub(crate) meta: Vec<BlockMeta<'a>>,
    /// Per block: its partial-`H` slabs, parallel to `meta`.
    slabs: Vec<BlockSlabs>,
    /// Per-mode partial-Gram row ranges (the mode partition's ranges).
    gram_ranges: Vec<Vec<Range<usize>>>,
    /// `truncated[n].k()` per mode, for the B-update projection charge.
    eigen_k: Vec<usize>,
}

impl<'a> ClusterBackend<'a> {
    /// Bind the backend to `cl` and `blocking`, block `i` pinned to the
    /// machine of partition `i`, its kernels on `exec`.
    pub(crate) fn new(
        cl: &'a Cluster,
        exec: &'a Executor,
        rank: usize,
        blocking: &'a TensorBlocks,
        eigen_k: Vec<usize>,
    ) -> Self {
        let modes = &blocking.modes;
        let meta: Vec<BlockMeta<'a>> = blocking
            .blocks
            .iter()
            .enumerate()
            .map(|(i, (id, entries))| BlockMeta {
                machine: cl.machine_for_partition(i),
                entries,
                coords: blocking.block_coords(*id),
                active: (0..modes.len()).map(|n| entries.active_indices(n)).collect(),
            })
            .collect();
        let slabs = meta
            .iter()
            .map(|b| {
                let ranges = b.coords.iter().zip(modes).map(|(&p, part)| part.range(p));
                BlockSlabs {
                    origin: ranges.clone().map(|r| r.start).collect(),
                    partial: ranges.map(|r| Mat::zeros(r.len(), rank)).collect(),
                }
            })
            .collect();
        let gram_ranges: Vec<Vec<Range<usize>>> = modes
            .iter()
            .map(|part| (0..part.parts()).map(|p| part.range(p)).collect())
            .collect();
        let n_modes = modes.len();
        ClusterBackend { cl, exec, rank, n_modes, blocking, meta, slabs, gram_ranges, eigen_k }
    }

    // ---- Block-local kernels --------------------------------------------

    /// The one block body: a task per block on the executor walks the
    /// block's entries once, evaluating each one's residual value, and
    /// overwrites the block's partial `H` slabs for the leading `banks`
    /// modes — every mode, or none. Returns `‖E‖²_F` as the sum of the
    /// per-block `‖e‖²` in ascending block order — the fixed association
    /// of this decomposition. Blocks share nothing, so the executor cannot
    /// change a bit.
    fn sweep_blocks(&mut self, model: &KruskalTensor, banks: usize) -> f64 {
        crate::record_entry_sweep(self.meta.iter().map(BlockMeta::nnz).sum());
        let mut tasks: Vec<BlockTask<'_>> = self
            .meta
            .iter()
            .zip(&mut self.slabs)
            .map(|(b, slabs)| BlockTask {
                entries: b.entries,
                origin: &slabs.origin,
                partial: &mut slabs.partial[..banks],
                frob: 0.0,
            })
            .collect();
        self.exec.run_mut(&mut tasks, |_, t| {
            t.frob = block_sweep_into(t.entries, model, t.origin, t.partial)
                .expect("block slabs are sized from the blocking they sweep");
        });
        tasks.iter().map(|t| t.frob).sum()
    }

    /// Add up a mode's per-block partial `H` slabs into the full `Iₙ×R`
    /// matrix: every factor partition receives the partials of the blocks
    /// on its coordinate in ascending block order.
    fn combine(&self, mode: usize, out: &mut Mat) {
        out.fill(0.0);
        for slabs in &self.slabs {
            let part = slabs.partial[mode].as_slice();
            let home = &mut out.as_mut_slice()[slabs.origin[mode] * self.rank..][..part.len()];
            for (h, &p) in home.iter_mut().zip(part) {
                *h += p;
            }
        }
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
        for part in &self.blocking.modes {
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
        for part in &self.blocking.modes {
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

    /// Fetch the factor rows of every mode each block reads (a sweep
    /// evaluates the model, or banks every mode, at each entry). Rows
    /// whose home machine already hosts the block are free (§III-F keeps
    /// joins co-partitioned for exactly this reason).
    fn charge_factor_fetch(&self) -> Result<()> {
        let cl = self.cl;
        let m = cl.machines();
        // Dedup: machine × mode × partition fetched at most once per stage.
        let mut needed: std::collections::BTreeSet<(usize, usize, usize)> =
            std::collections::BTreeSet::new();
        for b in &self.meta {
            for (k, &pk) in b.coords.iter().enumerate() {
                let home = cl.machine_for_partition(pk);
                if home != b.machine {
                    needed.insert((b.machine, k, pk));
                }
            }
        }
        let mut sent = vec![0u64; m];
        let mut received = vec![0u64; m];
        for &(dst, k, pk) in &needed {
            let rows = self.blocking.modes[k].range(pk).len() as u64;
            let bytes = rows * self.rank as u64 * F64;
            sent[cl.machine_for_partition(pk)] += bytes;
            received[dst] += bytes;
        }
        cl.shuffle(&sent, &received)?;
        Ok(())
    }

    /// What block `b`'s task costs in a pass that refreshes the residual
    /// values and sweeps `modes`: the refresh and each MTTKRP are
    /// `nnz·N·R` flops and the task is charged all of them; the entries
    /// (`N` indices and the value, plus the residual value as soon as a
    /// mode is swept) are read once; the outputs are the fresh values and
    /// the partial-`H` rows of every swept mode.
    fn block_task(&self, b: &BlockMeta<'_>, modes: Range<usize>) -> TaskCost {
        let (nnz, rank) = (b.nnz() as u64, self.rank as u64);
        let passes = modes.len() + 1;
        let entry_words = self.n_modes as u64 + 1 + u64::from(!modes.is_empty());
        let out_rows: usize = b.active[modes].iter().map(Vec::len).sum();
        TaskCost {
            machine: b.machine,
            flops: (passes * b.nnz() * self.n_modes * self.rank) as f64,
            input_bytes: nnz * entry_words * F64,
            output_bytes: (nnz + out_rows as u64 * rank) * F64,
        }
    }

    /// One stage of [`Self::block_task`]s, then one shuffle carrying the
    /// partial-`H` rows of every swept mode to their factor partitions'
    /// homes (a plain refresh sweeps no mode and moves nothing).
    fn charge_block_stage(&self, modes: Range<usize>) -> Result<()> {
        let cl = self.cl;
        let tasks: Vec<TaskCost> =
            self.meta.iter().map(|b| self.block_task(b, modes.clone())).collect();
        cl.run_stage(&tasks)?;
        if modes.is_empty() {
            return Ok(());
        }
        let mut sent = vec![0u64; cl.machines()];
        let mut received = vec![0u64; cl.machines()];
        for b in &self.meta {
            for mode in modes.clone() {
                let dst = cl.machine_for_partition(b.coords[mode]);
                if dst != b.machine {
                    let bytes = b.active[mode].len() as u64 * self.rank as u64 * F64;
                    sent[b.machine] += bytes;
                    received[dst] += bytes;
                }
            }
        }
        cl.shuffle(&sent, &received)?;
        Ok(())
    }
}

impl StepBackend for ClusterBackend<'_> {
    /// What the cluster pays for a mode's MTTKRP at its mode step. The
    /// sweep before the iteration has already paid its fetch, block stage
    /// and shuffle — together with every other mode's — so only its
    /// partial-`H` rows remain to be combined at their homes.
    fn on_sparse_mttkrp(&mut self, mode: usize) -> Result<()> {
        self.charge_rows_stage(&self.blocking.modes[mode], self.rank as f64, 0)
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
        let partials = self.exec.run(&self.gram_ranges[mode], |_, r| factor.gram_range(r.clone()));
        out.fill(0.0);
        for partial in &partials {
            out.axpy(1.0, partial).expect("partial grams share the R×R shape");
        }
        out.mirror_upper();
        Ok(())
    }

    /// The banking sweep (see [`StepBackend::fused_step`]). Handed the
    /// bank, every block evaluates its residual values and emits all N
    /// partials in one task, and the cluster is charged one factor fetch
    /// (every mode's rows at every block), one block stage and one
    /// shuffle. Handed nothing, it is the plain refresh: the same fetch and
    /// a stage that sweeps no mode.
    fn fused_step(
        &mut self,
        _observed: &CooTensor,
        model: &KruskalTensor,
        bank: &mut [Mat],
    ) -> Result<f64> {
        self.charge_factor_fetch()?;
        self.charge_block_stage(0..bank.len())?;
        let frob = self.sweep_blocks(model, bank.len());
        for (mode, out) in bank.iter_mut().enumerate() {
            self.combine(mode, out);
        }
        Ok(frob)
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
        self.charge_rows_stage(&self.blocking.modes[mode], per_row, rank as u64 * F64)?;
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
            &self.blocking.modes[mode],
            (2 * rank * rank + 3 * rank) as f64,
            rank as u64 * F64,
        )
    }

    /// Line 12: per-row Y write-back.
    fn on_y_update(&mut self, mode: usize) -> Result<()> {
        self.charge_rows_stage(
            &self.blocking.modes[mode],
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

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_dataflow::{ClusterConfig, ExecMode};

    /// The 2×2×2 blocking of a full 4×4×4 tensor.
    fn blocking() -> TensorBlocks {
        let mut x = CooTensor::new(vec![4, 4, 4]);
        for i in 0..64 {
            x.push(&[i / 16, i / 4 % 4, i % 4], 1.0 + i as f64).unwrap();
        }
        TensorBlocks::build(&x, &[2, 2, 2])
    }

    #[test]
    fn the_fused_stage_is_charged_the_sum_of_the_tasks_it_replaces() {
        // Nothing gets cheaper by decree: block by block, the all-modes
        // task costs the flops and emits the outputs of the refresh task
        // plus the N one-mode MTTKRP tasks of Algorithm 3 as published.
        // Only the entries are read once instead of N+1 times.
        let blocking = blocking();
        let cl = Cluster::new(ClusterConfig::test(2).with_time_budget(None));
        let exec = Executor::new(ExecMode::Sequential);
        let be = ClusterBackend::new(&cl, &exec, 3, &blocking, vec![0; 3]);
        assert_eq!(be.meta.len(), 8);
        let n = be.n_modes;
        for b in &be.meta {
            let fused = be.block_task(b, 0..n);
            // The plain refresh is the fused task that sweeps no mode.
            let refresh = be.block_task(b, 0..0);

            // The replaced tasks: nnz·N·R flops each; entries in (plus the
            // residual value for an MTTKRP); values or the block's active
            // rows out.
            let (nnz, rank) = (b.nnz() as u64, be.rank as u64);
            let pass_flops = (b.nnz() * n * be.rank) as f64;
            assert_eq!(refresh.flops, pass_flops);
            assert_eq!(refresh.input_bytes, nnz * (n as u64 + 1) * F64);
            assert_eq!(refresh.output_bytes, nnz * F64);
            let per_mode: Vec<TaskCost> = (0..n)
                .map(|m| TaskCost {
                    machine: b.machine,
                    flops: pass_flops,
                    input_bytes: nnz * (n as u64 + 2) * F64,
                    output_bytes: b.active[m].len() as u64 * rank * F64,
                })
                .collect();

            let replaced = || std::iter::once(&refresh).chain(&per_mode);
            assert!(replaced().all(|t| t.machine == fused.machine));
            assert_eq!(fused.flops, replaced().map(|t| t.flops).sum::<f64>());
            assert_eq!(fused.output_bytes, replaced().map(|t| t.output_bytes).sum::<u64>());
            assert_eq!(fused.input_bytes, per_mode[0].input_bytes, "inputs are charged once");
        }
    }
}
