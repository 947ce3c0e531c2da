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
//! It holds no residual: the kernels read the Algorithm 2 blocks' entries
//! straight from the blocking — built once per solve, like the backend —
//! and one block body serves every pass over them
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
//! The charges follow that schedule and nothing else: [`Ledger::charge`]
//! is one `match` over the [`Phase`]s the core reports. They model
//! Algorithm 3, which caches `E` as an RDD beside the blocks, so a pass
//! pays for writing the fresh values even though this backend keeps none.
//! Like the paper's Lemmas 1–3 they read counts alone — the [`Ledger`]
//! holds per block its machine, nnz, coordinates and distinct rows per
//! mode, the mode partitions, the rank and `K`, and no entry. A block task
//! costs the sum of the passes it folds into one ([`Ledger::block_task`]
//! — no arithmetic discount is claimed on the virtual clock; the entries
//! are read once), and a sweep is one factor fetch, one block stage and
//! one shuffle, where Algorithm 3 as published pays N+1, N+1 and N
//! ([`crate::model::DisTenCModel`] still models that schedule).
//!
//! The accounting vectors built per stage (`TaskCost` lists, shuffle
//! tallies, the per-sweep task list) are bookkeeping, not step math, and
//! are the distributed driver's documented exemption from the
//! steady-state allocation budget.

use super::{Phase, StepBackend};
use crate::Result;
use distenc_dataflow::cluster::TaskCost;
use distenc_dataflow::{Cluster, Executor};
use distenc_linalg::Mat;
use distenc_partition::{ModePartition, TensorBlocks};
use distenc_tensor::fused::block_sweep_into;
use distenc_tensor::{CooTensor, KruskalTensor};
use std::ops::Range;

const F64: u64 = 8;

/// One tensor block as the ledger sees it: counts, and where it sits.
pub(crate) struct BlockMeta {
    /// Machine this block is pinned to.
    pub(crate) machine: usize,
    /// Entries in this block.
    pub(crate) nnz: usize,
    /// Per-mode partition coordinates of this block.
    pub(crate) coords: Vec<usize>,
    /// Per mode, the distinct mode-`n` indices in this block: the factor
    /// rows it reads and the rows of its partial `H`.
    pub(crate) rows: Vec<usize>,
}

/// The count-only view of a DisTenC solve and every charge that reads it:
/// the per-iteration schedule ([`Ledger::charge`]) and, through its
/// fields, the driver's one-off set-up, reservation and recovery charges.
pub(crate) struct Ledger<'a> {
    /// The cluster charged.
    cl: &'a Cluster,
    pub(crate) rank: usize,
    /// The blocking's per-mode partitions.
    pub(crate) modes: &'a [ModePartition],
    /// Per block, parallel to the blocking's blocks.
    pub(crate) meta: Vec<BlockMeta>,
    /// `truncated[n].k()` per mode.
    pub(crate) eigen_k: Vec<usize>,
}

/// Distinct mode-`n` indices of `entries`, which all lie in `range`: one
/// pass, flagging each row of the range the first time it appears.
fn distinct_rows(entries: &CooTensor, n: usize, range: Range<usize>) -> usize {
    let mut seen = vec![false; range.len()];
    let mut first = |i: usize| !std::mem::replace(&mut seen[i - range.start], true);
    entries.iter().filter(|(idx, _)| first(idx[n])).count()
}

impl<'a> Ledger<'a> {
    /// Count `blocking` for `cl`, block `i` pinned to the machine of
    /// partition `i`.
    pub(crate) fn new(
        cl: &'a Cluster,
        rank: usize,
        blocking: &'a TensorBlocks,
        eigen_k: Vec<usize>,
    ) -> Self {
        let modes = &blocking.modes;
        let meta = blocking
            .blocks
            .iter()
            .enumerate()
            .map(|(i, (id, entries))| {
                let coords = blocking.block_coords(*id);
                let rows = coords
                    .iter()
                    .zip(modes)
                    .enumerate()
                    .map(|(n, (&p, part))| distinct_rows(entries, n, part.range(p)))
                    .collect();
                BlockMeta { machine: cl.machine_for_partition(i), nnz: entries.nnz(), coords, rows }
            })
            .collect();
        Ledger { cl, rank, modes, meta, eigen_k }
    }

    /// Mode lengths: the last boundary of each mode partition.
    pub(crate) fn shape(&self) -> Vec<usize> {
        self.modes.iter().map(|part| part.range(part.parts() - 1).end).collect()
    }

    /// Entries over all blocks: the observed support size.
    pub(crate) fn nnz(&self) -> usize {
        self.meta.iter().map(|b| b.nnz).sum()
    }

    /// What the cluster pays for `phase` of the schedule.
    pub(crate) fn charge(&self, phase: Phase) -> Result<()> {
        let (cl, rank) = (self.cl, self.rank);
        let rank_bytes = rank as u64 * F64;
        match phase {
            // Line 8 (Eq. 7): local `ηA−Y`, a `K×R` projection reduced
            // across machines and broadcast back, then local expansion:
            // 2·rows·R (rhs) + rows·K·R (projection) + rows·K·R (expansion).
            Phase::BUpdate(n) => {
                let k = self.eigen_k[n];
                let per_row = (2 * rank + 2 * k * rank) as f64;
                self.charge_rows_stage(&self.modes[n], per_row, rank_bytes)?;
                if k > 0 {
                    self.reduce_and_broadcast((k * rank) as u64 * F64)?;
                }
            }
            // Line 9: the Hadamard product on the driver is O(N·R²).
            Phase::GramProduct => {
                cl.charge_driver_flops((self.modes.len() * rank * rank) as f64)?;
            }
            // Line 10: the sweep before the iteration has already paid the
            // MTTKRP's fetch, block stage and shuffle — together with every
            // other mode's — so only its partial-`H` rows remain to be
            // combined at their homes.
            Phase::SparseMttkrp(n) => self.charge_rows_stage(&self.modes[n], rank as f64, 0)?,
            // Line 11: the `R×R` factorization happens once, replicated
            // (O(R³)); assembling the numerator and applying the inverse is
            // `O(rows·R²)` per partition.
            Phase::AUpdate(n) => {
                cl.charge_driver_flops((rank * rank * rank) as f64)?;
                let per_row = (2 * rank * rank + 3 * rank) as f64;
                self.charge_rows_stage(&self.modes[n], per_row, rank_bytes)?;
            }
            // Line 12: per-row Y write-back.
            Phase::YUpdate(n) => self.charge_rows_stage(&self.modes[n], rank as f64, rank_bytes)?,
            // Eqs. 12–13: per-partition `rows·R²` flops, `R×R` partials
            // reduced and broadcast, for every mode.
            Phase::GramsRefreshed => {
                let r2_bytes = (rank * rank) as u64 * F64;
                for part in self.modes {
                    self.charge_rows_stage(part, (rank * rank) as f64, r2_bytes)?;
                    self.reduce_and_broadcast(r2_bytes)?;
                }
            }
            Phase::DeltaReduced => {
                for part in self.modes {
                    self.charge_rows_stage(part, rank as f64, 0)?;
                }
            }
            // One factor fetch (every mode's rows at every block) and one
            // block stage, which banks every mode or none.
            Phase::Sweep { bank } => {
                self.charge_factor_fetch()?;
                self.charge_block_stage(bank)?;
            }
        }
        Ok(())
    }

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

    /// Reduce per-machine partials of `bytes` to machine 0, then broadcast
    /// the result.
    fn reduce_and_broadcast(&self, bytes: u64) -> Result<()> {
        let m = self.cl.machines();
        let mut sent = vec![bytes; m];
        sent[0] = 0;
        let mut received = vec![0u64; m];
        received[0] = bytes * (m as u64 - 1);
        self.cl.shuffle(&sent, &received)?;
        self.cl.broadcast_charge(bytes)?;
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
            let rows = self.modes[k].range(pk).len() as u64;
            let bytes = rows * self.rank as u64 * F64;
            sent[cl.machine_for_partition(pk)] += bytes;
            received[dst] += bytes;
        }
        cl.shuffle(&sent, &received)?;
        Ok(())
    }

    /// What block `b`'s task costs in a pass that refreshes the residual
    /// values and, if `bank`, sweeps every mode: the refresh and each
    /// MTTKRP are `nnz·N·R` flops and the task is charged all of them; the
    /// entries (`N` indices and the value, plus the residual value when
    /// the modes are swept) are read once; the outputs are the fresh values
    /// and the partial-`H` rows of every swept mode.
    fn block_task(&self, b: &BlockMeta, bank: bool) -> TaskCost {
        let n_modes = self.modes.len();
        let (nnz, rank) = (b.nnz as u64, self.rank as u64);
        let passes = if bank { n_modes + 1 } else { 1 };
        let entry_words = n_modes as u64 + 1 + u64::from(bank);
        let out_rows: usize = if bank { b.rows.iter().sum() } else { 0 };
        TaskCost {
            machine: b.machine,
            flops: (passes * b.nnz * n_modes * self.rank) as f64,
            input_bytes: nnz * entry_words * F64,
            output_bytes: (nnz + out_rows as u64 * rank) * F64,
        }
    }

    /// One stage of [`Self::block_task`]s, then, if `bank`, one shuffle
    /// carrying the partial-`H` rows of every mode to their factor
    /// partitions' homes (a plain refresh moves nothing).
    fn charge_block_stage(&self, bank: bool) -> Result<()> {
        let cl = self.cl;
        let tasks: Vec<TaskCost> = self.meta.iter().map(|b| self.block_task(b, bank)).collect();
        cl.run_stage(&tasks)?;
        if !bank {
            return Ok(());
        }
        let mut sent = vec![0u64; cl.machines()];
        let mut received = vec![0u64; cl.machines()];
        for b in &self.meta {
            for (&p, &rows) in b.coords.iter().zip(&b.rows) {
                let dst = cl.machine_for_partition(p);
                if dst != b.machine {
                    let bytes = rows as u64 * self.rank as u64 * F64;
                    sent[b.machine] += bytes;
                    received[dst] += bytes;
                }
            }
        }
        cl.shuffle(&sent, &received)?;
        Ok(())
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
    /// What every charge reads.
    pub(crate) ledger: Ledger<'a>,
    /// Runs the block tasks and the Gram partials: the solve's executor.
    exec: &'a Executor,
    /// The blocking's blocks: the solve's one copy of the blocked entries.
    blocks: &'a [(usize, CooTensor)],
    /// Per block: its partial-`H` slabs, parallel to `blocks`.
    slabs: Vec<BlockSlabs>,
    /// Per-mode partial-Gram row ranges (the mode partition's ranges).
    gram_ranges: Vec<Vec<Range<usize>>>,
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
        let ledger = Ledger::new(cl, rank, blocking, eigen_k);
        let modes = &blocking.modes;
        let slabs = ledger
            .meta
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
        ClusterBackend { ledger, exec, blocks: &blocking.blocks, slabs, gram_ranges }
    }

    // ---- Block-local kernels --------------------------------------------

    /// The one block body: a task per block on the executor walks the
    /// block's entries once, evaluating each one's residual value, and, if
    /// `bank`, overwrites the block's partial `H` slabs for every mode.
    /// Returns `‖E‖²_F` as the sum of the per-block `‖e‖²` in ascending
    /// block order — the fixed association of this decomposition. Blocks
    /// share nothing, so the executor cannot change a bit.
    fn sweep_blocks(&mut self, model: &KruskalTensor, bank: bool) -> f64 {
        crate::record_entry_sweep(self.blocks.iter().map(|(_, entries)| entries.nnz()).sum());
        let mut tasks: Vec<BlockTask<'_>> = self
            .blocks
            .iter()
            .zip(&mut self.slabs)
            .map(|((_, entries), slabs)| BlockTask {
                entries,
                origin: &slabs.origin,
                partial: if bank { &mut slabs.partial } else { &mut [] },
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
            let start = slabs.origin[mode] * self.ledger.rank;
            let home = &mut out.as_mut_slice()[start..][..part.len()];
            for (h, &p) in home.iter_mut().zip(part) {
                *h += p;
            }
        }
    }
}

impl StepBackend for ClusterBackend<'_> {
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

    /// The banking sweep (see [`StepBackend::fused_step`]; the core has
    /// charged it as [`Phase::Sweep`]). Handed the bank, every block
    /// evaluates its residual values and emits all N partials in one task;
    /// handed nothing, it is the plain refresh.
    fn fused_step(&mut self, model: &KruskalTensor, bank: &mut [Mat]) -> Result<f64> {
        let frob = self.sweep_blocks(model, !bank.is_empty());
        for (mode, out) in bank.iter_mut().enumerate() {
            self.combine(mode, out);
        }
        Ok(frob)
    }

    fn clock(&self) -> f64 {
        self.ledger.cl.now()
    }

    fn charge(&mut self, phase: Phase) -> Result<()> {
        self.ledger.charge(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_dataflow::{ClusterConfig, ExecMode};
    use std::collections::BTreeSet;

    /// The 2×2×2 blocking of a full 4×4×4 tensor.
    fn blocking() -> TensorBlocks {
        let mut x = CooTensor::new(vec![4, 4, 4]);
        for i in 0..64 {
            x.push(&[i / 16, i / 4 % 4, i % 4], 1.0 + i as f64).unwrap();
        }
        TensorBlocks::build(&x, &[2, 2, 2])
    }

    #[test]
    fn block_rows_count_the_distinct_indices_of_each_block() {
        // Head-heavy: most entries in the first slice of every mode,
        // repeated indices within blocks, and blocks with no entry at all.
        let mut x = CooTensor::new(vec![9, 7, 5]);
        for e in 0..60usize {
            let i = if e % 4 == 0 { e % 9 } else { 0 };
            x.push(&[i, e % 3, (e / 3) % 2 * 4], 1.0).unwrap();
        }
        let blocking = TensorBlocks::build(&x, &[3, 3, 2]);
        assert!(blocking.blocks.len() < 3 * 3 * 2, "some block is empty");
        let cl = Cluster::new(ClusterConfig::test(3).with_time_budget(None));
        let ledger = Ledger::new(&cl, 2, &blocking, vec![0; 3]);
        assert_eq!(ledger.meta.len(), blocking.blocks.len());
        for (b, (id, entries)) in ledger.meta.iter().zip(&blocking.blocks) {
            assert_eq!((b.nnz, &b.coords), (entries.nnz(), &blocking.block_coords(*id)));
            for (n, &rows) in b.rows.iter().enumerate() {
                let distinct: BTreeSet<usize> = entries.iter().map(|(idx, _)| idx[n]).collect();
                assert_eq!(rows, distinct.len(), "block {id}, mode {n}");
            }
        }
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
        let ledger = &be.ledger;
        assert_eq!(ledger.meta.len(), 8);
        let n = ledger.modes.len();
        for b in &ledger.meta {
            let fused = ledger.block_task(b, true);
            // The plain refresh is the fused task that sweeps no mode.
            let refresh = ledger.block_task(b, false);

            // The replaced tasks: nnz·N·R flops each; entries in (plus the
            // residual value for an MTTKRP); values or the block's rows out.
            let (nnz, rank) = (b.nnz as u64, ledger.rank as u64);
            let pass_flops = (b.nnz * n * ledger.rank) as f64;
            assert_eq!(refresh.flops, pass_flops);
            assert_eq!(refresh.input_bytes, nnz * (n as u64 + 1) * F64);
            assert_eq!(refresh.output_bytes, nnz * F64);
            let per_mode: Vec<TaskCost> = b
                .rows
                .iter()
                .map(|&rows| TaskCost {
                    machine: b.machine,
                    flops: pass_flops,
                    input_bytes: nnz * (n as u64 + 2) * F64,
                    output_bytes: rows as u64 * rank * F64,
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
