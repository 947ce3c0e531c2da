//! The sweeps bank, bit for bit, what the plain per-mode MTTKRP computes.
//!
//! A solve's sweep evaluates the residual and banks every mode from it;
//! the kernel-layer sweeps bank from *stored* values.
//! `stored_sweeps_are_bitwise_the_plain_mttkrp` pins both, on every
//! executor, against `mttkrp` mode by mode — of the residual tensor for
//! the solve's, of the tensor itself for the stored ones. The solve-level
//! references — that the one schedule computes Algorithm 1 — are
//! `tests/oracle.rs`'s.

use distenc::linalg::Mat;
use distenc::dataflow::{ExecMode, Executor};
use distenc::tensor::fused::{cut_sweep_into, mttkrp_modes_into, BlockCut};
use distenc::tensor::mttkrp::mttkrp;
use distenc::tensor::residual::residual;
use distenc::tensor::{CooTensor, KruskalTensor, LayoutKind, TensorLayout};

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0xf05e)
}

#[test]
fn stored_sweeps_are_bitwise_the_plain_mttkrp() {
    // What a solve's sweep banks: every mode's MTTKRP of the residual it
    // evaluates, in one sweep over the observed tensor's cut (one block at
    // these sizes) on any executor — and the same body over stored values
    // for the sequential COO layout's one-mode `mttkrp_into` and for a run
    // of modes in the middle. Each output must be, bit for bit, the plain
    // `mttkrp` of its mode, over a bank that starts dirty.
    let seq = Executor::new(ExecMode::Sequential);
    let par = Executor::new(ExecMode::Threads(4));
    let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let shapes: &[&[usize]] = &[&[17, 15], &[13, 11, 9], &[7, 6, 5, 4]];
    for &shape in shapes {
        for rank in [1usize, 3, 8, 16, 17, 20] {
            let x = planted(shape, rank, 50 * shape.len() + rank, rank as u64 + 31);
            let model = KruskalTensor::random(shape, rank, rank as u64 + 7);
            let want: Vec<Mat> =
                (0..shape.len()).map(|m| mttkrp(&x, model.factors(), m).unwrap()).collect();
            let e = residual(&x, &model).unwrap();
            let swept: Vec<Mat> =
                (0..shape.len()).map(|m| mttkrp(&e, model.factors(), m).unwrap()).collect();
            let dirty = || -> Vec<Mat> {
                shape.iter().enumerate().map(|(m, &d)| Mat::random(d, rank, 90 + m as u64)).collect()
            };
            let label = format!("shape {shape:?} rank {rank}");
            let mut cut = BlockCut::new(shape, x.nnz(), rank);
            assert_eq!(cut.blocks(), 1, "{label}");
            for exec in [&seq, &par] {
                let mut bank = dirty();
                // Twice: a sweep over its own output must be clean too.
                for _ in 0..2 {
                    cut_sweep_into(&x, &model, &mut bank, &mut cut, exec).unwrap();
                    for (m, h) in bank.iter().enumerate() {
                        assert_eq!(bits(h), bits(&swept[m]), "{label}: all-modes, mode {m}");
                    }
                }
            }
            let layout = TensorLayout::build(x.clone(), LayoutKind::Coo).unwrap();
            let mut lw = layout.workspace(rank, &[], &seq).unwrap();
            let mut one = dirty();
            for (m, h) in one.iter_mut().enumerate() {
                layout.mttkrp_into(model.factors(), m, &mut lw, &seq, h).unwrap();
                assert_eq!(bits(h), bits(&want[m]), "{label}: layout, mode {m}");
            }
            // Any run of modes, not only `0..N` and `m..m + 1`.
            for first in 0..shape.len() {
                for count in 0..=shape.len() - first {
                    let mut hs = dirty();
                    mttkrp_modes_into(&x, model.factors(), first, &mut hs[first..first + count])
                        .unwrap();
                    for m in first..first + count {
                        assert_eq!(bits(&hs[m]), bits(&want[m]), "{label}: modes {first}+{count}");
                    }
                }
            }
        }
    }
}
