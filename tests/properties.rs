//! Property-based tests (proptest) of the core invariants across crates.

use distenc::graph::builders::tridiagonal_chain;
use distenc::graph::Laplacian;
use distenc::linalg::{Cholesky, Mat};
use distenc::partition::{greedy_boundaries, TensorBlocks};
use distenc::tensor::khatri_rao::khatri_rao_skip;
use distenc::tensor::mttkrp::{gram_product, mttkrp};
use distenc::tensor::residual::{completed_mttkrp, residual};
use distenc::tensor::split::split_missing;
use distenc::tensor::{io, CooTensor, DenseTensor, KruskalTensor};
use proptest::prelude::*;

/// Strategy: a random sparse tensor with shape in [2,8]³ and 1–60 entries.
fn coo_strategy() -> impl Strategy<Value = CooTensor> {
    (
        prop::collection::vec(2usize..=8, 3),
        1usize..=60,
        any::<u64>(),
    )
        .prop_map(|(shape, nnz, seed)| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = CooTensor::new(shape.clone());
            for _ in 0..nnz {
                let idx: Vec<usize> =
                    shape.iter().map(|&d| rng.random_range(0..d)).collect();
                t.push(&idx, rng.random::<f64>() * 4.0 - 2.0).unwrap();
            }
            t.sort_dedup();
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gram_identity_for_khatri_rao(seed in any::<u64>(), rows_a in 2usize..7, rows_b in 2usize..7, rank in 1usize..5) {
        // (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ∗ BᵀB (Eq. 12).
        let a = Mat::random(rows_a, rank, seed);
        let b = Mat::random(rows_b, rank, seed ^ 1);
        let kr = distenc::tensor::khatri_rao::khatri_rao(&a, &b).unwrap();
        let lhs = kr.gram();
        let rhs = a.gram().hadamard(&b.gram()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn mttkrp_matches_dense_oracle(t in coo_strategy(), seed in any::<u64>()) {
        let rank = 3;
        let model = KruskalTensor::random(t.shape(), rank, seed);
        for mode in 0..t.order() {
            let fast = mttkrp(&t, model.factors(), mode).unwrap();
            let dense = DenseTensor::from_coo(&t);
            let u = khatri_rao_skip(model.factors(), mode).unwrap();
            let want = dense.matricize(mode).matmul(&u).unwrap();
            for (x, y) in fast.as_slice().iter().zip(want.as_slice()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn blockwise_mttkrp_sums_to_global(t in coo_strategy(), seed in any::<u64>(), parts in 1usize..4) {
        // Σ over blocks of per-block MTTKRP = whole-tensor MTTKRP — the
        // correctness basis of the distributed stage.
        let rank = 2;
        let model = KruskalTensor::random(t.shape(), rank, seed);
        let blocks = TensorBlocks::build(&t, &vec![parts; t.order()]);
        for mode in 0..t.order() {
            let global = mttkrp(&t, model.factors(), mode).unwrap();
            let mut acc = Mat::zeros(t.shape()[mode], rank);
            for (_, block) in &blocks.blocks {
                let part = mttkrp(block, model.factors(), mode).unwrap();
                acc.axpy(1.0, &part).unwrap();
            }
            for (x, y) in acc.as_slice().iter().zip(global.as_slice()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn residual_trick_matches_completed_dense(t in coo_strategy(), seed in any::<u64>()) {
        // Eq. 16 on arbitrary random inputs.
        let rank = 2;
        let model = KruskalTensor::random(t.shape(), rank, seed);
        let e = residual(&t, &model).unwrap();
        let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
        let mut x = DenseTensor::from_kruskal(&model);
        for (idx, v) in t.iter() {
            x.set(idx, v);
        }
        for mode in 0..t.order() {
            let fast = completed_mttkrp(&e, &model, &grams, mode).unwrap();
            let u = khatri_rao_skip(model.factors(), mode).unwrap();
            let naive = x.matricize(mode).matmul(&u).unwrap();
            for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn gram_product_matches_explicit(seed in any::<u64>(), rank in 1usize..5) {
        let shape = [5usize, 4, 6];
        let model = KruskalTensor::random(&shape, rank, seed);
        let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
        for mode in 0..3 {
            let fast = gram_product(&grams, mode).unwrap();
            let u = khatri_rao_skip(model.factors(), mode).unwrap();
            let want = u.gram();
            for (a, b) in fast.as_slice().iter().zip(want.as_slice()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn greedy_boundaries_invariants(theta in prop::collection::vec(0usize..50, 1..40), parts in 1usize..8) {
        let b = greedy_boundaries(&theta, parts);
        prop_assert_eq!(b.len(), parts);
        prop_assert_eq!(*b.last().unwrap(), theta.len());
        for w in b.windows(2) {
            prop_assert!(w[0] <= w[1], "boundaries must be non-decreasing");
        }
    }

    #[test]
    fn blocks_partition_the_tensor(t in coo_strategy(), parts in 1usize..4) {
        let blocks = TensorBlocks::build(&t, &vec![parts; t.order()]);
        prop_assert_eq!(blocks.total_nnz(), t.nnz());
        let total_from_mode_load: usize = blocks.mode_load(0).iter().sum();
        prop_assert_eq!(total_from_mode_load, t.nnz());
        for (id, block) in &blocks.blocks {
            for (idx, _) in block.iter() {
                prop_assert_eq!(blocks.block_of(idx), *id);
            }
        }
    }

    #[test]
    fn split_is_partition_of_entries(t in coo_strategy(), rate in 0.0f64..1.0, seed in any::<u64>()) {
        let s = split_missing(&t, rate, seed);
        prop_assert_eq!(s.train.nnz() + s.test.nnz(), t.nnz());
        let mut got: Vec<(Vec<usize>, u64)> = s
            .train
            .iter()
            .chain(s.test.iter())
            .map(|(i, v)| (i.to_vec(), v.to_bits()))
            .collect();
        got.sort();
        let mut want: Vec<(Vec<usize>, u64)> =
            t.iter().map(|(i, v)| (i.to_vec(), v.to_bits())).collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn coo_io_round_trips(t in coo_strategy()) {
        let mut buf = Vec::new();
        io::write_coo(&t, &mut buf).unwrap();
        let back = io::read_coo(&buf[..]).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        prop_assert_eq!(back.nnz(), t.nnz());
        for (a, b) in back.iter().zip(t.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert!((a.1 - b.1).abs() < 1e-12 * (1.0 + b.1.abs()));
        }
    }

    #[test]
    fn cholesky_solves_are_accurate(seed in any::<u64>(), n in 1usize..10) {
        let mut a = Mat::random(n + 2, n, seed).gram();
        a.add_diag(0.5);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Mat::random(n, 3, seed ^ 2);
        let x = ch.solve_mat(&b).unwrap();
        let ax = a.matmul(&x).unwrap();
        for (u, v) in ax.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn shifted_inverse_solves_shifted_system(n in 4usize..20, k in 1usize..6, seed in any::<u64>()) {
        // (ηI + αL)·apply(η, α, R) ≈ R when the basis is complete; with a
        // truncated basis the residual must stay bounded by the complement
        // spread.
        let lap = Laplacian::from_similarity(tridiagonal_chain(n));
        let full = lap.truncate_dense(n).unwrap();
        let rhs = Mat::random(n, 2, seed);
        let (eta, alpha) = (1.0, 0.7);
        let out = full.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let mut shifted = lap.to_dense().scaled(alpha);
        shifted.add_diag(eta);
        let back = shifted.matmul(&out).unwrap();
        for (a, b) in back.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - b).abs() < 1e-8);
        }
        // Truncated: still finite and shape-correct.
        let trunc = lap.truncate_dense(k.min(n)).unwrap();
        let approx = trunc.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        prop_assert!(approx.is_finite());
        prop_assert_eq!(approx.shape(), rhs.shape());
    }

    #[test]
    fn kruskal_norm_matches_dense(seed in any::<u64>(), rank in 1usize..4) {
        let model = KruskalTensor::random(&[4, 5, 3], rank, seed);
        let dense = DenseTensor::from_kruskal(&model);
        let a = model.frob_norm_sq();
        let b = dense.frob_norm_sq();
        prop_assert!((a - b).abs() < 1e-8 * (1.0 + b));
    }
}
