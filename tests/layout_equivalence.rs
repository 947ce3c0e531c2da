//! Layout equivalence: storage selection never changes the answer.
//!
//! `AdmmConfig::layout` (CLI `--layout`) picks the residual storage behind [`distenc::tensor::TensorLayout`]. The
//! contract, pinned here at both `DISTENC_THREADS` settings `ci.sh`
//! runs this file under:
//!
//! * **coo ↔ tiled is bit-for-bit.** The tiled layout only reorders the
//!   entry walk *between* output rows (tiles are row-aligned and the
//!   counting sort is stable), so every per-row accumulation chain — and
//!   therefore every factor, RMSE, and trace value — is the sequential
//!   COO fold replayed exactly. This holds for the exact tier, the
//!   sketched tier (sampling gathers from the untouched canonical entry
//!   list), and streaming warm re-solves.
//! * **csf matches to rounding.** CSF tree walks genuinely reassociate
//!   the folds, so the pre-existing ~1e-9 tolerance applies, not bit
//!   equality.
//! * **Unknown layout names are typed errors**, never silent fallbacks,
//!   from `LayoutKind::parse` (the `--layout` path).

use distenc::core::{AdmmConfig, AdmmSolver, CompletionResult, LayoutKind, SolverTier};
use distenc::stream::{DeltaBatch, StreamingSolver};
use distenc::tensor::{CooTensor, TensorError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0x7a71)
}

fn solve(observed: &CooTensor, cfg: AdmmConfig) -> CompletionResult {
    let laps = vec![None; observed.order()];
    AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap()
}

/// Every observable except wall-clock seconds, bitwise.
fn assert_bit_identical(a: &CompletionResult, b: &CompletionResult, label: &str) {
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.converged, b.converged, "{label}: converged flag");
    for (n, (fa, fb)) in a.model.factors().iter().zip(b.model.factors()).enumerate() {
        let same = fa
            .as_slice()
            .iter()
            .zip(fb.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{label}: factor {n} bits differ");
    }
    for (p, q) in a.trace.points.iter().zip(&b.trace.points) {
        assert_eq!(
            p.train_rmse.to_bits(),
            q.train_rmse.to_bits(),
            "{label}: train RMSE bits at iter {}",
            p.iter
        );
        assert_eq!(
            p.factor_delta.to_bits(),
            q.factor_delta.to_bits(),
            "{label}: factor delta bits at iter {}",
            p.iter
        );
    }
}

#[test]
fn tiled_layout_matches_coo_bit_for_bit() {
    // Ranks cover both specialized kernels (8, 16), the generic fallback
    // (17), and the rank-1 edge; shapes cover orders 3 and 4; both the
    // fused and unfused schedules run through the tiled kernels.
    let cases: &[(&[usize], usize)] = &[
        (&[13, 11, 9], 1),
        (&[13, 11, 9], 3),
        (&[13, 11, 9], 8),
        (&[13, 11, 9], 16),
        (&[13, 11, 9], 17),
        (&[7, 6, 5, 4], 3),
        (&[7, 6, 5, 4], 8),
    ];
    for &(shape, rank) in cases {
        let observed = planted(shape, rank, 60 * shape.len(), rank as u64 + 41);
        for fused in [true, false] {
            let base = AdmmConfig { rank, max_iters: 6, tol: 1e-12, fused, ..Default::default() };
            let coo = solve(&observed, base.clone().with_layout(LayoutKind::Coo));
            let tiled = solve(&observed, base.with_layout(LayoutKind::Tiled));
            let label = format!("shape {shape:?} rank {rank} fused {fused}");
            assert_bit_identical(&coo, &tiled, &label);
        }
    }
}

#[test]
fn csf_layout_matches_coo_to_rounding() {
    // CSF fiber walks reassociate the per-row folds; the established
    // contract (see the solver crate's own csf-vs-coo test) is agreement
    // to ~1e-9, not bit equality.
    let observed = planted(&[14, 12, 10], 3, 700, 19);
    let cfg = AdmmConfig { rank: 3, max_iters: 8, tol: 1e-12, ..Default::default() };
    let coo = solve(&observed, cfg.clone().with_layout(LayoutKind::Coo));
    let csf = solve(&observed, cfg.with_layout(LayoutKind::Csf));
    assert_eq!(coo.iterations, csf.iterations);
    for (n, (fa, fb)) in coo.model.factors().iter().zip(csf.model.factors()).enumerate() {
        let dist: f64 = fa
            .as_slice()
            .iter()
            .zip(fb.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(dist < 1e-9, "mode {n} factor distance {dist}");
    }
}

#[test]
fn sketched_tier_on_tiled_matches_sketched_on_coo_bitwise() {
    // The sampler draws from the canonical entry list, which the tiled
    // layout carries untouched (the tile permutation is a separate
    // structure), so even the *approximate* tier is layout-invariant to
    // the bit — sketch phase, phase-boundary exact refresh, and polish.
    let observed = planted(&[12, 10, 8], 3, 600, 53);
    let tier = SolverTier::Sketched { samples: observed.nnz() / 3, polish_iters: 2 };
    let cfg = AdmmConfig {
        rank: 3,
        max_iters: 7,
        tol: 1e-12,
        solver_tier: tier,
        ..Default::default()
    };
    let coo = solve(&observed, cfg.clone().with_layout(LayoutKind::Coo));
    let tiled = solve(&observed, cfg.with_layout(LayoutKind::Tiled));
    assert_bit_identical(&coo, &tiled, "sketched tier");
}

#[test]
fn streaming_warm_resolve_on_tiled_is_bit_exact() {
    // A warm re-solve after a delta must land bit-exactly where
    // `solve_from` lands on the final tensor, with the tiled layout doing
    // the residual work on both sides (the handoff carries the canonical
    // residual; tile structure is rebuilt against the new support).
    let observed = planted(&[10, 9, 8], 2, 250, 67);
    let cfg = AdmmConfig { rank: 2, max_iters: 6, tol: 1e-12, ..Default::default() }
        .with_layout(LayoutKind::Tiled);
    let mut s =
        StreamingSolver::new(observed.clone(), vec![None, None, None], cfg.clone()).unwrap();
    s.solve().unwrap();

    // One batch with inserts and an update, then the warm re-solve.
    let mut rng = StdRng::seed_from_u64(0x11ed);
    let mut inserts = Vec::new();
    for _ in 0..6 {
        let idx: Vec<usize> =
            [10usize, 9, 8].iter().map(|&d| rng.random_range(0..d)).collect();
        if observed.position_of(&idx).is_none() && inserts.iter().all(|(i, _)| *i != idx) {
            let v = rng.random_range(-1.0..1.0);
            inserts.push((idx, v));
        }
    }
    let upd_idx = observed.index(0).to_vec();
    let batch =
        DeltaBatch::try_new(&[10, 9, 8], &[0, 0, 0], inserts, vec![(upd_idx, 0.25)]).unwrap();
    s.apply(&batch).unwrap();

    let init = s.model().unwrap().clone();
    let final_tensor = s.observed().clone();
    let warm = s.solve().unwrap();
    let oracle = AdmmSolver::new(cfg)
        .unwrap()
        .solve_from(&final_tensor, &[None, None, None], &init)
        .unwrap();
    assert_bit_identical(&warm, &oracle, "tiled warm re-solve");
}

#[test]
fn unknown_layout_name_is_a_typed_parse_error() {
    // The `--layout` path: parse failures name the offender and never
    // fall back to a default layout.
    for bad in ["blocked", "coo,csf", "z-order", ""] {
        match LayoutKind::parse(bad) {
            Err(TensorError::InvalidLayout(name)) => {
                assert_eq!(name, bad, "error must carry the rejected name")
            }
            other => panic!("{bad:?} must be InvalidLayout, got {other:?}"),
        }
    }
    // Parsing is trim+case-insensitive on the accept side only.
    assert_eq!(LayoutKind::parse(" Tiled\n").unwrap(), LayoutKind::Tiled);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any planted tensor, any rank/schedule in the strategy: the tiled
    /// solve is bit-identical to COO — factors, RMSE trace, and delta
    /// trace alike.
    #[test]
    fn tiled_solve_is_bitwise_coo_on_random_tensors(
        seed in 0u64..1000,
        rank in 1usize..6,
        fused_bit in 0u8..2,
    ) {
        let observed = planted(&[9, 8, 7], rank, 220, seed.wrapping_mul(13).wrapping_add(3));
        let cfg = AdmmConfig {
            rank,
            max_iters: 5,
            tol: 1e-12,
            fused: fused_bit == 1,
            ..Default::default()
        };
        let coo = solve(&observed, cfg.clone().with_layout(LayoutKind::Coo));
        let tiled = solve(&observed, cfg.with_layout(LayoutKind::Tiled));
        prop_assert_eq!(coo.iterations, tiled.iterations);
        for (fa, fb) in coo.model.factors().iter().zip(tiled.model.factors()) {
            for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (p, q) in coo.trace.points.iter().zip(&tiled.trace.points) {
            prop_assert_eq!(p.train_rmse.to_bits(), q.train_rmse.to_bits());
            prop_assert_eq!(p.factor_delta.to_bits(), q.factor_delta.to_bits());
        }
    }
}
