//! One source body, compiled for the CPU that runs it.
//!
//! The shipped build targets baseline x86-64, whose vector registers are
//! 128 bits wide; most hosts it runs on have 256-bit AVX2 lanes. [`widest`]
//! runs a hot body inside a function compiled with `avx2` enabled when the
//! CPU reports it, and calls the body directly otherwise — and on every
//! non-x86 target. The body must be `#[inline(always)]` all the way down,
//! so that it is code-generated *inside* the wide function; a call that is
//! not inlined runs baseline code from there (correct, and no faster).
//!
//! The choice cannot change a bit of any result: rustc neither
//! reassociates nor contracts IEEE operations, and `fma` is **not**
//! enabled, so the wide instantiation performs the same lane-wise
//! multiplies and adds as the baseline one, two lanes more per
//! instruction. Nothing selects the path but the CPU: no environment
//! variable, flag or feature, and the binary still starts on any x86-64.

/// The instruction set [`widest`] runs its bodies on: `"avx2"` or
/// `"baseline"`.
pub fn name() -> &'static str {
    if wide_lanes() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Whether this CPU has the wide instantiation's instructions (the
/// standard library caches the probe: one relaxed atomic load per call).
#[inline(always)]
fn wide_lanes() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    return false;
}

/// Run `body` — an `#[inline(always)]` closure over `#[inline(always)]`
/// kernels — on the widest vector lanes this CPU has, and return its
/// value.
#[inline(always)]
pub fn widest<T>(body: impl FnOnce() -> T) -> T {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        #[target_feature(enable = "avx2")]
        fn wide<T>(body: impl FnOnce() -> T) -> T {
            body()
        }
        if wide_lanes() {
            // SAFETY: `wide` is an ordinary safe function whose one
            // requirement is that the CPU executing it supports `avx2`,
            // which `is_x86_feature_detected!` has just reported.
            return unsafe { wide(body) };
        }
    }
    body()
}

/// Rows shorter than this many doubles stay on baseline code in
/// [`widest_rows`]: an autovectorized loop over a row of run-time length
/// reaches its 256-bit main loop (four lanes, interleaved four times) only
/// from 16 elements, and below that runs its remainder loops — measured
/// 8–25 % *behind* the 128-bit instantiation at widths 4–14, 5–20 % ahead
/// at 16 and 20.
const MIN_WIDE_ROW: usize = 16;

/// [`widest`] for a body whose inner loops walk rows of `width` doubles
/// as slices (the explicit lane arrays of the entry sweep need no such
/// test): narrow rows run the body as is.
#[inline(always)]
pub fn widest_rows<T>(width: usize, body: impl FnOnce() -> T) -> T {
    if width >= MIN_WIDE_ROW {
        widest(body)
    } else {
        body()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanczos::{reorthogonalize, reorthogonalize_body};
    use crate::tridiag::{tqli, tqli_body};
    use crate::Mat;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Each dense kernel this crate routes through [`widest`] leaves
        /// the same bits as its bare body called from this (baseline)
        /// function, at widths that are, straddle and miss the lane count.
        #[test]
        fn wide_dense_kernels_are_bitwise_their_baseline_bodies(
            seed in 0u64..10_000,
            rank_ix in 0usize..6,
            rows in 1usize..40,
        ) {
            let r = [1usize, 3, 8, 16, 17, 20][rank_ix];
            let (a, f) = (Mat::random(rows, r, seed), Mat::random(r, r + 1, seed ^ 1));
            let (mut wide, mut base) = (Mat::random(rows, r + 1, 2), Mat::zeros(rows, r + 1));
            a.matmul_into(&f, &mut wide).unwrap();
            a.matmul_body(&f, &mut base);
            proptest::prop_assert_eq!(bits(wide.as_slice()), bits(base.as_slice()));

            // A symmetric tridiagonal problem of size `r`, rotating an
            // accumulator `rows` wide.
            let d = Mat::random(1, r, seed ^ 2);
            let e = Mat::random(1, r, seed ^ 3);
            let z = Mat::random(r, rows, seed ^ 4);
            let (mut dw, mut ew, mut zw) = (d.as_slice().to_vec(), e.as_slice().to_vec(), z.clone());
            let (mut db, mut eb, mut zb) = (dw.clone(), ew.clone(), z);
            tqli(&mut dw, &mut ew, &mut zw).unwrap();
            tqli_body(&mut db, &mut eb, &mut zb).unwrap();
            proptest::prop_assert_eq!(bits(&dw), bits(&db));
            proptest::prop_assert_eq!(bits(zw.as_slice()), bits(zb.as_slice()));

            let basis: Vec<Vec<f64>> =
                (0..rows).map(|i| Mat::random(1, r, seed + i as u64).as_slice().to_vec()).collect();
            let (mut ww, mut wb) = (dw.clone(), dw);
            reorthogonalize(&basis, &mut ww);
            reorthogonalize_body(&basis, &mut wb);
            proptest::prop_assert_eq!(bits(&ww), bits(&wb));
        }
    }

    #[test]
    fn name_follows_detection_and_both_arms_return_the_body_value() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let detected = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let detected = false;
        assert_eq!(name() == "avx2", detected);
        assert_eq!(name() == "baseline", !detected);
        // Whichever arm this CPU takes, and the bare body beside it.
        let xs = [1.5f64, -2.0, 0.25, 8.0, 3.0];
        let body = |k: f64| xs.iter().map(|x| x * k).sum::<f64>();
        assert_eq!(widest(|| body(3.0)).to_bits(), body(3.0).to_bits());
        assert_eq!(widest(|| "moved out"), "moved out");
    }
}
