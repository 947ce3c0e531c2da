//! Small vector kernels shared by the iterative solvers.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if lengths differ.
#[inline(always)]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// In-place `y += alpha * x`.
#[inline(always)]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x *= alpha`.
#[inline]
pub(crate) fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Normalize `x` to unit Euclidean norm, returning the original norm.
/// Leaves `x` untouched (and returns 0) when its norm underflows.
pub(crate) fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > f64::MIN_POSITIVE {
        scale(1.0 / n, x);
        n
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm2_known_value() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
