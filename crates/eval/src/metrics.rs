//! Evaluation metrics, defined exactly as in the paper.

use distenc_core::Result;
use distenc_tensor::{CooTensor, KruskalTensor};

/// Relative Error (§IV-D): `‖X − Y‖_F / ‖Y‖_F` where `X` is the recovered
/// tensor and `Y` the ground truth, evaluated over the held-out entries.
pub fn relative_error(model: &KruskalTensor, test: &CooTensor) -> Result<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for (idx, truth) in test.iter() {
        let pred = model.eval(idx);
        num += (pred - truth) * (pred - truth);
        den += truth * truth;
    }
    if den == 0.0 {
        return Ok(if num == 0.0 { 0.0 } else { f64::INFINITY });
    }
    Ok((num / den).sqrt())
}

/// RMSE (§IV-E): `√(‖Ω∗(T − X)‖²_F / nnz(T))` over the held-out entries.
pub fn rmse(model: &KruskalTensor, test: &CooTensor) -> Result<f64> {
    Ok(distenc_tensor::residual::observed_rmse(test, model)?)
}

/// RMSE of a model fit on *centered* data: predictions are
/// `model.eval(idx) + offset`. The application experiments subtract the
/// training mean before solving (standard recommender practice — it
/// removes the rank-one "global mean" component every method would
/// otherwise spend iterations fitting) and score with the offset added
/// back.
pub(crate) fn rmse_with_offset(
    model: &KruskalTensor,
    test: &CooTensor,
    offset: f64,
) -> Result<f64> {
    if test.nnz() == 0 {
        return Ok(0.0);
    }
    let mut acc = 0.0;
    for (idx, truth) in test.iter() {
        let p = model.eval(idx) + offset;
        acc += (p - truth) * (p - truth);
    }
    Ok((acc / test.nnz() as f64).sqrt())
}

/// Relative improvement of `new` over `baseline` in percent — the "+x%"
/// numbers the paper reports (positive = `new` is better/lower).
pub fn improvement_pct(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (baseline - new) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_zero_for_exact_model() {
        let model = KruskalTensor::random(&[5, 5], 2, 1);
        let mut mask = CooTensor::try_new(vec![5, 5]).unwrap();
        mask.push(&[0, 0], 1.0).unwrap();
        mask.push(&[3, 4], 1.0).unwrap();
        let test = model.eval_at(&mask).unwrap();
        assert!(relative_error(&model, &test).unwrap() < 1e-12);
    }

    #[test]
    fn relative_error_known_value() {
        // Truth = [3, 4] (norm 5); prediction differs by [3, 4] exactly if
        // model is all-zero → relative error 1.
        let model = KruskalTensor::new(vec![
            distenc_linalg::Mat::zeros(2, 1),
            distenc_linalg::Mat::zeros(2, 1),
        ])
        .unwrap();
        let test =
            CooTensor::from_entries(vec![2, 2], &[(&[0, 0], 3.0), (&[1, 1], 4.0)]).unwrap();
        assert!((relative_error(&model, &test).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_error_empty_truth() {
        let model = KruskalTensor::random(&[3, 3], 1, 2);
        let test = CooTensor::try_new(vec![3, 3]).unwrap();
        assert_eq!(relative_error(&model, &test).unwrap(), 0.0);
    }

    #[test]
    fn rmse_matches_manual() {
        let model = KruskalTensor::new(vec![
            distenc_linalg::Mat::zeros(2, 1),
            distenc_linalg::Mat::zeros(2, 1),
        ])
        .unwrap();
        let test =
            CooTensor::from_entries(vec![2, 2], &[(&[0, 0], 3.0), (&[1, 1], 4.0)]).unwrap();
        // √((9+16)/2).
        assert!((rmse(&model, &test).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn improvement_pct_signs() {
        assert!((improvement_pct(1.0, 0.8) - 20.0).abs() < 1e-12);
        assert!(improvement_pct(1.0, 1.2) < 0.0);
        assert_eq!(improvement_pct(0.0, 1.0), 0.0);
    }
}
