//! Softmax cross-entropy with fused backward.

use crate::matrix::Matrix;
use crate::ops::softmax_rows;

/// Compute mean softmax cross-entropy of `logits` against integer `labels`
/// and the gradient w.r.t. the logits.
///
/// Returns `(loss, dlogits)` where `dlogits = (softmax - onehot) / batch`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    let mut grad = Matrix::default();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with the gradient written into `grad`, whose
/// allocation is reused.
pub fn softmax_cross_entropy_into(logits: &Matrix, labels: &[usize], grad: &mut Matrix) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    let batch = logits.rows().max(1) as f32;
    grad.reshape(logits.rows(), logits.cols());
    grad.data_mut().copy_from_slice(logits.data());
    softmax_rows(grad);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label out of range");
        let p = grad.get(r, label).max(1e-12);
        loss -= p.ln();
    }
    loss /= batch;
    // Gradient: softmax minus one-hot, averaged over the batch.
    for (r, &label) in labels.iter().enumerate() {
        let v = grad.get(r, label);
        grad.set(r, label, v - 1.0);
    }
    grad.scale(1.0 / batch);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Matrix::zeros(4, 10);
        let labels = vec![0, 1, 2, 3];
        let (loss, _) = softmax_cross_entropy(&logits, &labels);
        assert!((loss - (10f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 2, 8.0);
        let (loss, grad) = softmax_cross_entropy(&logits, &[2]);
        assert!(loss < 1e-2);
        assert!(grad.get(0, 2) < 0.0); // pushes the true class up
        assert!(grad.get(0, 0) >= 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.1, 0.0, 0.5, -0.2]);
        let labels = vec![2, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..logits.data().len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "grad mismatch at {i}: numeric {num} analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_vec(1, 4, vec![2.0, -1.0, 0.0, 3.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1]);
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }
}
