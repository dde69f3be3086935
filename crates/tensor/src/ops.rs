//! Elementwise and row-wise kernels used by the GNN layers.

use crate::matrix::Matrix;

/// In-place ReLU.
pub fn relu_inplace(x: &mut Matrix) {
    for v in x.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Gradient of ReLU: zero `grad` wherever the forward *output* was zero.
///
/// Using the output rather than the input is valid for ReLU (output > 0 ⟺
/// input > 0) and avoids keeping the pre-activation around.
pub fn relu_backward_inplace(grad: &mut Matrix, output: &Matrix) {
    assert_eq!(grad.rows(), output.rows());
    assert_eq!(grad.cols(), output.cols());
    for (g, &o) in grad.data_mut().iter_mut().zip(output.data().iter()) {
        if o <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Derivative of LeakyReLU w.r.t. its input, evaluated from the input.
pub fn leaky_relu_grad(input: f32, alpha: f32) -> f32 {
    if input >= 0.0 {
        1.0
    } else {
        alpha
    }
}

/// Row-wise softmax, numerically stabilized.
pub fn softmax_rows(x: &mut Matrix) {
    let cols = x.cols();
    for r in 0..x.rows() {
        let row = x.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        } else {
            for v in row.iter_mut() {
                *v = 1.0 / cols as f32;
            }
        }
    }
}

/// Row-wise mean of `x` grouped by `segments`: output row `s` is the mean of
/// all input rows `i` with `segments[i] == s` (the mean-aggregator of
/// GraphSAGE). Rows of empty segments stay zero.
pub fn segment_mean(x: &Matrix, segments: &[usize], num_segments: usize) -> Matrix {
    assert_eq!(x.rows(), segments.len());
    let mut out = Matrix::zeros(num_segments, x.cols());
    let mut counts = vec![0u32; num_segments];
    for (i, &s) in segments.iter().enumerate() {
        assert!(s < num_segments, "segment id out of range");
        counts[s] += 1;
        let row = x.row(i);
        let out_row = out.row_mut(s);
        for (o, &v) in out_row.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
    for (s, &count) in counts.iter().enumerate() {
        if count > 1 {
            let inv = 1.0 / count as f32;
            for v in out.row_mut(s) {
                *v *= inv;
            }
        }
    }
    out
}

/// Backward of [`segment_mean`]: scatter `grad` rows back to the inputs,
/// scaled by 1/|segment|.
pub fn segment_mean_backward(grad: &Matrix, segments: &[usize], input_rows: usize) -> Matrix {
    let mut counts = vec![0u32; grad.rows()];
    for &s in segments {
        counts[s] += 1;
    }
    let mut out = Matrix::zeros(input_rows, grad.cols());
    for (i, &s) in segments.iter().enumerate() {
        let inv = 1.0 / counts[s].max(1) as f32;
        let g = grad.row(s);
        let o = out.row_mut(i);
        for (ov, &gv) in o.iter_mut().zip(g.iter()) {
            *ov += gv * inv;
        }
    }
    out
}

/// Row-wise max of `x` grouped by `segments`; also returns, per output
/// cell, the input row that supplied the max (for the backward pass).
/// Empty segments stay at zero with winner −1.
pub fn segment_max(x: &Matrix, segments: &[usize], num_segments: usize) -> (Matrix, Vec<i64>) {
    assert_eq!(x.rows(), segments.len());
    let cols = x.cols();
    let mut out = Matrix::from_fn(num_segments, cols, |_, _| f32::NEG_INFINITY);
    let mut winners = vec![-1i64; num_segments * cols];
    for (i, &s) in segments.iter().enumerate() {
        assert!(s < num_segments, "segment id out of range");
        let row = x.row(i);
        let out_row = out.row_mut(s);
        for (c, (&v, o)) in row.iter().zip(out_row.iter_mut()).enumerate() {
            if v > *o {
                *o = v;
                winners[s * cols + c] = i as i64;
            }
        }
    }
    // Empty segments: replace −∞ with 0 (no contribution).
    for (idx, v) in out.data_mut().iter_mut().enumerate() {
        if winners[idx] < 0 {
            *v = 0.0;
        }
    }
    (out, winners)
}

/// Backward of [`segment_max`]: route each output cell's gradient to the
/// winning input row.
pub fn segment_max_backward(grad: &Matrix, winners: &[i64], input_rows: usize) -> Matrix {
    let cols = grad.cols();
    assert_eq!(winners.len(), grad.rows() * cols);
    let mut out = Matrix::zeros(input_rows, cols);
    for s in 0..grad.rows() {
        for c in 0..cols {
            let w = winners[s * cols + c];
            if w >= 0 {
                let v = out.get(w as usize, c) + grad.get(s, c);
                out.set(w as usize, c, v);
            }
        }
    }
    out
}

/// Row-wise sum of `x` grouped by `segments`.
pub fn segment_sum(x: &Matrix, segments: &[usize], num_segments: usize) -> Matrix {
    assert_eq!(x.rows(), segments.len());
    let mut out = Matrix::zeros(num_segments, x.cols());
    for (i, &s) in segments.iter().enumerate() {
        assert!(s < num_segments, "segment id out of range");
        let row = x.row(i);
        let out_row = out.row_mut(s);
        for (o, &v) in out_row.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
    out
}

/// Backward of [`segment_sum`]: broadcast each segment's gradient to its
/// member rows.
pub fn segment_sum_backward(grad: &Matrix, segments: &[usize], input_rows: usize) -> Matrix {
    let mut out = Matrix::zeros(input_rows, grad.cols());
    for (i, &s) in segments.iter().enumerate() {
        let g = grad.row(s);
        let o = out.row_mut(i);
        for (ov, &gv) in o.iter_mut().zip(g.iter()) {
            *ov += gv;
        }
    }
    out
}

/// Argmax per row (predicted class).
pub fn argmax_rows(x: &Matrix) -> Vec<usize> {
    (0..x.rows())
        .map(|r| {
            x.row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_backward_masks() {
        let mut x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        relu_inplace(&mut x);
        assert_eq!(x.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        relu_backward_inplace(&mut g, &x);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        softmax_rows(&mut x);
        for r in 0..2 {
            let s: f32 = x.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(x.get(0, 2) > x.get(0, 1));
        assert!((x.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn segment_mean_averages_groups() {
        let x = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let out = segment_mean(&x, &[0, 0, 1, 1], 3);
        assert_eq!(out.row(0), &[2., 3.]);
        assert_eq!(out.row(1), &[6., 7.]);
        assert_eq!(out.row(2), &[0., 0.]); // empty segment
    }

    #[test]
    fn segment_mean_backward_distributes_grad() {
        let g = Matrix::from_vec(2, 1, vec![2.0, 9.0]);
        let back = segment_mean_backward(&g, &[0, 0, 1, 1, 1], 5);
        assert_eq!(back.data(), &[1.0, 1.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn segment_mean_roundtrip_gradcheck() {
        // Finite-difference check of segment_mean's vjp on a tiny case.
        let segments = [0usize, 1, 0];
        let x = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.1, 1.5, 0.7]);
        let upstream = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let analytic = segment_mean_backward(&upstream, &segments, 3);
        let f = |m: &Matrix| {
            let y = segment_mean(m, &segments, 2);
            y.data()
                .iter()
                .zip(upstream.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let eps = 1e-3;
        for i in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (num - analytic.data()[i]).abs() < 1e-2,
                "grad mismatch at {i}: {num} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn segment_max_tracks_winners_and_backward_routes() {
        let x = Matrix::from_vec(3, 2, vec![1., 5., 3., 2., 0., 9.]);
        let (out, winners) = segment_max(&x, &[0, 0, 1], 2);
        assert_eq!(out.row(0), &[3., 5.]);
        assert_eq!(out.row(1), &[0., 9.]);
        assert_eq!(winners, vec![1, 0, 2, 2]);
        let g = Matrix::from_vec(2, 2, vec![10., 20., 30., 40.]);
        let back = segment_max_backward(&g, &winners, 3);
        assert_eq!(back.data(), &[0., 20., 10., 0., 30., 40.]);
    }

    #[test]
    fn segment_max_empty_segment_is_zero() {
        let x = Matrix::from_vec(1, 2, vec![4., -2.]);
        let (out, winners) = segment_max(&x, &[1], 3);
        assert_eq!(out.row(0), &[0., 0.]);
        assert_eq!(out.row(1), &[4., -2.]);
        assert_eq!(out.row(2), &[0., 0.]);
        assert_eq!(winners[0], -1);
    }

    #[test]
    fn segment_sum_and_backward_are_adjoint() {
        let x = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let segs = [0usize, 1, 1];
        let out = segment_sum(&x, &segs, 2);
        assert_eq!(out.row(1), &[8., 10.]);
        let g = Matrix::from_vec(2, 2, vec![1., 1., 2., 2.]);
        let back = segment_sum_backward(&g, &segs, 3);
        assert_eq!(back.data(), &[1., 1., 2., 2., 2., 2.]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let x = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5]);
        assert_eq!(argmax_rows(&x), vec![1, 2]);
    }
}
