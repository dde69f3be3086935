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

// The segment reductions below read their rows through `edges`, an
// iterator of `(input row, segment)` pairs: a GNN block's edge list, so
// aggregation gathers and reduces in one pass and no `edges × dim` copy of
// the gathered rows ever exists. Edges are visited in iteration order, which
// fixes the order of every floating-point sum.

/// Row-wise mean of `x` over `edges` (the mean-aggregator of GraphSAGE):
/// `out` row `s` becomes the mean of the rows `i` with an edge `(i, s)`,
/// `counts[s]` the number of them. Rows of empty segments stay zero.
pub fn segment_mean(
    x: &Matrix,
    edges: impl Iterator<Item = (usize, usize)>,
    num_segments: usize,
    out: &mut Matrix,
    counts: &mut Vec<u32>,
) {
    counts.clear();
    counts.resize(num_segments, 0);
    segment_sum(
        x,
        edges.inspect(|&(_, s)| counts[s] += 1),
        num_segments,
        out,
    );
    for (s, &count) in counts.iter().enumerate() {
        if count > 1 {
            let inv = 1.0 / count as f32;
            for v in out.row_mut(s) {
                *v *= inv;
            }
        }
    }
}

/// Backward of [`segment_mean`]: add each segment's `grad` row, scaled by
/// 1/|segment|, onto the `d_x` row of every edge into it.
pub fn segment_mean_backward(
    grad: &Matrix,
    edges: impl Iterator<Item = (usize, usize)>,
    counts: &[u32],
    d_x: &mut Matrix,
) {
    for (i, s) in edges {
        let inv = 1.0 / counts[s].max(1) as f32;
        for (o, &g) in d_x.row_mut(i).iter_mut().zip(grad.row(s)) {
            *o += g * inv;
        }
    }
}

/// Row-wise max of `x` over `edges`; `winners` records, per output cell,
/// the ordinal of the edge that supplied the max (for the backward pass).
/// Empty segments stay at zero with winner −1.
pub fn segment_max(
    x: &Matrix,
    edges: impl Iterator<Item = (usize, usize)>,
    num_segments: usize,
    out: &mut Matrix,
    winners: &mut Vec<i64>,
) {
    let cols = x.cols();
    out.reset(num_segments, cols);
    out.data_mut().fill(f32::NEG_INFINITY);
    winners.clear();
    winners.resize(num_segments * cols, -1);
    for (e, (i, s)) in edges.enumerate() {
        let won = &mut winners[s * cols..(s + 1) * cols];
        for ((&v, o), w) in x.row(i).iter().zip(out.row_mut(s)).zip(won) {
            if v > *o {
                *o = v;
                *w = e as i64;
            }
        }
    }
    // Empty segments: replace −∞ with 0 (no contribution).
    for (v, &w) in out.data_mut().iter_mut().zip(winners.iter()) {
        if w < 0 {
            *v = 0.0;
        }
    }
}

/// Backward of [`segment_max`]: add each output cell's gradient onto the
/// `d_x` row of the edge that won it.
pub fn segment_max_backward(
    grad: &Matrix,
    edges: impl Iterator<Item = (usize, usize)>,
    winners: &[i64],
    d_x: &mut Matrix,
) {
    let cols = grad.cols();
    assert_eq!(winners.len(), grad.rows() * cols);
    for (e, (i, s)) in edges.enumerate() {
        let won = &winners[s * cols..(s + 1) * cols];
        for ((o, &g), &w) in d_x.row_mut(i).iter_mut().zip(grad.row(s)).zip(won) {
            if w == e as i64 {
                *o += g;
            }
        }
    }
}

/// Row-wise sum of `x` over `edges`.
pub fn segment_sum(
    x: &Matrix,
    edges: impl Iterator<Item = (usize, usize)>,
    num_segments: usize,
    out: &mut Matrix,
) {
    out.reset(num_segments, x.cols());
    for (i, s) in edges {
        assert!(s < num_segments, "segment id out of range");
        for (o, &v) in out.row_mut(s).iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
}

/// Backward of [`segment_sum`]: add each segment's `grad` row onto the
/// `d_x` row of every edge into it.
pub fn segment_sum_backward(
    grad: &Matrix,
    edges: impl Iterator<Item = (usize, usize)>,
    d_x: &mut Matrix,
) {
    for (i, s) in edges {
        for (o, &g) in d_x.row_mut(i).iter_mut().zip(grad.row(s)) {
            *o += g;
        }
    }
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

    /// `(row, segment)` pairs for rows `0..` assigned to `segments` in order.
    fn edges(segments: &[usize]) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        segments.iter().copied().enumerate()
    }

    fn mean(x: &Matrix, segments: &[usize], n: usize) -> (Matrix, Vec<u32>) {
        let (mut out, mut counts) = (Matrix::default(), Vec::new());
        segment_mean(x, edges(segments), n, &mut out, &mut counts);
        (out, counts)
    }

    #[test]
    fn segment_mean_averages_groups() {
        let x = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let (out, counts) = mean(&x, &[0, 0, 1, 1], 3);
        assert_eq!(out.row(0), &[2., 3.]);
        assert_eq!(out.row(1), &[6., 7.]);
        assert_eq!(out.row(2), &[0., 0.]); // empty segment
        assert_eq!(counts, [2, 2, 0]);
    }

    #[test]
    fn segment_reductions_gather_through_the_edge_list() {
        // Edges name their input row: rows repeat, skip and come out of order.
        let x = Matrix::from_vec(3, 1, vec![1., 10., 100.]);
        let pairs = [(2, 0), (0, 1), (2, 1), (2, 1)];
        let (mut out, mut counts) = (Matrix::default(), Vec::new());
        segment_mean(&x, pairs.iter().copied(), 2, &mut out, &mut counts);
        assert_eq!(out.data(), &[100., 67.]);
        let mut d_x = Matrix::zeros(3, 1);
        let grad = Matrix::from_vec(2, 1, vec![5., 9.]);
        segment_mean_backward(&grad, pairs.iter().copied(), &counts, &mut d_x);
        assert_eq!(d_x.data(), &[3., 0., 11.]);
    }

    #[test]
    fn segment_mean_backward_distributes_grad() {
        let g = Matrix::from_vec(2, 1, vec![2.0, 9.0]);
        let mut back = Matrix::zeros(5, 1);
        segment_mean_backward(&g, edges(&[0, 0, 1, 1, 1]), &[2, 3], &mut back);
        assert_eq!(back.data(), &[1.0, 1.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn segment_mean_roundtrip_gradcheck() {
        // Finite-difference check of segment_mean's vjp on a tiny case.
        let segments = [0usize, 1, 0];
        let x = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.1, 1.5, 0.7]);
        let upstream = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut analytic = Matrix::zeros(3, 2);
        segment_mean_backward(&upstream, edges(&segments), &[2, 1], &mut analytic);
        let f = |m: &Matrix| {
            let (y, _) = mean(m, &segments, 2);
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
        let (mut out, mut winners) = (Matrix::default(), Vec::new());
        segment_max(&x, edges(&[0, 0, 1]), 2, &mut out, &mut winners);
        assert_eq!(out.row(0), &[3., 5.]);
        assert_eq!(out.row(1), &[0., 9.]);
        assert_eq!(winners, vec![1, 0, 2, 2]);
        let g = Matrix::from_vec(2, 2, vec![10., 20., 30., 40.]);
        let mut back = Matrix::zeros(3, 2);
        segment_max_backward(&g, edges(&[0, 0, 1]), &winners, &mut back);
        assert_eq!(back.data(), &[0., 20., 10., 0., 30., 40.]);
    }

    #[test]
    fn segment_max_empty_segment_is_zero() {
        let x = Matrix::from_vec(1, 2, vec![4., -2.]);
        let (mut out, mut winners) = (Matrix::default(), vec![7; 9]);
        segment_max(&x, edges(&[1]), 3, &mut out, &mut winners);
        assert_eq!(out.row(0), &[0., 0.]);
        assert_eq!(out.row(1), &[4., -2.]);
        assert_eq!(out.row(2), &[0., 0.]);
        assert_eq!(winners, [-1, -1, 0, 0, -1, -1]);
    }

    #[test]
    fn segment_sum_and_backward_are_adjoint() {
        let x = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let segs = [0usize, 1, 1];
        let mut out = Matrix::default();
        segment_sum(&x, edges(&segs), 2, &mut out);
        assert_eq!(out.row(1), &[8., 10.]);
        let g = Matrix::from_vec(2, 2, vec![1., 1., 2., 2.]);
        let mut back = Matrix::zeros(3, 2);
        segment_sum_backward(&g, edges(&segs), &mut back);
        assert_eq!(back.data(), &[1., 1., 2., 2., 2., 2.]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let x = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5]);
        assert_eq!(argmax_rows(&x), vec![1, 2]);
    }
}
