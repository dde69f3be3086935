//! Row-major `f32` matrix with the kernels GNN layers need.

use crate::gemm::Gemm;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A borrowed row-major matrix: a whole [`Matrix`] or a prefix of its rows.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: &'a [f32],
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.top_rows(m.rows)
    }
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Unwrap the row-major buffer (to reuse its allocation).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reset every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Become `rows × cols`, reusing the allocation: a buffer reshaped every
    /// step grows to its high-water mark and stays. Elements keep whatever
    /// the buffer held (zeros where it grew) — for a matrix about to be
    /// overwritten in full; [`Matrix::reset`] when it is accumulated into.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        (self.rows, self.cols) = (rows, cols);
        self.data.resize(rows * cols, 0.0);
    }

    /// Become an all-zero `rows × cols` matrix, reusing the allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.reshape(rows, cols);
        self.fill_zero();
    }

    /// Truncate or zero-extend to `rows` rows, reusing the allocation.
    pub fn set_rows(&mut self, rows: usize) {
        self.rows = rows;
        self.data.resize(rows * self.cols, 0.0);
    }

    /// The first `n` rows, borrowed (they are contiguous in row-major order).
    pub fn top_rows(&self, n: usize) -> MatRef<'_> {
        MatRef {
            rows: n,
            cols: self.cols,
            data: &self.data[..n * self.cols],
        }
    }

    /// `self @ other`. Allocates the result and the packing scratch; code
    /// on a hot path holds a [`Gemm`] and an output buffer instead.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        Gemm::default().matmul(self, other, &mut out);
        out
    }

    /// `selfᵀ @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        Gemm::default().t_matmul(self, other, &mut out);
        out
    }

    /// `self @ otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        Gemm::default().matmul_t(self, other, &mut out);
        out
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Column-sum into `out` as a 1 × cols matrix (bias-gradient reduction).
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
    }

    /// Serialize as little-endian bytes: rows, cols (u64 each), then data.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.data.len() * 4);
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.cols as u64).to_le_bytes());
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parse the [`Matrix::to_bytes`] format; returns the matrix and the
    /// bytes consumed, or `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<(Matrix, usize)> {
        if bytes.len() < 16 {
            return None;
        }
        let rows = u64::from_le_bytes(bytes[0..8].try_into().ok()?) as usize;
        let cols = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
        let n = rows.checked_mul(cols)?;
        let need = 16 + n.checked_mul(4)?;
        if bytes.len() < need {
            return None;
        }
        let data = bytes[16..need]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some((Matrix { rows, cols, data }, need))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_matmuls_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        // aᵀ (2x3) @ b (3x4)
        let at = Matrix::from_fn(2, 3, |r, c| a.get(c, r));
        assert_eq!(a.t_matmul(&b), at.matmul(&b));

        let c = m(5, 4, &(0..20).map(|x| x as f32 * 0.5).collect::<Vec<_>>());
        // b (3x4) @ cᵀ (4x5)
        let ct = Matrix::from_fn(4, 5, |r, cc| c.get(cc, r));
        assert_eq!(b.matmul_t(&c), b.matmul(&ct));
    }

    #[test]
    fn bias_and_sum_rows_are_inverse_shapes() {
        let mut x = m(2, 3, &[1., 1., 1., 2., 2., 2.]);
        let bias = m(1, 3, &[10., 20., 30.]);
        crate::ops::bias_act(&mut x, &bias, false);
        assert_eq!(x.data(), &[11., 21., 31., 12., 22., 32.]);
        let mut s = m(2, 1, &[9., 9.]);
        x.sum_rows_into(&mut s);
        assert_eq!((s.rows(), s.data()), (1, &[23., 43., 63.][..]));
    }

    #[test]
    fn reset_reshapes_zeroes_and_keeps_the_allocation() {
        let mut x = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let buffer = x.data().as_ptr();
        x.reset(3, 1);
        assert_eq!((x.rows(), x.cols(), x.data()), (3, 1, &[0.; 3][..]));
        x.reset(1, 6);
        assert_eq!(
            x.data().as_ptr(),
            buffer,
            "shrinking then regrowing reuses it"
        );
        x.set(0, 5, 7.);
        x.reset(2, 3);
        assert_eq!(x.data(), &[0.; 6]);
        x.set(1, 2, 7.);
        x.set_rows(1);
        x.set_rows(2);
        assert_eq!(x.data(), &[0.; 6], "a dropped row comes back as zeros");
    }

    #[test]
    fn byte_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1.5, -2.0, 0.0, 3.25, 4.0, -0.5]);
        let bytes = m.to_bytes();
        let (back, used) = Matrix::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(used, bytes.len());
        assert!(Matrix::from_bytes(&bytes[..10]).is_none());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
