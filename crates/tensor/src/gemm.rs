//! The one matrix product behind `matmul`, `t_matmul` and `matmul_t`.
//!
//! **Numeric contract.** Every output element is the sum of its `k`
//! products taken in ascending `k`, starting from `+0.0`, each product
//! rounded before it is added (Rust never contracts `a * b + c` into an
//! FMA). That is what the three textbook loops this replaces computed, so
//! for finite inputs the results are bit-identical to them, on every
//! machine: blocking changes which element is worked on when, never the
//! order inside one element's sum. (The old loops skipped `a == 0.0`; for
//! finite `b` that adds `±0.0` to a sum that is never `-0.0`, a no-op.)
//!
//! **Shape.** Operands are addressed through strides, so a transpose is a
//! pair of swapped strides and costs nothing once packed: a block of A is
//! copied into `MR`-row panels and a block of B into `NR`-column panels,
//! both contiguous along `k`, and an `MR×NR` micro-kernel with its
//! accumulators in registers runs over every panel pair. Edge tiles run
//! the same kernel on zero-padded panels and store only the valid part.

use crate::matrix::{MatRef, Matrix};

/// Micro-kernel tile: `MR` rows of A by `NR` columns of B.
const MR: usize = 4;
const NR: usize = 8;
/// Rows of A and columns of B packed at a time (multiples of `MR`/`NR`):
/// the packing scratch is `k·(MC + NC)` floats whatever the product's size.
const MC: usize = 64;
const NC: usize = 256;

/// One operand addressed by strides: element `(line, kk)` — a row of A or
/// a column of B at depth `kk` — is `data[line * line_stride + kk * k_stride]`.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    line_stride: usize,
    k_stride: usize,
}

/// Packing scratch for the products. Reuse one across calls and a product
/// allocates nothing once the panels have grown to the largest `k` seen.
#[derive(Debug, Default)]
pub struct Gemm {
    a_panels: Vec<f32>,
    b_panels: Vec<f32>,
}

impl Gemm {
    /// `out = a @ b`.
    pub fn matmul<'a>(
        &mut self,
        a: impl Into<MatRef<'a>>,
        b: impl Into<MatRef<'a>>,
        out: &mut Matrix,
    ) {
        let (a, b) = (a.into(), b.into());
        assert_eq!(a.cols, b.rows, "matmul shape mismatch");
        out.reshape(a.rows, b.cols);
        let (a, k) = (rows_of(a), a.cols);
        self.gemm(k, a, columns_of(b), out);
    }

    /// `out = aᵀ @ b` without materializing the transpose.
    pub fn t_matmul<'a>(
        &mut self,
        a: impl Into<MatRef<'a>>,
        b: impl Into<MatRef<'a>>,
        out: &mut Matrix,
    ) {
        let (a, b) = (a.into(), b.into());
        assert_eq!(a.rows, b.rows, "t_matmul shape mismatch");
        out.reshape(a.cols, b.cols);
        let (a, k) = (columns_of(a), a.rows);
        self.gemm(k, a, columns_of(b), out);
    }

    /// `out = a @ bᵀ` without materializing the transpose.
    pub fn matmul_t<'a>(
        &mut self,
        a: impl Into<MatRef<'a>>,
        b: impl Into<MatRef<'a>>,
        out: &mut Matrix,
    ) {
        let (a, b) = (a.into(), b.into());
        assert_eq!(a.cols, b.cols, "matmul_t shape mismatch");
        out.reshape(a.rows, b.rows);
        let (a, k) = (rows_of(a), a.cols);
        self.gemm(k, a, rows_of(b), out);
    }

    /// `c[i][j] = Σ_kk a(i, kk) · b(j, kk)`, overwriting the `m×n` matrix `c`.
    fn gemm(&mut self, k: usize, a: Strided, b: Strided, c: &mut Matrix) {
        let (m, n) = (c.rows(), c.cols());
        if m == 0 || n == 0 {
            return;
        }
        // A thin product (every single-seed serving forward) is not worth
        // packing B for: it keeps the row-times-matrix loop, which with no
        // `k` at all just zeroes `c`.
        if k == 0 || (m < 2 * MR && b.line_stride == 1) {
            for (i, c_row) in c.data_mut().chunks_exact_mut(n).enumerate() {
                c_row.fill(0.0);
                for kk in 0..k {
                    let a_ik = a.data[i * a.line_stride + kk * a.k_stride];
                    if a_ik == 0.0 {
                        continue;
                    }
                    let b_row = &b.data[kk * b.k_stride..][..n];
                    for (o, &b_kj) in c_row.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
            }
            return;
        }
        let c = c.data_mut();
        for jc in (0..n).step_by(NC) {
            pack::<NR>(&mut self.b_panels, b, jc, n.min(jc + NC), k);
            for ic in (0..m).step_by(MC) {
                pack::<MR>(&mut self.a_panels, a, ic, m.min(ic + MC), k);
                for (q, b_panel) in self.b_panels.chunks_exact(k * NR).enumerate() {
                    let j = jc + q * NR;
                    let cols = NR.min(n - j);
                    for (p, a_panel) in self.a_panels.chunks_exact(k * MR).enumerate() {
                        let i = ic + p * MR;
                        let tile = kernel(a_panel, b_panel);
                        for (r, tile_row) in tile.iter().enumerate().take(m - i) {
                            c[(i + r) * n + j..][..cols].copy_from_slice(&tile_row[..cols]);
                        }
                    }
                }
            }
        }
    }
}

fn rows_of(m: MatRef) -> Strided {
    Strided {
        data: m.data,
        line_stride: m.cols,
        k_stride: 1,
    }
}

fn columns_of(m: MatRef) -> Strided {
    Strided {
        data: m.data,
        line_stride: 1,
        k_stride: m.cols,
    }
}

/// Copy lines `first..end` of `src` into `W`-line panels: panel `p` holds,
/// for each `kk` in turn, its `W` lines' elements side by side. Lines past
/// `end` in the last panel are zero.
fn pack<const W: usize>(dst: &mut Vec<f32>, src: Strided, first: usize, end: usize, k: usize) {
    dst.resize((end - first).div_ceil(W) * k * W, 0.0);
    for (p, panel) in dst.chunks_exact_mut(k * W).enumerate() {
        let line0 = first + p * W;
        let lines = W.min(end - line0);
        if lines < W {
            panel.fill(0.0);
        }
        if src.line_stride == 1 {
            for (kk, group) in panel.chunks_exact_mut(W).enumerate() {
                group[..lines].copy_from_slice(&src.data[line0 + kk * src.k_stride..][..lines]);
            }
        } else {
            for l in 0..lines {
                let line = &src.data[(line0 + l) * src.line_stride..];
                for (kk, group) in panel.chunks_exact_mut(W).enumerate() {
                    group[l] = line[kk * src.k_stride];
                }
            }
        }
    }
}

/// `MR×NR` tile of products of one A panel with one B panel, accumulated
/// in ascending `k`. The fixed-size arrays keep the 32 sums in registers.
fn kernel(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    let (a_groups, _) = a_panel.as_chunks::<MR>();
    let (b_groups, _) = b_panel.as_chunks::<NR>();
    for (a, b) in a_groups.iter().zip(b_groups) {
        for (acc_row, &a_i) in acc.iter_mut().zip(a) {
            for (sum, &b_j) in acc_row.iter_mut().zip(b) {
                *sum += a_i * b_j;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_sync::rng::{cases, Rng};

    // The three loops the packed product replaced, kept verbatim as the
    // bit-for-bit reference.

    fn matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    fn t_matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for k in 0..a.rows() {
            let a_row = a.row(k);
            let b_row = b.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    fn matmul_t_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            for j in 0..b.rows() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Shapes on both sides of every tile, block and thin-path boundary.
    #[cfg(not(miri))]
    const SIZES: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 160];
    #[cfg(miri)]
    const SIZES: &[usize] = &[0, 1, 5, 9];

    /// Mostly ordinary values, salted with the ones a kernel can get
    /// wrong: both zeros (the old zero-skip) and subnormals.
    fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.below(12) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1 + rng.below(1 << 20) as u32),
            3 => -f32::MIN_POSITIVE / 4.0,
            _ => rng.f32(-2.0..2.0),
        })
    }

    fn assert_same_bits(what: &str, got: &Matrix, want: &Matrix) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn products_are_bit_identical_to_the_reference_loops() {
        let cases_n = if cfg!(miri) { 6 } else { 300 };
        cases(cases_n, |rng| {
            let mut dim = || SIZES[rng.below(SIZES.len())];
            let (m, k, n) = (dim(), dim(), dim());
            let what = format!("{m}x{k}x{n}");
            let (a, b) = (random_matrix(rng, m, k), random_matrix(rng, k, n));
            assert_same_bits(&what, &a.matmul(&b), &matmul_oracle(&a, &b));
            let a_t = random_matrix(rng, k, m);
            assert_same_bits(&what, &a_t.t_matmul(&b), &t_matmul_oracle(&a_t, &b));
            let b_t = random_matrix(rng, n, k);
            assert_same_bits(&what, &a.matmul_t(&b_t), &matmul_t_oracle(&a, &b_t));
        });
    }

    #[test]
    fn blocks_wider_than_one_panel_set_are_stitched_correctly() {
        // m > MC and n > NC: more than one packed block on both axes.
        let mut rng = Rng::seed_from_u64(3);
        let (m, k, n) = if cfg!(miri) {
            (9, 3, 17)
        } else {
            (MC + 5, 6, NC + 9)
        };
        let (a, b) = (random_matrix(&mut rng, m, k), random_matrix(&mut rng, k, n));
        assert_same_bits("blocked", &a.matmul(&b), &matmul_oracle(&a, &b));
    }

    #[test]
    fn a_reused_gemm_and_output_forget_the_previous_product() {
        let mut rng = Rng::seed_from_u64(4);
        let (mut gemm, mut out) = (Gemm::default(), Matrix::default());
        for (m, k, n) in [(17, 9, 33), (3, 5, 4), (9, 0, 8), (9, 2, 8), (16, 16, 1)] {
            let (a, b) = (random_matrix(&mut rng, m, k), random_matrix(&mut rng, k, n));
            gemm.matmul(&a, &b, &mut out);
            assert_same_bits("reused", &out, &matmul_oracle(&a, &b));
            gemm.matmul(a.top_rows(m / 2), &b, &mut out);
            let top = Matrix::from_fn(m / 2, k, |r, c| a.get(r, c));
            assert_same_bits("prefix", &out, &matmul_oracle(&top, &b));
        }
    }
}
