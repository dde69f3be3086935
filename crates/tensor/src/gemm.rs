//! The one matrix product behind `matmul`, `t_matmul`, `matmul_t` and the
//! accumulating `matmul_add` and `t_matmul_add`.
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
//! the same kernel on zero-padded panels and store only the valid part. An
//! accumulating product adds each finished sum to its element at the store.
//!
//! **Instruction sets.** The body is one `#[inline(always)]` generic over
//! the tile, compiled into a `#[target_feature]` entry point per vector
//! instruction set with the tile measured fastest there: portable (SSE2 on
//! x86-64) 4×8, AVX2 4×16, AVX-512 4×32. Each product takes the widest the
//! CPU has, detected at run time. The contract above holds in every copy:
//! a wider tile computes more sums side by side, each still in ascending
//! `k`, and no copy enables contraction, so the bits never depend on the
//! CPU.

use crate::isa::Isa;
use crate::matrix::{MatRef, Matrix};

/// Rows of A and columns of B packed at a time (multiples of every tile's
/// `MR`/`NR`): the packing scratch is `k·(MC + NC)` floats whatever the
/// product's size.
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
    /// The thin path's row of sums.
    row: Vec<f32>,
    /// Run every product on this ISA instead of the detected one.
    #[cfg(test)]
    pinned: Option<Isa>,
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
        self.gemm(a.cols, rows_of(a), columns_of(b), out, false);
    }

    /// `out += a @ b` into an `out` already of that shape: each sum is built
    /// as [`Gemm::matmul`] builds it and added once, at the store — the bits
    /// of `matmul` into a temporary then [`Matrix::add_assign`].
    pub fn matmul_add<'a>(
        &mut self,
        a: impl Into<MatRef<'a>>,
        b: impl Into<MatRef<'a>>,
        out: &mut Matrix,
    ) {
        let (a, b) = (a.into(), b.into());
        assert_eq!(a.cols, b.rows, "matmul shape mismatch");
        assert_eq!(out.shape(), (a.rows, b.cols), "output shape mismatch");
        self.gemm(a.cols, rows_of(a), columns_of(b), out, true);
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
        self.gemm(a.rows, columns_of(a), columns_of(b), out, false);
    }

    /// `out += aᵀ @ b`, added at the store as [`Gemm::matmul_add`] adds.
    pub fn t_matmul_add<'a>(
        &mut self,
        a: impl Into<MatRef<'a>>,
        b: impl Into<MatRef<'a>>,
        out: &mut Matrix,
    ) {
        let (a, b) = (a.into(), b.into());
        assert_eq!(a.rows, b.rows, "t_matmul shape mismatch");
        assert_eq!(out.shape(), (a.cols, b.cols), "output shape mismatch");
        self.gemm(a.rows, columns_of(a), columns_of(b), out, true);
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
        self.gemm(a.cols, rows_of(a), rows_of(b), out, false);
    }

    /// `c[i][j] = Σ_kk a(i, kk) · b(j, kk)`, or `+=` if `add`, on the
    /// widest ISA this CPU runs.
    fn gemm(&mut self, k: usize, a: Strided, b: Strided, c: &mut Matrix, add: bool) {
        #[cfg(test)]
        let isa = self.pinned.unwrap_or_else(Isa::widest);
        #[cfg(not(test))]
        let isa = Isa::widest();
        match isa {
            Isa::Portable => self.tiled::<4, 8>(k, a, b, c, add),
            // SAFETY: `Isa::Avx2` exists only once `avx2` was detected.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { self.avx2(k, a, b, c, add) },
            // SAFETY: `Isa::Avx512` exists only once `avx512f` was detected.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { self.avx512(k, a, b, c, add) },
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2(&mut self, k: usize, a: Strided, b: Strided, c: &mut Matrix, add: bool) {
        self.tiled::<4, 16>(k, a, b, c, add)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn avx512(&mut self, k: usize, a: Strided, b: Strided, c: &mut Matrix, add: bool) {
        self.tiled::<4, 32>(k, a, b, c, add)
    }

    /// The product on `MR×NR` tiles, compiled into each ISA's entry point.
    #[inline(always)]
    fn tiled<const MR: usize, const NR: usize>(
        &mut self,
        k: usize,
        a: Strided,
        b: Strided,
        c: &mut Matrix,
        add: bool,
    ) {
        let (m, n) = (c.rows(), c.cols());
        if m == 0 || n == 0 {
            return;
        }
        // A thin product (every single-seed serving forward) is not worth
        // packing B for: it keeps the row-times-matrix loop, summing each
        // row into scratch (with no `k` at all, zeros) and storing it once.
        if k == 0 || (m < 2 * MR && b.line_stride == 1) {
            for (i, c_row) in c.data_mut().chunks_exact_mut(n).enumerate() {
                self.row.clear();
                self.row.resize(n, 0.0);
                for kk in 0..k {
                    let a_ik = a.data[i * a.line_stride + kk * a.k_stride];
                    if a_ik == 0.0 {
                        continue;
                    }
                    let b_row = &b.data[kk * b.k_stride..][..n];
                    for (o, &b_kj) in self.row.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
                store(c_row, &self.row, add);
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
                        let tile = kernel::<MR, NR>(a_panel, b_panel);
                        for (r, tile_row) in tile.iter().enumerate().take(m - i) {
                            store(&mut c[(i + r) * n + j..][..cols], &tile_row[..cols], add);
                        }
                    }
                }
            }
        }
    }
}

/// Write finished sums into `out`, or add each to its element if `add`.
#[inline(always)]
fn store(out: &mut [f32], sums: &[f32], add: bool) {
    if add {
        out.iter_mut().zip(sums).for_each(|(o, &s)| *o += s);
    } else {
        out.copy_from_slice(sums);
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
#[inline(always)]
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
/// in ascending `k`. The fixed-size arrays keep the sums in registers.
#[inline(always)]
fn kernel<const MR: usize, const NR: usize>(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
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

    /// Shapes on both sides of every tile (8, 16 and 32 columns), block
    /// (64 rows, 256 columns) and thin-path boundary.
    #[cfg(not(miri))]
    const SIZES: &[usize] = &[
        0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 160, 257,
    ];
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

    /// An output to accumulate into, salted with the values an add at the
    /// store can get wrong: both zeros, subnormals and both infinities.
    fn random_output(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.below(9) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1 + rng.below(1 << 20) as u32),
            3 => -f32::from_bits(1 + rng.below(1 << 20) as u32),
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            _ => rng.f32(-2.0..2.0),
        })
    }

    /// `c0 + product`, element by element: what the accumulating products
    /// must equal bit for bit.
    fn plus(c0: &Matrix, product: &Matrix) -> Matrix {
        let mut sum = c0.clone();
        sum.add_assign(product);
        sum
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

    /// One scratch per instantiation this CPU runs, each pinned to it (the
    /// portable one always, the vector ones where detected), and one that
    /// dispatches as the product does.
    fn every_isa() -> Vec<(String, Gemm)> {
        let pinned = |isa| Gemm {
            pinned: Some(isa),
            ..Gemm::default()
        };
        Isa::supported()
            .into_iter()
            .map(|isa| (format!("{isa:?}"), pinned(isa)))
            .chain([("detected".to_string(), Gemm::default())])
            .collect()
    }

    #[test]
    fn products_are_bit_identical_to_the_reference_loops() {
        let cases_n = if cfg!(miri) { 6 } else { 300 };
        let mut gemms = every_isa();
        let mut out = Matrix::default();
        cases(cases_n, |rng| {
            let mut dim = || SIZES[rng.below(SIZES.len())];
            let (m, k, n) = (dim(), dim(), dim());
            let (a, b) = (random_matrix(rng, m, k), random_matrix(rng, k, n));
            let a_t = random_matrix(rng, k, m);
            let b_t = random_matrix(rng, n, k);
            let c0 = random_output(rng, m, n);
            let want = [
                matmul_oracle(&a, &b),
                t_matmul_oracle(&a_t, &b),
                matmul_t_oracle(&a, &b_t),
            ];
            let want_added = [plus(&c0, &want[0]), plus(&c0, &want[1])];
            for (isa, gemm) in &mut gemms {
                let what = format!("{isa} {m}x{k}x{n}");
                gemm.matmul(&a, &b, &mut out);
                assert_same_bits(&what, &out, &want[0]);
                gemm.t_matmul(&a_t, &b, &mut out);
                assert_same_bits(&what, &out, &want[1]);
                gemm.matmul_t(&a, &b_t, &mut out);
                assert_same_bits(&what, &out, &want[2]);
                let mut acc = c0.clone();
                gemm.matmul_add(&a, &b, &mut acc);
                assert_same_bits(&format!("{what} matmul_add"), &acc, &want_added[0]);
                let mut acc = c0.clone();
                gemm.t_matmul_add(&a_t, &b, &mut acc);
                assert_same_bits(&format!("{what} t_matmul_add"), &acc, &want_added[1]);
            }
        });
    }

    #[test]
    fn accumulating_products_add_once_at_every_size() {
        // Every size on every axis in turn, the other two drawn: the thin
        // path (m < 2·MR), packed tiles, padded edges and, at 65/160/257
        // rows or 257 columns, more than one MC or NC block.
        let mut rng = Rng::seed_from_u64(5);
        let mut gemms = every_isa();
        for (axis, &size) in (0..3).flat_map(|axis| SIZES.iter().map(move |s| (axis, s))) {
            let mut dims = [0; 3].map(|_| SIZES[rng.below(SIZES.len())]);
            dims[axis] = size;
            let [m, k, n] = dims;
            let (a, b, a_t) = (
                random_matrix(&mut rng, m, k),
                random_matrix(&mut rng, k, n),
                random_matrix(&mut rng, k, m),
            );
            let c0 = random_output(&mut rng, m, n);
            let want = [
                plus(&c0, &matmul_oracle(&a, &b)),
                plus(&c0, &t_matmul_oracle(&a_t, &b)),
            ];
            for (isa, gemm) in &mut gemms {
                let what = format!("{isa} {m}x{k}x{n}");
                let mut acc = c0.clone();
                gemm.matmul_add(&a, &b, &mut acc);
                assert_same_bits(&format!("{what} matmul_add"), &acc, &want[0]);
                let mut acc = c0.clone();
                gemm.t_matmul_add(&a_t, &b, &mut acc);
                assert_same_bits(&format!("{what} t_matmul_add"), &acc, &want[1]);
            }
        }
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
        let a_t = random_matrix(&mut rng, k, m);
        let c0 = random_output(&mut rng, m, n);
        let want = matmul_oracle(&a, &b);
        let want_added = [plus(&c0, &want), plus(&c0, &t_matmul_oracle(&a_t, &b))];
        let mut out = Matrix::default();
        for (isa, mut gemm) in every_isa() {
            gemm.matmul(&a, &b, &mut out);
            assert_same_bits(&format!("{isa} blocked"), &out, &want);
            let mut acc = c0.clone();
            gemm.matmul_add(&a, &b, &mut acc);
            assert_same_bits(&format!("{isa} blocked matmul_add"), &acc, &want_added[0]);
            let mut acc = c0.clone();
            gemm.t_matmul_add(&a_t, &b, &mut acc);
            assert_same_bits(&format!("{isa} blocked t_matmul_add"), &acc, &want_added[1]);
        }
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn accumulating_into_an_output_of_the_wrong_shape_panics() {
        // Reshaping would silently drop what `out` held; it must refuse.
        let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(3, 4));
        Gemm::default().matmul_add(&a, &b, &mut Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn accumulating_a_transposed_product_into_the_wrong_shape_panics() {
        // `out` shaped like `a @ b` where `aᵀ @ b` is meant.
        let (a, b) = (Matrix::zeros(3, 2), Matrix::zeros(3, 4));
        Gemm::default().t_matmul_add(&a, &b, &mut Matrix::zeros(3, 4));
    }

    #[test]
    fn a_reused_gemm_and_output_forget_the_previous_product() {
        for (isa, mut gemm) in every_isa() {
            let mut rng = Rng::seed_from_u64(4);
            let mut out = Matrix::default();
            for (m, k, n) in [(17, 9, 33), (3, 5, 4), (9, 0, 8), (9, 2, 8), (16, 16, 1)] {
                let (a, b) = (random_matrix(&mut rng, m, k), random_matrix(&mut rng, k, n));
                gemm.matmul(&a, &b, &mut out);
                assert_same_bits(&format!("{isa} reused"), &out, &matmul_oracle(&a, &b));
                gemm.matmul(a.top_rows(m / 2), &b, &mut out);
                let top = Matrix::from_fn(m / 2, k, |r, c| a.get(r, c));
                assert_same_bits(&format!("{isa} prefix"), &out, &matmul_oracle(&top, &b));
            }
        }
    }
}
