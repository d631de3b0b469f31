//! Row-major `f64` matrices, and the register-tiled products backprop
//! runs on.
//!
//! [`Matrix`] is a plain parameter and dataset container; it has no
//! product methods. The products of the backward pass are slice kernels
//! over reusable scratch buffers, so a warmed training step allocates
//! nothing (see [`crate::Mlp::train_step`]):
//!
//! * `matmul_into` — `dX = dY · W`, the input gradient;
//! * `transpose_a_matmul_into` — `dW = dYᵀ · X`, the weight gradient;
//! * `column_sums_into` — `db = Σ_rows dY`, the bias gradient.
//!
//! The forward product `X · Wᵀ` lives with the inference kernels in
//! [`crate::infer`].
//!
//! **Accumulation order.** Every output element is one sum that starts
//! at `+0.0` and adds its terms in ascending order of the contracted
//! index (k ascending for `dY · W`, rows ascending for `dYᵀ · X` and the
//! column sums). Tiling only runs several such sums side by side, so the
//! result does not depend on the tile shape or the row count.
//!
//! **NaN policy.** No kernel skips a zero multiplier. For finite operands
//! skipping would change nothing — `acc + (±0)` is `acc`, and a sum that
//! starts at `+0.0` is never `-0.0` — but `0 · NaN` and `0 · ∞` are NaN,
//! and a poisoned weight or activation must surface in the gradient
//! instead of vanishing behind a zero.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::infer::J_TILE;

/// A dense row-major matrix.
///
/// The layout is `data[r * cols + c]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics when rows have unequal lengths or there are no rows.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A single-row matrix view of a feature vector.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Map every element.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

/// Row-tile height of the backward products: four rows of `J_TILE`-wide
/// vector accumulators are eight independent add chains, enough to hide
/// the FP add latency on both tile widths.
const I_TILE: usize = 4;

/// One `I_TILE × W` output tile at column `j`, accumulated over the
/// k-ordered `(A(i..i+I_TILE, k), B row k)` pairs. Fixed trip counts and
/// contiguous `B` lanes let the compiler turn the body into vector
/// multiply–adds; `pairs` hides the layout of `A`, so the callers read it
/// without strided index arithmetic.
#[inline(always)]
fn tile<'b, const W: usize>(
    pairs: impl Iterator<Item = ([f64; I_TILE], &'b [f64])>,
    j: usize,
) -> [[f64; W]; I_TILE] {
    let mut acc = [[0.0f64; W]; I_TILE];
    for (av, brow) in pairs {
        let br: &[f64; W] = brow[j..j + W].try_into().expect("full tile");
        for (row, &v) in acc.iter_mut().zip(&av) {
            for (r, &bv) in row.iter_mut().zip(br) {
                *r += v * bv;
            }
        }
    }
    acc
}

/// Column blocks `(j, width)` of an `n`-wide output: full `J_TILE`
/// tiles, then the remainder in power-of-two widths, so every block runs
/// a fixed-width [`tile`] and even a 15-wide layer stays vectorized.
fn column_blocks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j = 0;
    std::iter::from_fn(move || {
        let w = [J_TILE, 4, 2, 1].into_iter().find(|&w| j + w <= n)?;
        j += w;
        Some((j - w, w))
    })
}

/// `out = A · B`, cut into `I_TILE`-row register tiles over
/// [`column_blocks`].
///
/// `A` is `m × kd`, read through `a(i, k)` on a ragged row edge and
/// through `pairs(i)` (see [`tile`]) for full row tiles; `B` is row-major
/// `kd × n` and `out` row-major `m × n`. Each output element accumulates
/// from `+0.0` with k ascending, on both paths.
fn tiled_into<'b, P>(
    m: usize,
    b: &'b [f64],
    n: usize,
    out: &mut [f64],
    a: impl Fn(usize, usize) -> f64,
    pairs: impl Fn(usize) -> P,
) where
    P: Iterator<Item = ([f64; I_TILE], &'b [f64])>,
{
    fn store<const W: usize>(out: &mut [f64], n: usize, i: usize, j: usize, acc: &[[f64; W]]) {
        for (q, row) in acc.iter().enumerate() {
            out[(i + q) * n + j..][..W].copy_from_slice(row);
        }
    }
    if n == 0 {
        return;
    }
    for i in (0..m).step_by(I_TILE) {
        if m - i < I_TILE {
            // Ragged row edge: one plain k-ascending sum per element.
            for q in i..m {
                for c in 0..n {
                    let mut acc = 0.0;
                    for (k, brow) in b.chunks_exact(n).enumerate() {
                        acc += a(q, k) * brow[c];
                    }
                    out[q * n + c] = acc;
                }
            }
            break;
        }
        for (j, w) in column_blocks(n) {
            match w {
                8 => store(out, n, i, j, &tile::<8>(pairs(i), j)),
                4 => store(out, n, i, j, &tile::<4>(pairs(i), j)),
                2 => store(out, n, i, j, &tile::<2>(pairs(i), j)),
                _ => store(out, n, i, j, &tile::<1>(pairs(i), j)),
            }
        }
    }
}

/// `out = a · b`: `a` is row-major `rows × b.rows()`, `out` receives
/// row-major `rows × b.cols()`. The input gradient `dX = dY · W` of a
/// layer with weights `W` (`out_dim × in_dim`).
///
/// # Panics
/// Panics when `a` or `out` is too short for the shapes.
pub(crate) fn matmul_into(a: &[f64], rows: usize, b: &Matrix, out: &mut [f64]) {
    let (kd, n) = (b.rows, b.cols);
    assert!(
        a.len() >= rows * kd && out.len() >= rows * n,
        "matmul shape mismatch"
    );
    tiled_into(
        rows,
        &b.data,
        n,
        out,
        |i, k| a[i * kd + k],
        |i| {
            let row = |q: usize| &a[(i + q) * kd..][..kd];
            row(0)
                .iter()
                .zip(row(1))
                .zip(row(2).iter().zip(row(3)))
                .map(|((&v0, &v1), (&v2, &v3))| [v0, v1, v2, v3])
                .zip(b.data.chunks_exact(n))
        },
    );
}

/// `out = aᵀ · b` over `rows` rows: `a` is row-major `rows × a_cols`,
/// `b` row-major `rows × b_cols`, and `out` receives row-major
/// `a_cols × b_cols`. The weight gradient `dW = dYᵀ · X`.
///
/// # Panics
/// Panics when a slice is too short for the shapes.
pub(crate) fn transpose_a_matmul_into(
    a: &[f64],
    a_cols: usize,
    b: &[f64],
    b_cols: usize,
    rows: usize,
    out: &mut [f64],
) {
    assert!(
        a.len() >= rows * a_cols && b.len() >= rows * b_cols && out.len() >= a_cols * b_cols,
        "t_matmul shape mismatch"
    );
    let b = &b[..rows * b_cols];
    tiled_into(
        a_cols,
        b,
        b_cols,
        out,
        |i, k| a[k * a_cols + i],
        |i| {
            a.chunks_exact(a_cols)
                .map(move |r| -> [f64; I_TILE] { r[i..i + I_TILE].try_into().expect("full tile") })
                .zip(b.chunks_exact(b_cols))
        },
    );
}

/// `out[c] = Σ_r a[r][c]` over `rows` rows of the row-major `a`, rows
/// ascending. The bias gradient `db = Σ_rows dY`.
pub(crate) fn column_sums_into(a: &[f64], rows: usize, out: &mut [f64]) {
    out.fill(0.0);
    for row in a.chunks_exact(out.len()).take(rows) {
        for (s, &v) in out.iter_mut().zip(row) {
            *s += v;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::linear_forward_fused;
    use crate::layer::Activation;

    #[test]
    fn matmul_small_known() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = [0.0; 4];
        matmul_into(&a, 2, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit() {
        // The forward product a · bᵀ is the fused inference kernel with a
        // zero bias and no activation.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, -1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]);
        let mut c = [0.0; 4];
        linear_forward_fused(a.data(), 2, &b, &[0.0; 2], Activation::Identity, &mut c);
        assert_eq!(c, [4.0, 4.0, 2.0, -1.0]);
    }

    #[test]
    fn transpose_a_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.0], &[-1.0]]);
        // aᵀ · b : 2x1
        let mut c = [f64::NAN; 2];
        transpose_a_matmul_into(a.data(), 2, b.data(), 1, 3, &mut c);
        assert_eq!(c, [-4.0, -4.0]);
    }

    #[test]
    fn broadcast_and_column_sums() {
        // A zero input through the forward kernel broadcasts the bias to
        // every row; the column sums then give rows × bias.
        let w = Matrix::zeros(2, 1);
        let mut m = [f64::NAN; 6];
        linear_forward_fused(&[0.0; 3], 3, &w, &[1.0, -2.0], Activation::Identity, &mut m);
        let mut sums = [f64::NAN; 2];
        column_sums_into(&m, 3, &mut sums);
        assert_eq!(sums, [3.0, -6.0]);
    }

    #[test]
    fn tiled_products_match_naive_sums_bit_for_bit() {
        // Shapes straddle every full/partial tile edge in both dimensions.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for (rows, k, n) in [(1, 1, 1), (3, 5, 7), (4, 8, 4), (9, 13, 17), (16, 3, 33)] {
            let a: Vec<f64> = (0..rows * k).map(|_| next()).collect();
            let b = Matrix::from_vec(k, n, (0..k * n).map(|_| next()).collect());
            let mut got = vec![f64::NAN; rows * n];
            matmul_into(&a, rows, &b, &mut got);
            for i in 0..rows {
                for j in 0..n {
                    let mut want = 0.0;
                    for kk in 0..k {
                        want += a[i * k + kk] * b[(kk, j)];
                    }
                    assert_eq!(
                        got[i * n + j].to_bits(),
                        want.to_bits(),
                        "a·b {rows}x{k}x{n}"
                    );
                }
            }
            let x: Vec<f64> = (0..rows * n).map(|_| next()).collect();
            let mut got = vec![f64::NAN; k * n];
            transpose_a_matmul_into(&a, k, &x, n, rows, &mut got);
            for i in 0..k {
                for j in 0..n {
                    let mut want = 0.0;
                    for r in 0..rows {
                        want += a[r * k + i] * x[r * n + j];
                    }
                    assert_eq!(
                        got[i * n + j].to_bits(),
                        want.to_bits(),
                        "aᵀ·b {rows}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn map_and_scale() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]);
        let sq = m.map(|v| v * v);
        assert_eq!(sq.data(), &[1.0, 4.0]);
        let mut s = m.clone();
        s.scale(-3.0);
        assert_eq!(s.data(), &[-3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = [0.0; 6];
        let b = Matrix::zeros(2, 3);
        let mut out = [0.0; 6];
        matmul_into(&a, 2, &b, &mut out[..5]);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_coefficients() {
        // 0.0 · NaN is NaN; a poisoned weight must not be masked by a
        // zero activation — in the input gradient or the weight gradient.
        let a = [0.0, 1.0];
        let b = Matrix::from_rows(&[&[f64::NAN, 0.0], &[1.0, 1.0]]);
        let mut c = [0.0; 2];
        matmul_into(&a, 1, &b, &mut c);
        assert!(c[0].is_nan(), "NaN must propagate, got {}", c[0]);
        assert_eq!(c[1], 1.0);
        let mut g = [0.0; 2];
        transpose_a_matmul_into(&[0.0, 1.0], 1, b.data(), 2, 2, &mut g);
        assert!(g[0].is_nan(), "NaN must propagate, got {}", g[0]);
        assert_eq!(g[1], 1.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }
}
