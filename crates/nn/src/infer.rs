//! Batched, allocation-free forward kernels and the scratch buffers of
//! the one NN engine.
//!
//! The **one inference surface** callers use is
//! [`crate::Mlp::forward_into`] — batch-first (`rows ≥ 1`), fed from a
//! [`ForwardScratch`]. Training runs the same kernels: the forward half
//! of [`crate::Mlp::train_step`] is this module's layer pass, writing
//! each layer's output into a [`TrainScratch`] instead of ping-ponging.
//! Everything below the two `Mlp` entry points is an internal layer:
//!
//! * [`ForwardScratch`] — a pair of ping-pong activation buffers reused
//!   across forward passes. Buffers grow on first use (or when a larger
//!   batch arrives) and are never shrunk, so a warmed scratch performs
//!   **zero heap allocations** per forward. One scratch per walker/thread;
//!   it is `Clone` so per-rank state can be snapshotted freely.
//! * [`linear_forward_fused`] (doc-hidden) — a register-tiled `X · Wᵀ`
//!   kernel with the bias add and activation fused into the store. Each
//!   output element is accumulated in the **same sequential k-order** as
//!   a naive dot product, from `+0.0`, with the bias added after the sum,
//!   so results do not depend on the batch size or on which kernel ran;
//!   the speedup comes from running several independent accumulator
//!   chains at once (the naive dot product is latency-bound on the single
//!   accumulator) and from not touching the allocator.
//!
//! Batching rules (see DESIGN.md, "NN engine"): whenever every
//! input row is known upfront — teacher-forced replay, reverse
//! log-probabilities, surrogate batch prediction — build all rows and run
//! one k-row pass through [`crate::Mlp::forward_into`]. Genuinely
//! autoregressive decoding (sampling step t+1 needs the species drawn at
//! step t) cannot batch across *sites*, but walkers sharing a network
//! decode in lockstep so each step is still one W-row pass; only a lone
//! walker ever runs batch-1, and even there the scratch removes all
//! per-step allocation.

use crate::layer::Activation;
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Reusable activation buffers for [`Mlp::forward_into`].
///
/// Holds two flat row-major buffers that the forward pass ping-pongs
/// between, so any number of layers needs only two allocations for the
/// lifetime of the scratch. All buffers grow geometrically and never
/// shrink: once warmed for the largest batch a call site uses, every
/// subsequent forward is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    pub(crate) buf_a: Vec<f64>,
    pub(crate) buf_b: Vec<f64>,
    /// Column-major (input-index-major) repack of *every* layer's
    /// weights, concatenated in layer order, so multi-row forwards read
    /// contiguous weight lanes. Cached across calls and keyed by
    /// `packed_version`: repacking happens once per weight update, not
    /// once per layer per forward.
    pub(crate) packed_w: Vec<f64>,
    /// `Mlp` weight version `packed_w` was built from (0 = none).
    pub(crate) packed_version: u64,
}

impl ForwardScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ForwardScratch::default()
    }

    /// A scratch pre-sized for `max_rows`-row batches through `mlp`, so
    /// the very first forward already allocates nothing.
    pub fn for_mlp(mlp: &Mlp, max_rows: usize) -> Self {
        let mut scratch = ForwardScratch::new();
        scratch.reserve(mlp, max_rows);
        scratch
    }

    /// Grow the buffers so `max_rows`-row batches through `mlp` need no
    /// further allocation.
    pub fn reserve(&mut self, mlp: &Mlp, max_rows: usize) {
        let widest = mlp
            .layers()
            .iter()
            .map(|l| l.out_dim())
            .max()
            .unwrap_or(0)
            .max(mlp.in_dim());
        let need = max_rows * widest;
        if self.buf_a.len() < need {
            self.buf_a.resize(need, 0.0);
        }
        if self.buf_b.len() < need {
            self.buf_b.resize(need, 0.0);
        }
        if uses_packed(max_rows) {
            self.reserve_packed(mlp);
        }
    }

    /// Size the packed-weight buffer for `mlp`.
    pub(crate) fn reserve_packed(&mut self, mlp: &Mlp) {
        let total_w: usize = mlp
            .layers()
            .iter()
            .map(|l| packed_len(l.w.cols(), l.w.rows()))
            .sum();
        if self.packed_w.len() < total_w {
            self.packed_w.resize(total_w, 0.0);
            self.packed_version = 0;
        }
    }
}

/// Reusable buffers for [`Mlp::backprop`] and [`Mlp::train_step`].
///
/// * `fwd` — a [`ForwardScratch`]: the training forward runs the packed
///   kernel over its packed weights (repacked once per optimizer step),
///   and its two ping-pong buffers carry the backward gradient
///   (`rows × widest layer`) from layer to layer.
/// * `acts` — every layer's post-activation output, layer-major (layer
///   `i` at `rows · Σ_{j<i} out_j`). Backward reads layer `i`'s input
///   (layer `i − 1`'s output) for the weight gradient and its own output
///   for the activation derivative, so no pre-activation is stored.
///
/// Like [`ForwardScratch`], the buffers grow to the largest batch seen
/// and never shrink: once warmed, a training step is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    pub(crate) fwd: ForwardScratch,
    pub(crate) acts: Vec<f64>,
}

impl TrainScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        TrainScratch::default()
    }

    /// A scratch pre-sized for `max_rows`-row steps on `mlp`.
    pub fn for_mlp(mlp: &Mlp, max_rows: usize) -> Self {
        let mut scratch = TrainScratch::new();
        scratch.reserve(mlp, max_rows);
        scratch
    }

    /// Grow the buffers so `max_rows`-row steps on `mlp` need no further
    /// allocation.
    pub fn reserve(&mut self, mlp: &Mlp, max_rows: usize) {
        self.fwd.reserve(mlp, max_rows);
        self.fwd.reserve_packed(mlp);
        let need = max_rows * mlp.layers().iter().map(|l| l.out_dim()).sum::<usize>();
        if self.acts.len() < need {
            self.acts.resize(need, 0.0);
        }
    }
}

/// Fused `out = act(x · wᵀ + bias)` over the first `rows` rows of `x`.
///
/// `x` is row-major `rows × w.cols()`; `out` receives row-major
/// `rows × w.rows()` (any tail beyond that is left untouched). The k-loop
/// for each output element is sequential, matching a naive dot product's
/// accumulation order exactly, so this is bit-identical to the
/// layer-by-layer reference while the 2×4 register tile keeps 8
/// independent accumulator chains in flight.
///
/// Internal kernel of [`crate::Mlp::forward_into`]; call that instead.
///
/// # Panics
/// Panics when `x` is shorter than `rows × w.cols()`, `bias` does not
/// match `w.rows()`, or `out` is shorter than `rows × w.rows()`.
#[doc(hidden)]
pub fn linear_forward_fused(
    x: &[f64],
    rows: usize,
    w: &Matrix,
    bias: &[f64],
    act: Activation,
    out: &mut [f64],
) {
    let in_dim = w.cols();
    let out_dim = w.rows();
    assert!(x.len() >= rows * in_dim, "input slice too short");
    assert_eq!(bias.len(), out_dim, "bias length mismatch");
    assert!(out.len() >= rows * out_dim, "output slice too short");
    let wd = w.data();

    let mut i = 0;
    // 2-row × 4-column register tiles.
    while i + 2 <= rows {
        let x0 = &x[i * in_dim..][..in_dim];
        let x1 = &x[(i + 1) * in_dim..][..in_dim];
        let mut j = 0;
        while j + 4 <= out_dim {
            let w0 = &wd[j * in_dim..][..in_dim];
            let w1 = &wd[(j + 1) * in_dim..][..in_dim];
            let w2 = &wd[(j + 2) * in_dim..][..in_dim];
            let w3 = &wd[(j + 3) * in_dim..][..in_dim];
            let (mut a00, mut a01, mut a02, mut a03) = (0.0, 0.0, 0.0, 0.0);
            let (mut a10, mut a11, mut a12, mut a13) = (0.0, 0.0, 0.0, 0.0);
            for k in 0..in_dim {
                let v0 = x0[k];
                let v1 = x1[k];
                let b0 = w0[k];
                let b1 = w1[k];
                let b2 = w2[k];
                let b3 = w3[k];
                a00 += v0 * b0;
                a01 += v0 * b1;
                a02 += v0 * b2;
                a03 += v0 * b3;
                a10 += v1 * b0;
                a11 += v1 * b1;
                a12 += v1 * b2;
                a13 += v1 * b3;
            }
            out[i * out_dim + j] = act.apply(a00 + bias[j]);
            out[i * out_dim + j + 1] = act.apply(a01 + bias[j + 1]);
            out[i * out_dim + j + 2] = act.apply(a02 + bias[j + 2]);
            out[i * out_dim + j + 3] = act.apply(a03 + bias[j + 3]);
            out[(i + 1) * out_dim + j] = act.apply(a10 + bias[j]);
            out[(i + 1) * out_dim + j + 1] = act.apply(a11 + bias[j + 1]);
            out[(i + 1) * out_dim + j + 2] = act.apply(a12 + bias[j + 2]);
            out[(i + 1) * out_dim + j + 3] = act.apply(a13 + bias[j + 3]);
            j += 4;
        }
        while j < out_dim {
            let wj = &wd[j * in_dim..][..in_dim];
            let mut a0 = 0.0;
            let mut a1 = 0.0;
            for k in 0..in_dim {
                a0 += x0[k] * wj[k];
                a1 += x1[k] * wj[k];
            }
            out[i * out_dim + j] = act.apply(a0 + bias[j]);
            out[(i + 1) * out_dim + j] = act.apply(a1 + bias[j]);
            j += 1;
        }
        i += 2;
    }
    // Odd trailing row: 1-row × 4-column tiles.
    if i < rows {
        let x0 = &x[i * in_dim..][..in_dim];
        let mut j = 0;
        while j + 4 <= out_dim {
            let w0 = &wd[j * in_dim..][..in_dim];
            let w1 = &wd[(j + 1) * in_dim..][..in_dim];
            let w2 = &wd[(j + 2) * in_dim..][..in_dim];
            let w3 = &wd[(j + 3) * in_dim..][..in_dim];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for k in 0..in_dim {
                let v = x0[k];
                a0 += v * w0[k];
                a1 += v * w1[k];
                a2 += v * w2[k];
                a3 += v * w3[k];
            }
            out[i * out_dim + j] = act.apply(a0 + bias[j]);
            out[i * out_dim + j + 1] = act.apply(a1 + bias[j + 1]);
            out[i * out_dim + j + 2] = act.apply(a2 + bias[j + 2]);
            out[i * out_dim + j + 3] = act.apply(a3 + bias[j + 3]);
            j += 4;
        }
        while j < out_dim {
            let wj = &wd[j * in_dim..][..in_dim];
            let mut a = 0.0;
            for k in 0..in_dim {
                a += x0[k] * wj[k];
            }
            out[i * out_dim + j] = act.apply(a + bias[j]);
            j += 1;
        }
    }
}

/// Column-tile width of [`linear_forward_fused_packed`]: 8 with AVX
/// (two 256-bit accumulator lanes per row), 4 on the SSE2 baseline
/// (two 128-bit lanes — a 2×8 tile spills there and runs slower).
/// Compile-time only; results are bit-identical either way.
#[cfg(target_feature = "avx")]
pub(crate) const J_TILE: usize = 8;
#[cfg(not(target_feature = "avx"))]
pub(crate) const J_TILE: usize = 4;

/// Whether a `rows`-row inference batch runs the packed kernel:
/// multi-row batches on AVX targets. Without AVX the vector lanes are too
/// narrow to beat the scalar tile's eight accumulator chains at the
/// proposal's batch widths (2–16 rows), so inference keeps the scalar
/// tile on baseline targets. Training always runs the packed kernel: at
/// its hundreds of rows per step it is the faster of the two on either
/// target.
pub(crate) fn uses_packed(rows: usize) -> bool {
    rows >= 2 && cfg!(target_feature = "avx")
}

/// Length of the packed buffer [`pack_weights_transposed`] needs for an
/// `out_dim × in_dim` weight matrix: the column count rounded up to a
/// whole number of [`J_TILE`]-wide tiles. The tail tile is zero-padded,
/// which is what keeps the kernel's inner loop a single full-width
/// vector shape for *every* output width (a narrow tail tile defeats
/// LLVM's SLP vectorizer and runs scalar).
///
/// Internal sizing helper of [`crate::Mlp::forward_into`]'s scratch.
#[doc(hidden)]
pub fn packed_len(in_dim: usize, out_dim: usize) -> usize {
    in_dim * out_dim.div_ceil(J_TILE) * J_TILE
}

/// Repack `w` (row-major `out_dim × in_dim`) into the tile-blocked
/// layout [`linear_forward_fused_packed`] consumes: the output columns
/// are cut into [`J_TILE`]-wide tiles (the last tile zero-padded past
/// `out_dim`), and each tile stores its weights input-index-major —
/// `J_TILE` contiguous values per input index `k`.
///
/// The kernel's inner loop therefore walks the packed buffer strictly
/// sequentially: no index arithmetic, no strided loads, and bounds
/// checks vanish into `chunks_exact` — the scalar tiled kernel is
/// capped by scalar FP-add throughput, which batched workloads outgrow.
/// Padding columns accumulate zeros the epilogue never reads, so real
/// outputs keep the exact sequential k-order of the reference path.
///
/// Internal kernel of [`crate::Mlp::forward_into`]; call that instead.
///
/// # Panics
/// Panics when `wt` is shorter than [`packed_len`]`(w.cols(), w.rows())`.
#[doc(hidden)]
pub fn pack_weights_transposed(w: &Matrix, wt: &mut [f64]) {
    let in_dim = w.cols();
    let out_dim = w.rows();
    assert!(
        wt.len() >= packed_len(in_dim, out_dim),
        "packed buffer too short"
    );
    let wd = w.data();
    let mut off = 0;
    let mut j = 0;
    while j < out_dim {
        let width = J_TILE.min(out_dim - j);
        for k in 0..in_dim {
            for t in 0..J_TILE {
                wt[off] = if t < width {
                    wd[(j + t) * in_dim + k]
                } else {
                    0.0
                };
                off += 1;
            }
        }
        j += J_TILE;
    }
}

/// Fused `out = act(x · wᵀ + bias)` over packed weights
/// (see [`pack_weights_transposed`]).
///
/// Semantically identical to [`linear_forward_fused`] — every output
/// element accumulates in the same sequential k-order, so results stay
/// bit-identical to the reference path — but the inner loop walks
/// `out_dim`-contiguous packed weights, turning the 8-column tile into
/// vector mul/add lanes instead of eight scalar chains. Used by
/// [`Mlp::forward_into`] for multi-row batches, where the
/// `in_dim × out_dim` repack cost amortizes across rows.
///
/// Internal kernel of [`crate::Mlp::forward_into`]; call that instead.
///
/// # Panics
/// Panics when `x` is shorter than `rows × in_dim`, `wt` is shorter than
/// `in_dim × out_dim`, `bias` does not match `out_dim`, or `out` is
/// shorter than `rows × out_dim`.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn linear_forward_fused_packed(
    x: &[f64],
    rows: usize,
    wt: &[f64],
    in_dim: usize,
    out_dim: usize,
    bias: &[f64],
    act: Activation,
    out: &mut [f64],
) {
    assert!(x.len() >= rows * in_dim, "input slice too short");
    assert!(
        wt.len() >= packed_len(in_dim, out_dim),
        "packed weights too short"
    );
    assert_eq!(bias.len(), out_dim, "bias length mismatch");
    assert!(out.len() >= rows * out_dim, "output slice too short");

    // Column-tile-major, 4/2/1-row × J_TILE-column tiles; the accumulator
    // arrays become vector lanes. The tile is 8 wide when AVX registers
    // exist and 4 wide on the SSE2 baseline, where a 2×8 tile spills.
    // Keeping the column tile in the *outer* loop means each tile's
    // weight lines (one cache line per input index with an 8-wide tile)
    // are re-read from L1 by every row pair instead of re-streaming the
    // whole matrix once per pair — the difference between the proposal
    // batch widths (2–16 rows) scaling and not.
    //
    // Every tile accumulates at the full J_TILE width — the packed tail
    // tile is zero-padded, and only the epilogue narrows to `$real`
    // live columns. A width-specialized narrow tile looks cheaper but
    // LLVM's SLP vectorizer rejects it and emits scalar chains, which
    // is ~3x slower on narrow output layers than burning a few padded
    // lanes. Macro, not closure: each expansion keeps the constant
    // J_TILE accumulate shape while getting its own epilogue width.
    macro_rules! col_tile {
        ($j:expr, $off:expr, $real:expr) => {{
            let block = &wt[$off..$off + in_dim * J_TILE];
            let mut i = 0;
            // 4-row tiles first: eight vector accumulator chains, enough
            // to saturate both FP add ports (a 2-row tile's four chains
            // are add-latency-bound). The weight block is read strictly
            // sequentially and stays L1-resident across row tiles.
            while i + 4 <= rows {
                let x0 = &x[i * in_dim..][..in_dim];
                let x1 = &x[(i + 1) * in_dim..][..in_dim];
                let x2 = &x[(i + 2) * in_dim..][..in_dim];
                let x3 = &x[(i + 3) * in_dim..][..in_dim];
                let mut a0 = [0.0f64; J_TILE];
                let mut a1 = [0.0f64; J_TILE];
                let mut a2 = [0.0f64; J_TILE];
                let mut a3 = [0.0f64; J_TILE];
                for (((&v0, &v1), (&v2, &v3)), wr) in x0
                    .iter()
                    .zip(x1)
                    .zip(x2.iter().zip(x3))
                    .zip(block.chunks_exact(J_TILE))
                {
                    for t in 0..J_TILE {
                        a0[t] += v0 * wr[t];
                        a1[t] += v1 * wr[t];
                        a2[t] += v2 * wr[t];
                        a3[t] += v3 * wr[t];
                    }
                }
                for t in 0..$real {
                    out[i * out_dim + $j + t] = act.apply(a0[t] + bias[$j + t]);
                    out[(i + 1) * out_dim + $j + t] = act.apply(a1[t] + bias[$j + t]);
                    out[(i + 2) * out_dim + $j + t] = act.apply(a2[t] + bias[$j + t]);
                    out[(i + 3) * out_dim + $j + t] = act.apply(a3[t] + bias[$j + t]);
                }
                i += 4;
            }
            while i + 2 <= rows {
                let x0 = &x[i * in_dim..][..in_dim];
                let x1 = &x[(i + 1) * in_dim..][..in_dim];
                let mut a0 = [0.0f64; J_TILE];
                let mut a1 = [0.0f64; J_TILE];
                for ((&v0, &v1), wr) in x0.iter().zip(x1).zip(block.chunks_exact(J_TILE)) {
                    for t in 0..J_TILE {
                        a0[t] += v0 * wr[t];
                        a1[t] += v1 * wr[t];
                    }
                }
                for t in 0..$real {
                    out[i * out_dim + $j + t] = act.apply(a0[t] + bias[$j + t]);
                    out[(i + 1) * out_dim + $j + t] = act.apply(a1[t] + bias[$j + t]);
                }
                i += 2;
            }
            if i < rows {
                let x0 = &x[i * in_dim..][..in_dim];
                let mut a0 = [0.0f64; J_TILE];
                for (&v0, wr) in x0.iter().zip(block.chunks_exact(J_TILE)) {
                    for t in 0..J_TILE {
                        a0[t] += v0 * wr[t];
                    }
                }
                for t in 0..$real {
                    out[i * out_dim + $j + t] = act.apply(a0[t] + bias[$j + t]);
                }
            }
        }};
    }

    let mut off = 0;
    let mut j = 0;
    while j + J_TILE <= out_dim {
        col_tile!(j, off, J_TILE);
        off += in_dim * J_TILE;
        j += J_TILE;
    }
    if j < out_dim {
        let real = out_dim - j;
        col_tile!(j, off, real);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Reference: naive k-ascending dot products, then bias, then the
    /// activation.
    fn reference(x: &Matrix, w: &Matrix, bias: &[f64], act: Activation) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), w.rows());
        for i in 0..x.rows() {
            for j in 0..w.rows() {
                let mut acc = 0.0;
                for (&a, &b) in x.row(i).iter().zip(w.row(j)) {
                    acc += a * b;
                }
                y[(i, j)] = act.apply(acc + bias[j]);
            }
        }
        y
    }

    #[test]
    fn fused_kernel_is_bit_identical_to_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        use rand::RngExt;
        for &(rows, in_dim, out_dim) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 5),
            (2, 8, 4),
            (3, 31, 64),
            (5, 64, 64),
            (8, 13, 3),
        ] {
            for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
                let x = Matrix::from_vec(
                    rows,
                    in_dim,
                    (0..rows * in_dim)
                        .map(|_| rng.random::<f64>() * 4.0 - 2.0)
                        .collect(),
                );
                let w = Matrix::from_vec(
                    out_dim,
                    in_dim,
                    (0..out_dim * in_dim)
                        .map(|_| rng.random::<f64>() * 2.0 - 1.0)
                        .collect(),
                );
                let bias: Vec<f64> = (0..out_dim).map(|_| rng.random::<f64>() - 0.5).collect();
                let want = reference(&x, &w, &bias, act);
                let mut got = vec![f64::NAN; rows * out_dim];
                linear_forward_fused(x.data(), rows, &w, &bias, act, &mut got);
                for (g, e) in got.iter().zip(want.data()) {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{rows}x{in_dim}x{out_dim} {act:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        use rand::RngExt;
        for &(rows, in_dim, out_dim) in &[
            (2usize, 1usize, 1usize),
            (2, 7, 5),
            (2, 8, 4),
            (3, 31, 64),
            (5, 64, 64),
            (8, 13, 3),
            (4, 15, 12),
            (7, 9, 21),
        ] {
            for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
                let x = Matrix::from_vec(
                    rows,
                    in_dim,
                    (0..rows * in_dim)
                        .map(|_| rng.random::<f64>() * 4.0 - 2.0)
                        .collect(),
                );
                let w = Matrix::from_vec(
                    out_dim,
                    in_dim,
                    (0..out_dim * in_dim)
                        .map(|_| rng.random::<f64>() * 2.0 - 1.0)
                        .collect(),
                );
                let bias: Vec<f64> = (0..out_dim).map(|_| rng.random::<f64>() - 0.5).collect();
                let want = reference(&x, &w, &bias, act);
                let mut wt = vec![f64::NAN; packed_len(in_dim, out_dim)];
                pack_weights_transposed(&w, &mut wt);
                let mut got = vec![f64::NAN; rows * out_dim];
                linear_forward_fused_packed(
                    x.data(),
                    rows,
                    &wt,
                    in_dim,
                    out_dim,
                    &bias,
                    act,
                    &mut got,
                );
                for (g, e) in got.iter().zip(want.data()) {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{rows}x{in_dim}x{out_dim} {act:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reserve_sizes_for_widest_layer() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mlp = Mlp::new(
            &[3, 17, 5],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let s = ForwardScratch::for_mlp(&mlp, 4);
        assert!(s.buf_a.len() >= 4 * 17);
        assert!(s.buf_b.len() >= 4 * 17);
    }
}
