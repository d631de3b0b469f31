//! Multi-layer perceptrons.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use crate::infer::{
    linear_forward_fused, linear_forward_fused_packed, pack_weights_transposed, packed_len,
    uses_packed, ForwardScratch, TrainScratch,
};
use crate::layer::{Activation, Linear};
use crate::loss::Loss;
use crate::matrix::{column_sums_into, matmul_into, transpose_a_matmul_into, Matrix};
use crate::optim::Adam;

/// Process-global weight-version source: every freshly built or mutably
/// re-exposed network takes a new, never-reused version, so two networks
/// share a version only when one is an unmutated clone of the other — in
/// which case their weights really are identical and a
/// [`ForwardScratch`]'s cached repack is valid for both.
static WEIGHTS_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_weights_version() -> u64 {
    WEIGHTS_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A feed-forward network of [`Linear`] layers with a shared hidden
/// activation and a separate output activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
    /// Weight version for [`ForwardScratch`] repack caching; bumped on
    /// every mutable layer access.
    version: u64,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `&[in, h1, h2, out]`.
    ///
    /// # Panics
    /// Panics when fewer than two dims are given.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_act,
            out_act,
            version: next_weights_version(),
        }
    }

    /// Rebuild from parts (deserialization).
    pub fn from_parts(layers: Vec<Linear>, hidden_act: Activation, out_act: Activation) -> Self {
        assert!(!layers.is_empty());
        Mlp {
            layers,
            hidden_act,
            out_act,
            version: next_weights_version(),
        }
    }

    /// Layer widths `[in, ..., out]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.layers[0].in_dim()];
        dims.extend(self.layers.iter().map(Linear::out_dim));
        dims
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Hidden activation.
    pub fn hidden_activation(&self) -> Activation {
        self.hidden_act
    }

    /// Output activation.
    pub fn output_activation(&self) -> Activation {
        self.out_act
    }

    /// The layers (for serialization and optimizer access).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable layer access (for optimizers).
    ///
    /// Conservatively assumes the caller changes the weights: any cached
    /// weight repack in a [`ForwardScratch`] is invalidated.
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        self.version = next_weights_version();
        &mut self.layers
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Allocating convenience forward pass over the rows of `x`: one
    /// [`Mlp::forward_into`] through a fresh scratch, so it is
    /// bit-identical to it. Hot paths hold a [`ForwardScratch`] instead.
    ///
    /// # Panics
    /// Panics when `x.cols()` is not [`Mlp::in_dim`].
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        let mut scratch = ForwardScratch::new();
        let out = self.forward_into(x.data(), x.rows(), &mut scratch);
        Matrix::from_vec(x.rows(), self.out_dim(), out.to_vec())
    }

    /// **The** inference surface: a batch-first forward pass into
    /// reusable scratch buffers.
    ///
    /// `x` holds `rows ≥ 1` row-major feature rows of width
    /// [`Mlp::in_dim`]; the returned slice holds `rows` rows of width
    /// [`Mlp::out_dim`], borrowed from `scratch`. Each output row is
    /// bit-identical *regardless of the batch size* — every fused kernel
    /// underneath accumulates in the same sequential k-order — which is
    /// what lets callers batch work across walkers without perturbing any
    /// Markov chain. A scratch warmed by [`ForwardScratch::reserve`] — or
    /// by a first call at the largest batch size — makes this perform
    /// **zero heap allocations**.
    ///
    /// # Panics
    /// Panics when `x` is shorter than `rows · in_dim`.
    pub fn forward_into<'a>(
        &self,
        x: &[f64],
        rows: usize,
        scratch: &'a mut ForwardScratch,
    ) -> &'a [f64] {
        assert!(x.len() >= rows * self.in_dim(), "input rows too short");
        scratch.reserve(self, rows);
        let packed = uses_packed(rows);
        if packed {
            self.pack_weights(scratch);
        }
        let ForwardScratch {
            buf_a,
            buf_b,
            packed_w,
            ..
        } = scratch;
        let last = self.layers.len() - 1;
        for i in 0..self.layers.len() {
            // Ping-pong: x → a → b → a → …
            let (src, dst): (&[f64], &mut [f64]) = if i == 0 {
                (x, buf_a.as_mut_slice())
            } else if i % 2 == 1 {
                (buf_a.as_slice(), buf_b.as_mut_slice())
            } else {
                (buf_b.as_slice(), buf_a.as_mut_slice())
            };
            self.layer_forward(i, src, rows, packed.then_some(packed_w.as_slice()), dst);
        }
        let out = rows * self.out_dim();
        if last % 2 == 0 {
            &buf_a[..out]
        } else {
            &buf_b[..out]
        }
    }

    /// Make sure `scratch` (already sized by
    /// [`ForwardScratch::reserve_packed`]) holds this network's packed
    /// weights, for the packed kernel's vectorized column loop.
    ///
    /// The pack is cached across forwards and invalidated only when the
    /// weights change, so during sampling its cost amortizes over entire
    /// runs, and during training (one repack per optimizer step) over
    /// every row of the step. Bit-identical to the scalar tile.
    fn pack_weights(&self, scratch: &mut ForwardScratch) {
        if scratch.packed_version != self.version {
            let mut off = 0;
            for layer in &self.layers {
                let wn = packed_len(layer.in_dim(), layer.out_dim());
                pack_weights_transposed(&layer.w, &mut scratch.packed_w[off..off + wn]);
                off += wn;
            }
            scratch.packed_version = self.version;
        }
    }

    /// Activation applied after layer `i`.
    fn activation(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }

    /// Layer `i` of the forward pass: `dst = act_i(src · W_iᵀ + b_i)`
    /// over `rows` rows, through the packed kernel when `packed_w` (every
    /// layer's packed weights, as [`Mlp::pack_weights`] lays them out)
    /// is given.
    fn layer_forward(
        &self,
        i: usize,
        src: &[f64],
        rows: usize,
        packed_w: Option<&[f64]>,
        dst: &mut [f64],
    ) {
        let layer = &self.layers[i];
        let act = self.activation(i);
        match packed_w {
            Some(all) => {
                let off: usize = self.layers[..i]
                    .iter()
                    .map(|l| packed_len(l.in_dim(), l.out_dim()))
                    .sum();
                let wn = packed_len(layer.in_dim(), layer.out_dim());
                linear_forward_fused_packed(
                    src,
                    rows,
                    &all[off..off + wn],
                    layer.in_dim(),
                    layer.out_dim(),
                    &layer.b,
                    act,
                    dst,
                );
            }
            None => linear_forward_fused(src, rows, &layer.w, &layer.b, act, dst),
        }
    }

    /// Forward, loss and backward over `rows` rows of `x`: leaves
    /// `dL/dW` and `dL/db` in every layer's `gw`/`gb` (overwriting them)
    /// and returns the mean loss. Allocation-free once `scratch` is warm.
    ///
    /// The forward is [`Mlp::forward_into`]'s layer pass, keeping each
    /// layer's output. Backward runs the tiled products of
    /// [`crate::matrix`]: the activation derivative is taken from each
    /// layer's output, then `dW = dYᵀ · X`, `db = Σ_rows dY` and — for
    /// every layer but the first, whose input gradient nobody reads —
    /// `dX = dY · W`. Every element keeps the reference accumulation
    /// order (k ascending for `X · Wᵀ` and `dY · W`, rows ascending for
    /// `dYᵀ · X` and the bias sums, bias added after the sum), so losses
    /// and gradients do not depend on the tiling.
    ///
    /// NaN policy: no product skips a zero multiplier (see
    /// [`crate::matrix`]), so a NaN or infinite weight or activation
    /// reaches the gradients. The one exception is a NaN pre-activation
    /// under ReLU: its output is `0`, and the derivative taken from that
    /// output zeroes the gradient through it.
    ///
    /// # Panics
    /// Panics when `x` is shorter than `rows · in_dim` or `loss` does not
    /// match `rows × out_dim`.
    pub fn backprop(
        &mut self,
        x: &[f64],
        rows: usize,
        loss: &Loss<'_>,
        scratch: &mut TrainScratch,
    ) -> f64 {
        assert!(x.len() >= rows * self.in_dim(), "input rows too short");
        scratch.reserve(self, rows);
        self.pack_weights(&mut scratch.fwd);
        let TrainScratch { fwd, acts } = scratch;

        // Forward: layer i's output lands at acts[rows · Σ_{j<i} out_j].
        let mut off = 0;
        for i in 0..self.layers.len() {
            let (done, rest) = acts.split_at_mut(off);
            let src = if i == 0 {
                x
            } else {
                &done[off - rows * self.layers[i].in_dim()..]
            };
            let n = rows * self.layers[i].out_dim();
            self.layer_forward(i, src, rows, Some(&fwd.packed_w), &mut rest[..n]);
            off += n;
        }

        // Backward, with the gradient ping-ponging between g and g_next.
        let mut g = &mut fwd.buf_a;
        let mut g_next = &mut fwd.buf_b;
        let last_dim = self.out_dim();
        off -= rows * last_dim;
        let value = loss.eval(&acts[off..off + rows * last_dim], last_dim, g);
        for i in (0..self.layers.len()).rev() {
            let act = self.activation(i);
            let layer = &mut self.layers[i];
            let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
            let gi = &mut g[..rows * out_dim];
            act.backward_from_output(&acts[off..off + rows * out_dim], gi);
            let input = if i == 0 {
                x
            } else {
                off -= rows * in_dim;
                &acts[off..off + rows * in_dim]
            };
            transpose_a_matmul_into(gi, out_dim, input, in_dim, rows, layer.gw.data_mut());
            column_sums_into(gi, rows, &mut layer.gb);
            if i > 0 {
                matmul_into(gi, rows, &layer.w, g_next);
                std::mem::swap(&mut g, &mut g_next);
            }
        }
        value
    }

    /// **The** training step: [`Mlp::backprop`], then
    /// [`Mlp::clip_grad_norm`] to `grad_clip` (pass `f64::INFINITY` for
    /// none), then one `adam` update. Returns the mean loss before the
    /// update. Allocation-free once `scratch` and `adam` are warm.
    pub fn train_step(
        &mut self,
        x: &[f64],
        rows: usize,
        loss: &Loss<'_>,
        grad_clip: f64,
        adam: &mut Adam,
        scratch: &mut TrainScratch,
    ) -> f64 {
        let value = self.backprop(x, rows, loss, scratch);
        self.clip_grad_norm(grad_clip);
        adam.step(self);
        value
    }

    /// Flatten all parameters (weights then bias, layer by layer) into one
    /// vector — the payload of the simulated weight allreduce.
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(l.w.data());
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Load parameters from a [`Mlp::flatten_params`] vector.
    ///
    /// # Panics
    /// Panics when the length does not match `num_params`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        self.version = next_weights_version();
        let mut offset = 0;
        for l in &mut self.layers {
            let wlen = l.w.data().len();
            l.w.data_mut()
                .copy_from_slice(&params[offset..offset + wlen]);
            offset += wlen;
            let blen = l.b.len();
            l.b.copy_from_slice(&params[offset..offset + blen]);
            offset += blen;
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f64 {
        let mut acc = 0.0;
        for l in &self.layers {
            acc += l.gw.data().iter().map(|&v| v * v).sum::<f64>();
            acc += l.gb.iter().map(|&v| v * v).sum::<f64>();
        }
        acc.sqrt()
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f64) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for l in &mut self.layers {
                l.gw.scale(s);
                for g in &mut l.gb {
                    *g *= s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dims_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mlp = Mlp::new(&[5, 8, 3], Activation::Relu, Activation::Identity, &mut rng);
        assert_eq!(mlp.dims(), vec![5, 8, 3]);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.num_params(), 5 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn forward_equals_forward_train() {
        // The training forward leaves the network output as the last
        // layer block of the scratch; it must equal inference exactly.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[3, 6, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[0.1, 0.2, -0.3], &[1.0, -1.0, 0.5]]);
        let a = mlp.forward(&x);
        let mut scratch = TrainScratch::new();
        let y = [0.0; 4];
        mlp.backprop(x.data(), 2, &Loss::Mse { targets: &y }, &mut scratch);
        assert_eq!(&scratch.acts[2 * 6..2 * 6 + 4], a.data());
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.7], &[0.5, 0.1]]);
        let y = [1.0, -1.0];
        let loss = Loss::Mse { targets: &y };
        mlp.backprop(x.data(), 2, &loss, &mut TrainScratch::new());

        let eps = 1e-6;
        let loss_of = |mlp: &Mlp| -> f64 { loss.eval(mlp.forward(&x).data(), 1, &mut [0.0; 2]) };
        // Spot-check several parameters in every layer.
        for li in 0..mlp.layers().len() {
            for &(r, c) in &[(0usize, 0usize), (0, 1)] {
                if r >= mlp.layers()[li].out_dim() || c >= mlp.layers()[li].in_dim() {
                    continue;
                }
                let orig = mlp.layers()[li].w[(r, c)];
                mlp.layers_mut()[li].w[(r, c)] = orig + eps;
                let up = loss_of(&mlp);
                mlp.layers_mut()[li].w[(r, c)] = orig - eps;
                let dn = loss_of(&mlp);
                mlp.layers_mut()[li].w[(r, c)] = orig;
                let fd = (up - dn) / (2.0 * eps);
                let got = mlp.layers()[li].gw[(r, c)];
                assert!(
                    (got - fd).abs() < 1e-5,
                    "layer {li} w({r},{c}): fd {fd} vs {got}"
                );
            }
        }
    }

    #[test]
    fn sgd_reduces_loss_on_regression() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let xs: Vec<f64> = (0..16).map(|i| i as f64 / 8.0 - 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&v| v * v).collect();
        let loss = Loss::Mse { targets: &ys };
        let mut scratch = TrainScratch::new();
        let mut sgd = Sgd::new(0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..1000 {
            let l = mlp.backprop(&xs, 16, &loss, &mut scratch);
            sgd.step(&mut mlp);
            first.get_or_insert(l);
            last = l;
        }
        assert!(last < first.unwrap() * 0.2, "{last} vs {first:?}");
    }

    #[test]
    fn flatten_set_params_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Identity, &mut rng);
        let mut b = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Identity, &mut rng);
        let params = a.flatten_params();
        assert_eq!(params.len(), a.num_params());
        b.set_params(&params);
        let x = Matrix::from_rows(&[&[0.4, -1.0, 2.0]]);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn set_params_rejects_wrong_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut a = Mlp::new(&[2, 2], Activation::Relu, Activation::Identity, &mut rng);
        a.set_params(&[0.0; 3]);
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut mlp = Mlp::new(&[2, 4, 2], Activation::Relu, Activation::Identity, &mut rng);
        // A target far from any output makes a huge gradient.
        let loss = Loss::Mse {
            targets: &[1e4, -1e4],
        };
        mlp.backprop(&[10.0, -10.0], 1, &loss, &mut TrainScratch::new());
        assert!(mlp.grad_norm() > 1.0);
        mlp.clip_grad_norm(1.0);
        assert!(mlp.grad_norm() <= 1.0 + 1e-9);
    }
}
