//! A test-local copy of the allocating `Matrix` path the engine
//! replaced: layer-by-layer forward with cached inputs and
//! pre-activations, pre-activation-based activation derivatives, and the
//! naive `ikj` products (including the weight-gradient product's
//! zero-skip). The equivalence suites hold the engine to it bit for bit.

#![allow(dead_code)]

use dt_nn::{log_softmax_masked, Activation, Matrix, Mlp};

/// `a · bᵀ`, one k-ascending dot product per element.
fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                acc += x * y;
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// `aᵀ · b`, rows ascending, skipping zero multipliers.
fn transpose_a_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for r in 0..a.rows() {
        for (i, &x) in a.row(r).iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(r)) {
                *o += x * y;
            }
        }
    }
    out
}

/// `a · b` in `ikj` order.
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (k, &x) in a.row(i).iter().enumerate() {
            for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                *o += x * y;
            }
        }
    }
    out
}

fn activation(mlp: &Mlp, i: usize) -> Activation {
    if i + 1 == mlp.layers().len() {
        mlp.output_activation()
    } else {
        mlp.hidden_activation()
    }
}

/// `grad ⊙ f'(preact)`, with the derivative taken at the pre-activation.
fn activation_backward(act: Activation, preact: &Matrix, grad: &Matrix) -> Matrix {
    let mut g = grad.clone();
    for (gv, &p) in g.data_mut().iter_mut().zip(preact.data()) {
        match act {
            Activation::Relu => {
                if p <= 0.0 {
                    *gv = 0.0;
                }
            }
            Activation::Tanh => {
                let t = p.tanh();
                *gv *= 1.0 - t * t;
            }
            Activation::Identity => {}
        }
    }
    g
}

/// What the training forward caches for backward.
pub struct Cache {
    inputs: Vec<Matrix>,
    preacts: Vec<Matrix>,
}

/// Layer-by-layer forward; returns the output and the backward cache.
pub fn forward_train(mlp: &Mlp, x: &Matrix) -> (Matrix, Cache) {
    let mut cache = Cache {
        inputs: Vec::new(),
        preacts: Vec::new(),
    };
    let mut h = x.clone();
    for (i, layer) in mlp.layers().iter().enumerate() {
        let mut pre = matmul_transpose_b(&h, &layer.w);
        for r in 0..pre.rows() {
            for (v, &b) in pre.row_mut(r).iter_mut().zip(&layer.b) {
                *v += b;
            }
        }
        let act = activation(mlp, i);
        cache.inputs.push(h);
        h = pre.map(|v| act.apply(v));
        cache.preacts.push(pre);
    }
    (h, cache)
}

/// The reference forward alone.
pub fn forward(mlp: &Mlp, x: &Matrix) -> Matrix {
    forward_train(mlp, x).0
}

/// Zero the gradients, then accumulate `dW = dYᵀ · X`, `db = Σ dY` into
/// every layer, propagating `dX = dY · W` down to the input.
pub fn backward(mlp: &mut Mlp, cache: &Cache, grad_out: &Matrix) {
    let mut grad = grad_out.clone();
    for i in (0..mlp.layers().len()).rev() {
        let act = activation(mlp, i);
        let g_pre = activation_backward(act, &cache.preacts[i], &grad);
        let layer = &mut mlp.layers_mut()[i];
        layer.gw.scale(0.0);
        let gw = transpose_a_matmul(&g_pre, &cache.inputs[i]);
        for (g, &d) in layer.gw.data_mut().iter_mut().zip(gw.data()) {
            *g += d;
        }
        let mut sums = vec![0.0; g_pre.cols()];
        for r in 0..g_pre.rows() {
            for (s, &v) in sums.iter_mut().zip(g_pre.row(r)) {
                *s += v;
            }
        }
        for (g, s) in layer.gb.iter_mut().zip(sums) {
            *g = 0.0;
            *g += s;
        }
        grad = matmul(&g_pre, &layer.w);
    }
}

/// Mean squared error and its gradient.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let n = pred.data().len() as f64;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

/// Masked softmax cross-entropy with per-row masks (`None` = all
/// allowed), mean over rows.
pub fn softmax_cross_entropy_masked_rows(
    logits: &Matrix,
    targets: &[usize],
    masks: &[Option<&[bool]>],
) -> (f64, Matrix) {
    let rows = logits.rows();
    let mut grad = Matrix::zeros(rows, logits.cols());
    let mut loss = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        let logp = log_softmax_masked(logits.row(r), masks[r]);
        loss -= logp[t];
        for (c, &lp) in logp.iter().enumerate() {
            grad[(r, c)] = if lp == f64::NEG_INFINITY {
                0.0
            } else {
                (lp.exp() - f64::from(u8::from(c == t))) / rows as f64
            };
        }
    }
    (loss / rows as f64, grad)
}

/// [`softmax_cross_entropy_masked_rows`] over a flat `rows × cols` mask.
pub fn softmax_cross_entropy_masked_flat(
    logits: &Matrix,
    targets: &[usize],
    masks: &[bool],
) -> (f64, Matrix) {
    let cols = logits.cols();
    let rows: Vec<Option<&[bool]>> = masks.chunks(cols).map(Some).collect();
    softmax_cross_entropy_masked_rows(logits, targets, &rows)
}
