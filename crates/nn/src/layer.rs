//! Dense layers and activations with explicit backprop.

use rand::{Rng, RngExt};

use crate::matrix::Matrix;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op (used on output layers).
    Identity,
}

impl Activation {
    /// Apply the activation to one value: the scalar kernel every forward
    /// path builds on.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Relu => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            Activation::Tanh => v.tanh(),
            Activation::Identity => v,
        }
    }

    /// `grad ⊙= f'(·)` in place, with the derivative taken from the
    /// activation's *output* `h = f(p)` rather than its input `p`: ReLU
    /// keeps `grad` where `h > 0`, Tanh scales it by `1 − h²`.
    ///
    /// For finite `p` this is bit-identical to differentiating at `p`:
    /// `h > 0` exactly when `p > 0`, and `h` is the very `p.tanh()` the
    /// input form would recompute. The one divergence is a NaN
    /// pre-activation, which ReLU maps to `h = 0`: the gradient through
    /// it is zeroed here, where a `p ≤ 0` test would have let it through.
    pub(crate) fn backward_from_output(self, h: &[f64], grad: &mut [f64]) {
        match self {
            Activation::Relu => {
                for (g, &v) in grad.iter_mut().zip(h) {
                    if v <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for (g, &v) in grad.iter_mut().zip(h) {
                    *g *= 1.0 - v * v;
                }
            }
            Activation::Identity => {}
        }
    }

    /// Short tag used by the serializer.
    pub fn tag(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Identity => "id",
        }
    }

    /// Parse a serializer tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "relu" => Some(Activation::Relu),
            "tanh" => Some(Activation::Tanh),
            "id" => Some(Activation::Identity),
            _ => None,
        }
    }
}

/// A fully connected layer `y = x · Wᵀ + b`. Weights are stored
/// `out × in`; `gw`/`gb` hold the gradients of the last
/// [`crate::Mlp::backprop`].
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `out_dim × in_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f64>,
    /// Weight gradient.
    pub gw: Matrix,
    /// Bias gradient.
    pub gb: Vec<f64>,
}

impl Linear {
    /// He-initialized layer (good default for ReLU nets; harmless for
    /// tanh at these widths).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / in_dim as f64).sqrt();
        let mut w = Matrix::zeros(out_dim, in_dim);
        for v in w.data_mut() {
            // Box–Muller from two uniforms keeps us independent of
            // distribution crates.
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            *v = std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
        Linear {
            gw: Matrix::zeros(out_dim, in_dim),
            gb: vec![0.0; out_dim],
            b: vec![0.0; out_dim],
            w,
        }
    }

    /// Build from explicit parameters (deserialization).
    pub fn from_params(w: Matrix, b: Vec<f64>) -> Self {
        assert_eq!(w.rows(), b.len(), "bias length must equal out_dim");
        Linear {
            gw: Matrix::zeros(w.rows(), w.cols()),
            gb: vec![0.0; b.len()],
            w,
            b,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::mlp::Mlp;
    use crate::TrainScratch;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn relu_forward_backward() {
        let h: Vec<f64> = [-1.0, 2.0]
            .iter()
            .map(|&v| Activation::Relu.apply(v))
            .collect();
        assert_eq!(h, [0.0, 2.0]);
        let mut g = [5.0, 5.0];
        Activation::Relu.backward_from_output(&h, &mut g);
        assert_eq!(g, [0.0, 5.0]);
    }

    #[test]
    fn tanh_backward_matches_derivative() {
        let t = 0.3f64.tanh();
        let mut g = [1.0];
        Activation::Tanh.backward_from_output(&[Activation::Tanh.apply(0.3)], &mut g);
        assert!((g[0] - (1.0 - t * t)).abs() < 1e-12);
    }

    #[test]
    fn activation_tags_round_trip() {
        for a in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            assert_eq!(Activation::from_tag(a.tag()), Some(a));
        }
        assert_eq!(Activation::from_tag("nope"), None);
    }

    /// A one-layer network with no activation: exactly one `Linear`.
    fn single_layer(l: Linear) -> Mlp {
        Mlp::from_parts(vec![l], Activation::Identity, Activation::Identity)
    }

    #[test]
    fn linear_forward_known_values() {
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, -1.0]]);
        let net = single_layer(Linear::from_params(w, vec![0.5, 0.0]));
        let y = net.forward(&Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(y.data(), &[11.5, -4.0]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = single_layer(Linear::new(3, 2, &mut rng));
        let x = [0.1, -0.2, 0.3, 1.0, 0.5, -0.5];
        let y = [0.3, -0.1, 0.2, 0.7];
        let loss = Loss::Mse { targets: &y };
        let mut scratch = TrainScratch::new();
        net.backprop(&x, 2, &loss, &mut scratch);
        let loss_of = |net: &Mlp| {
            let out = net.forward(&Matrix::from_vec(2, 3, x.to_vec()));
            let mut g = [0.0; 4];
            loss.eval(out.data(), 2, &mut g)
        };

        let eps = 1e-6;
        for (r, c) in [(0, 0), (1, 2)] {
            let orig = net.layers()[0].w[(r, c)];
            net.layers_mut()[0].w[(r, c)] = orig + eps;
            let up = loss_of(&net);
            net.layers_mut()[0].w[(r, c)] = orig - eps;
            let dn = loss_of(&net);
            net.layers_mut()[0].w[(r, c)] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (net.layers()[0].gw[(r, c)] - fd).abs() < 1e-6,
                "gw({r},{c})"
            );
        }
        for j in 0..2 {
            let orig = net.layers()[0].b[j];
            net.layers_mut()[0].b[j] = orig + eps;
            let up = loss_of(&net);
            net.layers_mut()[0].b[j] = orig - eps;
            let dn = loss_of(&net);
            net.layers_mut()[0].b[j] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!((net.layers()[0].gb[j] - fd).abs() < 1e-6, "gb({j})");
        }
    }

    #[test]
    fn he_init_scale_is_reasonable() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let l = Linear::new(100, 50, &mut rng);
        let var: f64 = l.w.data().iter().map(|&v| v * v).sum::<f64>() / l.w.data().len() as f64;
        assert!((var - 0.02).abs() < 0.005, "He variance 2/100, got {var}");
        assert!(l.b.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn num_params_counts_weights_and_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(Linear::new(4, 3, &mut rng).num_params(), 15);
    }
}
