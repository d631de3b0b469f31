//! Optimizers: SGD (with momentum) and Adam.

use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<(Matrix, Vec<f64>)>,
}

impl Sgd {
    /// SGD without momentum.
    pub fn new(lr: f64) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Apply one update from the accumulated gradients.
    pub fn step(&mut self, mlp: &mut Mlp) {
        if self.velocity.is_empty() {
            self.velocity = mlp
                .layers()
                .iter()
                .map(|l| (Matrix::zeros(l.w.rows(), l.w.cols()), vec![0.0; l.b.len()]))
                .collect();
        }
        for (layer, (vw, vb)) in mlp.layers_mut().iter_mut().zip(&mut self.velocity) {
            for ((w, &g), v) in layer
                .w
                .data_mut()
                .iter_mut()
                .zip(layer.gw.data())
                .zip(vw.data_mut())
            {
                *v = self.momentum * *v - self.lr * g;
                *w += *v;
            }
            for ((b, &g), v) in layer.b.iter_mut().zip(&layer.gb).zip(vb.iter_mut()) {
                *v = self.momentum * *v - self.lr * g;
                *b += *v;
            }
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    state: Vec<AdamLayerState>,
}

#[derive(Debug, Clone)]
struct AdamLayerState {
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Adam {
    /// Adam with the canonical hyperparameters and a custom learning rate.
    pub fn with_lr(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Fully custom Adam.
    pub fn new(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Change the learning rate (e.g. for decay schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Apply one update from the accumulated gradients.
    pub fn step(&mut self, mlp: &mut Mlp) {
        if self.state.is_empty() {
            self.state = mlp
                .layers()
                .iter()
                .map(|l| AdamLayerState {
                    mw: Matrix::zeros(l.w.rows(), l.w.cols()),
                    vw: Matrix::zeros(l.w.rows(), l.w.cols()),
                    mb: vec![0.0; l.b.len()],
                    vb: vec![0.0; l.b.len()],
                })
                .collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (layer, st) in mlp.layers_mut().iter_mut().zip(&mut self.state) {
            for (((w, &g), m), v) in layer
                .w
                .data_mut()
                .iter_mut()
                .zip(layer.gw.data())
                .zip(st.mw.data_mut())
                .zip(st.vw.data_mut())
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                *w -= self.lr * (*m / bc1) / ((*v / bc2).sqrt() + self.eps);
            }
            for (((b, &g), m), v) in layer
                .b
                .iter_mut()
                .zip(&layer.gb)
                .zip(st.mb.iter_mut())
                .zip(st.vb.iter_mut())
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                *b -= self.lr * (*m / bc1) / ((*v / bc2).sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::loss::Loss;
    use crate::TrainScratch;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn train(opt_is_adam: bool, steps: usize) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut mlp = Mlp::new(
            &[2, 12, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        // XOR-ish continuous target: y = x0 * x1.
        let x = Matrix::from_rows(&[
            &[-1.0, -1.0],
            &[-1.0, 1.0],
            &[1.0, -1.0],
            &[1.0, 1.0],
            &[0.5, 0.5],
            &[-0.5, 0.5],
        ]);
        let y: Vec<f64> = x.data().chunks(2).map(|p| p[0] * p[1]).collect();
        let loss = Loss::Mse { targets: &y };
        let mut scratch = TrainScratch::new();
        let mut sgd = Sgd::with_momentum(0.05, 0.9);
        let mut adam = Adam::with_lr(0.01);
        let mut last = 0.0;
        for _ in 0..steps {
            last = if opt_is_adam {
                mlp.train_step(x.data(), 6, &loss, f64::INFINITY, &mut adam, &mut scratch)
            } else {
                let l = mlp.backprop(x.data(), 6, &loss, &mut scratch);
                sgd.step(&mut mlp);
                l
            };
        }
        last
    }

    #[test]
    fn adam_learns_xor() {
        assert!(train(true, 600) < 1e-2);
    }

    #[test]
    fn sgd_momentum_learns_xor() {
        assert!(train(false, 800) < 5e-2);
    }

    #[test]
    fn adam_lr_accessors() {
        let mut a = Adam::with_lr(0.01);
        assert_eq!(a.lr(), 0.01);
        a.set_lr(0.001);
        assert_eq!(a.lr(), 0.001);
    }

    #[test]
    fn adam_first_step_size_is_bounded_by_lr() {
        // With bias correction, |Δw| ≈ lr on the first step regardless of
        // gradient magnitude.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut mlp = Mlp::new(
            &[1, 1],
            Activation::Identity,
            Activation::Identity,
            &mut rng,
        );
        let w0 = mlp.layers()[0].w[(0, 0)];
        let x = Matrix::from_rows(&[&[1000.0]]);
        let target = [mlp.forward(&x).data()[0] + 1e6];
        let mut adam = Adam::with_lr(0.01);
        let loss = Loss::Mse { targets: &target };
        mlp.train_step(
            x.data(),
            1,
            &loss,
            f64::INFINITY,
            &mut adam,
            &mut TrainScratch::new(),
        );
        let dw = (mlp.layers()[0].w[(0, 0)] - w0).abs();
        assert!(dw <= 0.011, "first Adam step {dw} must be ~lr");
    }
}
