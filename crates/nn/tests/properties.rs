//! Property tests of the NN substrate: softmax normalization, gradient
//! correctness against finite differences, and lossless serialization for
//! arbitrary shapes.

use dt_nn::{load_mlp, log_softmax_masked, save_mlp, Activation, Loss, Matrix, Mlp, TrainScratch};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn finite_logits() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-50.0f64..50.0, 2..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// exp(log_softmax) always sums to 1 over allowed classes, for any
    /// finite logits and any non-empty mask.
    #[test]
    fn log_softmax_normalizes(logits in finite_logits(), mask_bits in any::<u64>()) {
        let n = logits.len();
        let mut mask: Vec<bool> = (0..n).map(|i| mask_bits & (1 << i) != 0).collect();
        if !mask.iter().any(|&b| b) {
            mask[0] = true;
        }
        let lp = log_softmax_masked(&logits, Some(&mask));
        let total: f64 = lp.iter().map(|&v| v.exp()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        for (i, &v) in lp.iter().enumerate() {
            if !mask[i] {
                prop_assert_eq!(v, f64::NEG_INFINITY);
            } else {
                prop_assert!(v <= 1e-12);
            }
        }
    }

    /// log_softmax is shift-invariant.
    #[test]
    fn log_softmax_shift_invariant(logits in finite_logits(), shift in -100.0f64..100.0) {
        let a = log_softmax_masked(&logits, None);
        let shifted: Vec<f64> = logits.iter().map(|&v| v + shift).collect();
        let b = log_softmax_masked(&shifted, None);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-7);
        }
    }

    /// Cross-entropy gradients match central finite differences for random
    /// logits/targets.
    #[test]
    fn cross_entropy_gradient_is_exact(
        rows in 1usize..4,
        cols in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::RngExt;
        let logits: Vec<f64> = (0..rows * cols).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
        let targets: Vec<usize> = (0..rows).map(|_| rng.random_range(0..cols)).collect();
        let loss = Loss::CrossEntropy { targets: &targets, masks: None };
        let mut grad = vec![0.0; rows * cols];
        loss.eval(&logits, cols, &mut grad);
        let mut scratch = vec![0.0; rows * cols];
        let eps = 1e-6;
        for i in 0..rows * cols {
            let mut up = logits.clone();
            up[i] += eps;
            let mut dn = logits.clone();
            dn[i] -= eps;
            let fd = (loss.eval(&up, cols, &mut scratch) - loss.eval(&dn, cols, &mut scratch))
                / (2.0 * eps);
            prop_assert!((grad[i] - fd).abs() < 1e-5);
        }
    }

    /// MLP gradients match finite differences for random small networks.
    #[test]
    fn mlp_backprop_is_exact(seed in any::<u64>(), hidden in 2usize..6) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[3, hidden, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.6]]);
        let loss = Loss::Mse { targets: &[0.5, -0.5] };
        mlp.backprop(x.data(), 1, &loss, &mut TrainScratch::new());
        let loss_of = |m: &Mlp| loss.eval(m.forward(&x).data(), 2, &mut [0.0; 2]);
        let eps = 1e-6;
        // Check one weight per layer.
        for li in 0..mlp.layers().len() {
            let orig = mlp.layers()[li].w[(0, 0)];
            mlp.layers_mut()[li].w[(0, 0)] = orig + eps;
            let up = loss_of(&mlp);
            mlp.layers_mut()[li].w[(0, 0)] = orig - eps;
            let dn = loss_of(&mlp);
            mlp.layers_mut()[li].w[(0, 0)] = orig;
            let fd = (up - dn) / (2.0 * eps);
            prop_assert!((mlp.layers()[li].gw[(0, 0)] - fd).abs() < 1e-5);
        }
    }

    /// Serialization round-trips bit-exactly for arbitrary shapes and
    /// activations.
    #[test]
    fn serialization_round_trips(
        seed in any::<u64>(),
        dims in proptest::collection::vec(1usize..7, 2..5),
        act_pick in 0u8..3,
    ) {
        let act = match act_pick {
            0 => Activation::Relu,
            1 => Activation::Tanh,
            _ => Activation::Identity,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mlp = Mlp::new(&dims, act, Activation::Identity, &mut rng);
        let back = load_mlp(&save_mlp(&mlp)).unwrap();
        prop_assert_eq!(back.dims(), mlp.dims());
        let x = Matrix::from_vec(1, dims[0], vec![0.3; dims[0]]);
        let a = mlp.forward(&x);
        let b = back.forward(&x);
        prop_assert_eq!(a.data(), b.data());
    }

    /// flatten/set params round-trips through arbitrary vectors.
    #[test]
    fn param_vector_round_trips(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[2, 3, 2], Activation::Relu, Activation::Identity, &mut rng);
        let params = mlp.flatten_params();
        let doubled: Vec<f64> = params.iter().map(|&p| 2.0 * p).collect();
        mlp.set_params(&doubled);
        prop_assert_eq!(mlp.flatten_params(), doubled);
    }
}
