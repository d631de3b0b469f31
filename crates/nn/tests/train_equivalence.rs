//! Equivalence suite for the training engine: [`Mlp::train_step`] must be
//! **bit-identical** to the allocating `Matrix` reference path (forward
//! with cached pre-activations, loss, backward, clip, Adam) — loss,
//! every weight and bias gradient, and every parameter after the update
//! — over random shapes, activations, row counts and consecutive steps.
//! The deep kernel's sampler trajectory and golden fingerprints depend on
//! it.

mod reference;

use dt_nn::{Activation, Adam, Loss, Matrix, Mlp, TrainScratch};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn activation(pick: u8) -> Activation {
    match pick % 3 {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        _ => Activation::Identity,
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, i, g, w);
    }
    Ok(())
}

/// A random masked cross-entropy batch: targets and a flat mask that
/// allows each row's target.
fn ce_batch(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> (Vec<usize>, Vec<bool>) {
    let mut targets = Vec::with_capacity(rows);
    let mut masks = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let t = rng.random_range(0..cols);
        targets.push(t);
        masks.extend((0..cols).map(|c| c == t || rng.random::<f64>() < 0.6));
    }
    (targets, masks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Several consecutive steps of `train_step` reproduce the reference
    /// path bit for bit: loss, clipped gradients and updated parameters.
    #[test]
    fn train_step_is_bit_identical_to_reference(
        seed in any::<u64>(),
        dims in proptest::collection::vec(1usize..21, 2..5),
        rows in prop_oneof![Just(1usize), Just(2), 3usize..40],
        hidden_pick in 0u8..3,
        out_pick in 0u8..3,
        cross_entropy in any::<bool>(),
        clip in prop_oneof![Just(f64::INFINITY), 0.01f64..10.0],
        steps in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out_dim = *dims.last().unwrap();
        // Cross-entropy needs at least two classes to be interesting.
        let cross_entropy = cross_entropy && out_dim >= 2;
        let mut engine = Mlp::new(&dims, activation(hidden_pick), activation(out_pick), &mut rng);
        let mut refnet = engine.clone();
        let mut adam_engine = Adam::with_lr(1e-2);
        let mut adam_ref = Adam::with_lr(1e-2);
        let mut scratch = TrainScratch::new();

        for step in 0..steps {
            let x: Vec<f64> = (0..rows * dims[0])
                .map(|_| rng.random::<f64>() * 4.0 - 2.0)
                .collect();
            let xm = Matrix::from_vec(rows, dims[0], x.clone());
            let (out, cache) = reference::forward_train(&refnet, &xm);
            let (want_loss, grad, got_loss) = if cross_entropy {
                let (targets, masks) = ce_batch(&mut rng, rows, out_dim);
                let (l, g) = reference::softmax_cross_entropy_masked_flat(&out, &targets, &masks);
                let loss = Loss::CrossEntropy { targets: &targets, masks: Some(&masks) };
                let got = engine.train_step(&x, rows, &loss, clip, &mut adam_engine, &mut scratch);
                (l, g, got)
            } else {
                let y: Vec<f64> = (0..rows * out_dim).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
                let (l, g) = reference::mse_loss(&out, &Matrix::from_vec(rows, out_dim, y.clone()));
                let loss = Loss::Mse { targets: &y };
                let got = engine.train_step(&x, rows, &loss, clip, &mut adam_engine, &mut scratch);
                (l, g, got)
            };
            reference::backward(&mut refnet, &cache, &grad);
            refnet.clip_grad_norm(clip);
            adam_ref.step(&mut refnet);

            prop_assert_eq!(got_loss.to_bits(), want_loss.to_bits(), "step {} loss", step);
            for (li, (a, b)) in engine.layers().iter().zip(refnet.layers()).enumerate() {
                assert_bits_eq(a.gw.data(), b.gw.data(), &format!("step {step} layer {li} gw"))?;
                assert_bits_eq(&a.gb, &b.gb, &format!("step {step} layer {li} gb"))?;
            }
            assert_bits_eq(&engine.flatten_params(), &refnet.flatten_params(), &format!("step {step} params"))?;
        }
    }

    /// `backprop` alone (no clip, no update) matches the reference
    /// gradients, and a scratch warmed on a larger batch carries no state
    /// into a smaller one.
    #[test]
    fn backprop_gradients_are_bit_identical_across_batch_sizes(
        seed in any::<u64>(),
        hidden_pick in 0u8..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut engine = Mlp::new(&[15, 32, 32, 4], activation(hidden_pick), Activation::Identity, &mut rng);
        let mut refnet = engine.clone();
        let mut scratch = TrainScratch::for_mlp(&engine, 64);
        for rows in [64usize, 1, 7, 64, 33] {
            let x: Vec<f64> = (0..rows * 15).map(|_| rng.random::<f64>()).collect();
            let (targets, masks) = ce_batch(&mut rng, rows, 4);
            let (out, cache) = reference::forward_train(&refnet, &Matrix::from_vec(rows, 15, x.clone()));
            let (want, grad) = reference::softmax_cross_entropy_masked_flat(&out, &targets, &masks);
            reference::backward(&mut refnet, &cache, &grad);
            let loss = Loss::CrossEntropy { targets: &targets, masks: Some(&masks) };
            let got = engine.backprop(&x, rows, &loss, &mut scratch);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            for (a, b) in engine.layers().iter().zip(refnet.layers()) {
                assert_bits_eq(a.gw.data(), b.gw.data(), "gw")?;
                assert_bits_eq(&a.gb, &b.gb, "gb")?;
            }
        }
    }
}
