//! # dt-nn
//!
//! A small, dependency-free dense neural-network library with explicit
//! backpropagation, written for DeepThermo's two models:
//!
//! * the **surrogate energy model** (regression MLP over pair-correlation
//!   descriptors), and
//! * the **deep proposal network** (classification MLP over local-context
//!   descriptors with composition-constrained softmax heads).
//!
//! The paper trains its networks with PyTorch on V100/MI250X GPUs; here the
//! models are small enough (10³–10⁵ parameters) that a straightforward
//! `f64` CPU implementation trains in milliseconds while keeping the exact
//! semantics the samplers need — in particular *numerically exact
//! log-probabilities* for Metropolis–Hastings corrections, which is why the
//! whole crate works in `f64`.
//!
//! There is **one engine** for inference and training, built on the same
//! register-tiled, sequential-k-order kernels and allocation-free once
//! its scratch is warm:
//!
//! * inference — the batch-first [`Mlp::forward_into`], fed from a
//!   [`ForwardScratch`] (see the [`infer`] module), bit-identical per
//!   row for any batch size `rows ≥ 1`; [`Mlp::forward`] is a one-shot
//!   allocating wrapper around it;
//! * training — [`Mlp::train_step`] (forward → [`Loss`] gradient →
//!   backward → clip → [`Adam`]), fed from a [`TrainScratch`]; its
//!   gradient half is [`Mlp::backprop`].
//!
//! The kernels underneath are implementation details and not part of the
//! public API.
//!
//! ```
//! use dt_nn::{Activation, Adam, Loss, Mlp, TrainScratch};
//! use rand::SeedableRng;
//!
//! // Learn y = x0 * x1 from three row-major samples.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut adam = Adam::with_lr(1e-2);
//! let mut scratch = TrainScratch::new();
//! let x = [0.5, -0.5, 1.0, 1.0, -1.0, 0.25];
//! let loss = Loss::Mse { targets: &[-0.25, 1.0, -0.25] };
//! let mut last = f64::INFINITY;
//! for _ in 0..200 {
//!     last = mlp.train_step(&x, 3, &loss, f64::INFINITY, &mut adam, &mut scratch);
//! }
//! assert!(last < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod infer;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod serialize;

pub use infer::{ForwardScratch, TrainScratch};
pub use layer::{Activation, Linear};
pub use loss::{log_softmax_masked, log_softmax_masked_into, sample_categorical, Loss};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::{Adam, Sgd};
pub use serialize::{load_mlp, load_mlp_from_file, save_mlp, save_mlp_to_file, NnFormatError};
