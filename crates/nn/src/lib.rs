//! # orco-nn
//!
//! A small, self-contained neural-network library with manual
//! backpropagation, written for the OrcoDCS reproduction.
//!
//! The paper's systems need exactly four model families, all of which this
//! crate supports from scratch on top of [`orco_tensor`]:
//!
//! * the **OrcoDCS asymmetric autoencoder** — a one-dense-layer encoder and
//!   a configurable stack of dense decoder layers with sigmoid activations;
//! * the **DCSNet baseline** — a dense measurement layer plus a
//!   4-convolutional-layer decoder;
//! * the **follow-up classifier** — a 2-conv-layer CNN with a dense head
//!   and softmax cross-entropy;
//! * **ablations** — arbitrary [`Sequential`] stacks of the above layers.
//!
//! Design choices:
//!
//! * Data flows as [`orco_tensor::Matrix`] batches, one flattened sample per
//!   row; conv layers carry their own `(C, H, W)` geometry.
//! * Every layer has one forward body, [`Layer::infer_into`], on `&self`
//!   with its scratch in a caller-owned [`Workspace`], so threads can share
//!   one model's weights; [`Layer::forward_into`] runs it in the layer's
//!   own workspace and keeps what the backward pass needs only when told it
//!   is training — inference disturbs no round in flight. There is one
//!   backward body, [`Layer::backward_into`], which
//!   writes `∂L/∂input` only for a caller that reads it. It sets each
//!   parameter's gradient to the batch's, inside the layer, where
//!   [`Optimizer`]s visit it in place as [`layer::Param`] views.
//! * Every layer reports per-sample forward/backward FLOP counts, which the
//!   WSN simulator converts into simulated training time (the paper's
//!   time-to-loss axis).
//! * All randomness is injected via [`orco_tensor::OrcoRng`].
//!
//! ## Quick start
//!
//! ```
//! use orco_nn::{Activation, Dense, Loss, Optimizer, Sequential};
//! use orco_tensor::{Matrix, OrcoRng};
//!
//! let mut rng = OrcoRng::from_label("doc-xor", 0);
//! let mut model = Sequential::new();
//! model.push(Dense::new(2, 8, Activation::Tanh, &mut rng));
//! model.push(Dense::new(8, 1, Activation::Sigmoid, &mut rng));
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.])?;
//! let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.])?;
//! let mut opt = Optimizer::adam(0.05);
//! let before = Loss::L2.value(&model.forward(&x, false), &y);
//! for _ in 0..200 {
//!     model.train_batch(&x, &y, &Loss::L2, &mut opt);
//! }
//! assert!(Loss::L2.value(&model.forward(&x, false), &y) < before);
//! # Ok::<(), orco_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod activation;
mod conv;
mod dense;
mod layer;
mod loss;
mod model;
mod optimizer;
mod pool;

pub mod gradcheck;
pub mod metrics;

pub use activation::Activation;
pub use conv::Conv2d;
pub use dense::Dense;
pub use layer::{Layer, Param, Workspace};
pub use loss::Loss;
pub use model::Sequential;
pub use optimizer::Optimizer;
pub use pool::MaxPool2d;
