//! # orco-classifier
//!
//! The follow-up IoT application of the paper's evaluation (§IV-E): a
//! simple **2-layer convolutional neural network** trained on data
//! *reconstructed* by a compressed-sensing framework. The paper's Figure 5
//! compares the accuracy/loss of classifiers trained on OrcoDCS
//! reconstructions against DCSNet-30/50/70% reconstructions — the claim
//! being that OrcoDCS's noisy-latent training produces reconstructions
//! that are *better training data*, not merely lower-MSE pixels.
//!
//! ## Quick start
//!
//! ```
//! use orco_classifier::{Cnn, TrainConfig};
//! use orco_datasets::mnist_like;
//! use orco_tensor::OrcoRng;
//!
//! let train = mnist_like::generate(40, 0);
//! let test = mnist_like::generate(20, 1);
//! let mut rng = OrcoRng::from_label("doc-clf", 0);
//! let mut cnn = Cnn::new(train.kind(), &mut rng);
//! let curve = cnn.train_epochs(
//!     &train,
//!     &test,
//!     &TrainConfig { epochs: 2, batch_size: 8, learning_rate: 1e-3 },
//!     &mut rng,
//! );
//! assert_eq!(curve.len(), 2);
//! assert!(curve[1].test_accuracy >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cnn;

pub use cnn::{Cnn, EpochPoint, TrainConfig};
