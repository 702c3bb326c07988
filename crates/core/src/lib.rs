//! # orcodcs
//!
//! The paper's core contribution: an **IoT-Edge orchestrated online deep
//! compressed sensing framework** (OrcoDCS, ICDCS 2023).
//!
//! OrcoDCS replaces both the random measurement matrices of classical
//! compressed data aggregation and the offline-trained models of deep CDA
//! with an **asymmetric autoencoder trained online, in place, by the data
//! aggregator and the edge server together**:
//!
//! * a one-dense-layer encoder lives on the **data aggregator** (eq. 1) —
//!   cheap enough for a gateway-class device;
//! * Gaussian noise is injected into the latent vectors (eq. 2) to widen
//!   the decoder's learning space and robustify reconstructions;
//! * a configurable-depth decoder lives on the **edge server** (eq. 3);
//! * training minimizes a Huber reconstruction loss (eq. 4–5) with the
//!   gradient split across the two machines — latent vectors flow up,
//!   reconstructions and latent gradients flow back down;
//! * after training, the encoder is **distributed column-wise to the IoT
//!   devices** (§III-C) so compressed aggregation happens in-network along
//!   a chain, and a **fine-tuning monitor** (§III-D) relaunches training
//!   when environmental drift degrades reconstructions.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |-------|--------|
//! | §III-B encoder/decoder/noise/loss | `autoencoder`, `decoder`, `noise` |
//! | §III-B training procedure | `orchestrator`, `history` |
//! | §III-C encoder distribution | `distribution` |
//! | §III-C compressed aggregation | [`aggregation`] |
//! | §III-D model fine-tuning | `monitor` |
//! | §IV experiment pipeline | [`codec`], [`pipeline`] |
//!
//! ## Quick start
//!
//! Every experiment — OrcoDCS or a baseline — runs through one pipeline:
//! implement (or pick) a [`Codec`], assemble an [`ExperimentBuilder`], and
//! project what you need from the returned [`pipeline::Report`].
//!
//! ```
//! use orcodcs::{AsymmetricAutoencoder, ExperimentBuilder, OrcoConfig};
//! use orco_datasets::mnist_like;
//!
//! // A miniature end-to-end run: aggregate, train online over the
//! // simulated deployment, distribute the encoder, measure the data plane.
//! let dataset = mnist_like::generate(40, 0);
//! let config = OrcoConfig::for_dataset(dataset.kind())
//!     .with_latent_dim(32)
//!     .with_batch_size(8);
//! let codec = AsymmetricAutoencoder::new(&config).expect("valid config");
//! let mut experiment = ExperimentBuilder::new()
//!     .dataset(&dataset)
//!     .codec(codec)
//!     .epochs(2)
//!     .batch_size(8)
//!     .build()
//!     .expect("consistent experiment");
//! let report = experiment.run().expect("simulation runs");
//! assert!(report.final_loss > 0.0);
//! assert!(report.rounds.len() >= 2);
//! assert!(report.data_plane.expect("measured").total_bytes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod autoencoder;
mod compression;
mod config;
mod decoder;
mod distribution;
mod error;
mod history;
mod monitor;
mod noise;
mod orchestrator;
mod split;

pub mod aggregation;
pub mod checkpoint;
pub mod codec;
pub mod multi_cluster;
pub mod pipeline;

pub use autoencoder::AsymmetricAutoencoder;
pub use checkpoint::EncoderCheckpoint;
pub use codec::{Codec, FrameDims, TrainSpec, Workspace};
pub use compression::GradCompression;
pub use config::OrcoConfig;
pub use distribution::EncoderColumns;
pub use error::OrcoError;
pub use history::{RoundStats, TrainingHistory};
pub use monitor::FineTuneMonitor;
pub use orchestrator::Orchestrator;
pub use pipeline::{
    ClusterScale, DeploymentSpec, Experiment, ExperimentBuilder, Report, TrainingMode,
};
pub use split::{SplitHalves, SplitModel};
