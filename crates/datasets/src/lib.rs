//! # orco-datasets
//!
//! Deterministic synthetic datasets standing in for MNIST and GTSRB.
//!
//! The paper evaluates OrcoDCS on two reconstruction tasks: grayscale digits
//! (MNIST, 28×28×1, 10 classes) and colour traffic signs (GTSRB, 32×32×3,
//! 43 classes, "varying light conditions and colorful backgrounds"). The
//! real datasets are not redistributable inside this offline reproduction,
//! so this crate synthesizes procedurally generated equivalents that
//! exercise exactly the same code paths:
//!
//! * [`mnist_like`] — digit glyphs rendered from seven-segment strokes with
//!   per-sample affine jitter, stroke-width variation, blur and pixel noise;
//! * [`gtsrb_like`] — traffic-sign images composed of a class-determined
//!   shape, rim colour and inner glyph under varying illumination and
//!   backgrounds.
//!
//! Both generators are fully deterministic given a seed, label-balanced,
//! and emit a [`Dataset`]: a design matrix with one flattened sample per
//! row (the layout every other crate consumes) plus integer labels.
//!
//! Supporting modules: `raster` (tiny software rasterizer) and [`drift`]
//! (environment-change simulation driving the paper's §III-D fine-tuning
//! monitor). The DCSNet-30/50/70% subsets of the paper's Figure 5 are
//! drawn by `orcodcs::codec::fraction_rows`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dataset;
mod raster;

pub mod drift;
pub mod gtsrb_like;
pub mod mnist_like;

pub use dataset::{Dataset, DatasetKind};
