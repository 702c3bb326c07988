//! # orco-baselines
//!
//! The comparison systems of the OrcoDCS paper, implemented from scratch:
//!
//! * [`dcsnet`] — **DCSNet** (ref \[3\] of the paper), the deep-CDA baseline
//!   of the evaluation: a fixed 1024-dimensional latent space and a decoder
//!   of 4 convolutional layers, trained offline on a fraction (30/50/70%)
//!   of the data. It implements [`orcodcs::SplitModel`], so it can also be
//!   run through the same online orchestrated protocol the paper uses for
//!   its time-to-loss comparison.
//! * [`cs`] — **traditional compressed sensing**, the pre-deep-learning CDA
//!   the introduction motivates against: Gaussian measurement matrices and
//!   convex sparse reconstruction (ISTA, plus OMP) in a DCT basis. Its
//!   computational cost and dimension/sparsity-limited quality are exactly
//!   the drawbacks the paper cites.
//!
//! Both baselines implement [`orcodcs::Codec`] — [`Dcsnet`] directly, the
//! classical stack through [`cs::ClassicalCodec`] — so every comparison in
//! the figure harness and examples drives them through the same
//! `ExperimentBuilder` pipeline as OrcoDCS itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod crop;

pub mod cs;
pub mod dcsnet;

pub use dcsnet::Dcsnet;
