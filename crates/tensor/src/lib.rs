//! # orco-tensor
//!
//! Dense linear-algebra primitives for the OrcoDCS reproduction.
//!
//! This crate is the computational foundation of the workspace: a row-major
//! [`Matrix`] of `f32` with the operations needed by a small neural-network
//! library (GEMM in all transpose flavours, broadcasting, reductions),
//! [`im2col()`]/[`col2im_into()`] lowering for convolutions, deterministic random
//! number generation ([`rng::OrcoRng`]), weight [`init`]ializers, and
//! descriptive [`stats`] (PSNR, mean/variance, histograms).
//!
//! No external BLAS or ML framework is used; everything is implemented from
//! scratch so the whole OrcoDCS system — encoder, decoder, baselines,
//! classifier — runs on exactly this code.
//!
//! ## Quick start
//!
//! ```
//! use orco_tensor::Matrix;
//!
//! let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])?;
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), (2, 2));
//! assert_eq!(c[(0, 0)], 58.0);
//! # Ok::<(), orco_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod matrix;
mod rng;
mod view;

pub mod im2col;
pub mod init;
pub mod parallel;
pub mod serialize;
pub mod stats;

pub use error::TensorError;
pub use im2col::{col2im_into, im2col, im2col_into, Conv2dGeom};
pub use matrix::Matrix;
pub use rng::{fnv1a64, OrcoRng};
pub use view::{MatView, MatViewMut, Panels};
