//! Dense `f32` tensors and the neural-network primitive kernels needed
//! by the autonomous-driving perception stack.
//!
//! The paper's two DNN-based bottlenecks — object detection (YOLO) and
//! object tracking (GOTURN) — are built from convolution, pooling,
//! activation and fully-connected layers (§4.2.2). This crate provides
//! those kernels over a simple owned NCHW tensor, along with exact
//! shape/stride machinery and typed errors. The layer-graph engine that
//! composes them lives in `adsim-dnn`.
//!
//! # Examples
//!
//! ```
//! use adsim_runtime::Runtime;
//! use adsim_tensor::{ops, simd, Tensor};
//!
//! // A 1x1x4x4 input convolved with a single 3x3 kernel.
//! let input = Tensor::from_fn([1, 1, 4, 4], |idx| idx[2] as f32 + idx[3] as f32);
//! let kernel = Tensor::filled([1, 1, 3, 3], 1.0 / 9.0);
//! let (rt, isa) = (Runtime::serial(), simd::active());
//! let out = ops::conv2d(&rt, isa, &input, &kernel, None, 1, 1).unwrap();
//! assert_eq!(out.shape().dims(), &[1, 1, 4, 4]);
//! ```

mod error;
pub mod ops;
mod shape;
pub mod simd;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
