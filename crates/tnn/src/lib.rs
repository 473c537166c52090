//! Ternary-weight, quantized-activation DNN substrate.
//!
//! The CAM-only inference stack of the paper operates on ternary weight networks
//! (TWNs, weights in `{-1, 0, 1}`) with reduced-precision integer activations
//! (typically 4 or 8 bits). This crate provides everything the compiler and the
//! accelerator simulator need from the neural-network side:
//!
//! * [`Tensor`] — a minimal dense n-dimensional tensor,
//! * [`TernaryTensor`] — ternary weights with sparsity accounting and synthetic
//!   generation at a target sparsity,
//! * [`Quantizer`] — learned-step-size-style uniform activation quantization,
//! * [`layer`] / [`model`] — layer definitions and a small graph IR with builders for
//!   the evaluated networks (VGG-9, VGG-11 for CIFAR-10 and ResNet-18 for ImageNet),
//! * [`infer`] — a reference integer inference engine (the ground truth the
//!   associative processor must match bit-exactly),
//! * [`dataset`] / [`train`] — synthetic data and a tiny trainer used for the
//!   accuracy experiments that the paper runs on CIFAR-10/ImageNet (substituted here
//!   by an offline-trainable task; see README "Baselines and the accuracy
//!   substitute").
//!
//! # Example
//!
//! ```
//! use tnn::model::resnet18;
//!
//! let model = resnet18(0.8, 42);
//! let convs = model.conv_like_layers();
//! assert!(!convs.is_empty());
//! // The first ImageNet layer is the 7x7, stride-2 stem convolution.
//! assert_eq!(convs[0].kernel, (7, 7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataset;
mod error;
pub mod im2col;
pub mod infer;
pub mod layer;
pub mod model;
mod quant;
mod tensor;
mod ternary;
pub mod train;

pub use error::TnnError;
pub use quant::Quantizer;
pub use tensor::Tensor;
pub use ternary::TernaryTensor;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TnnError>;
