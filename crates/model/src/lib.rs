//! CNN model representation for the PIMSYN reproduction.
//!
//! PIMSYN ([Li et al., DATE 2024]) takes a *trained, quantified* CNN as input
//! and synthesizes a processing-in-memory accelerator for it. This crate
//! provides everything the synthesis stack needs to know about a network:
//!
//! - [`Model`]: a directed acyclic graph of [`Layer`]s with shape inference,
//!   validation, and MAC/weight statistics.
//! - [`zoo`]: programmatic constructors for every benchmark network used in
//!   the paper's evaluation (AlexNet, VGG13, VGG16, MSRA, ResNet18, plus
//!   CIFAR-sized variants for the Gibbon comparison).
//! - [`onnx`]: an ONNX-style JSON ingestion path built on the from-scratch
//!   [`json`] parser (why it stands in for protobuf-based ONNX ingestion:
//!   `docs/ARCHITECTURE.md` §5).
//! - [`Precision`]: quantization metadata (the paper evaluates with 16-bit
//!   quantification).
//!
//! # Example
//!
//! ```
//! use pimsyn_model::zoo;
//!
//! let model = zoo::vgg16();
//! assert_eq!(model.weight_layers().count(), 16);
//! let stats = model.stats();
//! assert!(stats.total_macs > 15_000_000_000); // ~15.5 GMACs
//! ```
//!
//! [Li et al., DATE 2024]: https://arxiv.org/abs/2402.18114

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod json;
mod layer;
mod model;
pub mod onnx;
mod tensor;
pub mod zoo;

pub use error::ModelError;
pub use layer::{Layer, LayerId, LayerKind, PoolKind};
pub use model::{Model, ModelBuilder, ModelStats, Precision, WeightLayer};
pub use tensor::TensorShape;
