//! Dataflow compilation for the PIMSYN reproduction.
//!
//! The dataflow-compilation stage (Sec. IV-B of the paper) lowers a CNN to
//! the IRs of Table II under Fig. 4's inter-layer dependencies; hardware
//! exploration then reduces to finding the best resource allocation for
//! those IRs. The schedule is held as per-block counts, not op by op:
//!
//! - [`Dataflow`]: the compiled network, one [`LayerProgram`] per weight
//!   layer, plus the Fig. 4 dependency query
//!   [`Dataflow::producer_blocks_needed`].
//! - [`LayerProgram`]: one layer's block/bit structure and how many of each
//!   Table II IR class a block issues (`adc_samples`, `shift_add_ops`,
//!   `load_elems`/`store_elems`, `act_ops`/`pool_ops`/`eltwise_ops`). The
//!   performance models cost these counts and components allocation reads
//!   them as Eq. (6)'s workloads.
//! - [`pipeline`]: the fine-grained inter-layer dependency arithmetic.
//! - [`IrError`]: why a dataflow does not compile.
//!
//! # Example
//!
//! ```
//! use pimsyn_arch::{CrossbarConfig, DacConfig};
//! use pimsyn_ir::Dataflow;
//! use pimsyn_model::zoo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = zoo::alexnet_cifar(10);
//! let dup = vec![2; model.weight_layer_count()];
//! let df = Dataflow::compile(
//!     &model,
//!     CrossbarConfig::new(128, 2)?,
//!     DacConfig::new(2)?,
//!     &dup,
//! )?;
//! // 16-bit activations at 2-bit DAC: 8 bit-iterations per block.
//! assert_eq!(df.program(0).bits, 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod error;
pub mod pipeline;
mod program;

pub use compile::Dataflow;
pub use error::IrError;
pub use program::LayerProgram;
