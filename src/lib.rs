//! Umbrella crate for the PIMSYN reproduction workspace.
//!
//! This package exists to host the workspace-level [examples] and integration
//! tests; the actual functionality lives in the member crates, re-exported
//! here for convenience:
//!
//! - [`pimsyn`] — the synthesis framework (the paper's contribution)
//! - [`pimsyn_model`] — CNN model representation, zoo, and ingestion
//! - [`pimsyn_arch`] — hardware component library and architecture template
//! - [`pimsyn_ir`] — PIM intermediate representation and dataflow compiler
//! - [`pimsyn_sim`] — cycle-accurate behavior-level simulator
//! - [`pimsyn_dse`] — design-space exploration (SA filter, EA explorer, Alg. 1)
//! - [`pimsyn_baselines`] — manually-designed accelerator models and the Gibbon proxy
//! - [`pimsyn_gateway`] — multi-tenant HTTP/REST front end over the service
//!
//! [examples]: https://github.com/example/pimsyn-repro/tree/main/examples

pub use pimsyn;
pub use pimsyn_arch;
pub use pimsyn_baselines;
pub use pimsyn_dse;
pub use pimsyn_gateway;
pub use pimsyn_ir;
pub use pimsyn_model;
pub use pimsyn_sim;
