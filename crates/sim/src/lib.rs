//! Performance evaluation for PIM CNN accelerators: a cycle-accurate
//! IR-based behavior-level simulator plus a closed-form analytical model.
//!
//! The paper evaluates every synthesized accelerator with "a cycle-accurate
//! IR-based behavior-level simulator" (Sec. V) and steers its DSE with a
//! cheaper estimate derived from the IR DAG's depth and latencies
//! (Sec. IV-B). This crate provides both:
//!
//! - [`simulate`]: discrete-event execution of the compiled
//!   [`Dataflow`](pimsyn_ir::Dataflow) on an
//!   [`Architecture`](pimsyn_arch::Architecture), with resource contention
//!   (shared ADC banks, scratchpad ports, NoC egress), fine-grained
//!   inter-layer pipelining, and multi-image steady-state measurement.
//! - [`evaluate_analytic`]: the fast pipeline-period model used inside the
//!   DSE loops (thousands of evaluations per synthesis).
//! - [`SimReport`]: latency / throughput / energy / EDP / TOPS-per-watt, the
//!   exact metrics of the paper's Tables IV-V and Figs. 6-9.
//!
//! # Example
//!
//! ```no_run
//! use pimsyn_sim::{evaluate_analytic, simulate};
//! # fn get() -> (pimsyn_model::Model, pimsyn_ir::Dataflow, pimsyn_arch::Architecture) {
//! #     unimplemented!()
//! # }
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (model, dataflow, arch) = get();
//! let quick = evaluate_analytic(&model, &dataflow, &arch)?;
//! let precise = simulate(&model, &dataflow, &arch, 4)?;
//! println!("analytic {quick}\ncycle    {precise}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytic;
mod engine;
mod error;
mod metrics;
mod stages;

pub use analytic::{
    evaluate_analytic, solve_pipeline, solve_pipeline_into, summarize_pipeline, AnalyticSummary,
    PipelineSolution,
};
pub use engine::{simulate, MAX_SIMULATED_BLOCKS};
pub use error::SimError;
pub use metrics::{LayerPerf, SimReport, StageKind, Utilization};
pub use stages::{compute_layer_stages, compute_stages, LayerCostInputs, LayerStages};
