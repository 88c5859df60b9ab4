//! **PIMSYN**: full-stack synthesis of processing-in-memory CNN accelerators
//! — a Rust reproduction of [Li et al., DATE 2024].
//!
//! Given a trained, quantified CNN and a total power constraint, PIMSYN
//! performs a one-click transformation into a crossbar-based PIM
//! accelerator: it decides per-layer weight duplication (SA-filtered),
//! compiles the network into a PIM IR dataflow, partitions layers across
//! macros (EA-explored, with inter-layer macro/ADC sharing) and allocates
//! peripheral components (closed-form water-filling), all inside a design-
//! space-exploration loop over `RatioRram`, crossbar size/resolution and DAC
//! resolution that maximizes power efficiency.
//!
//! # Quickstart
//!
//! One blocking call ([`Synthesizer`]):
//!
//! ```
//! use pimsyn::{Synthesizer, SynthesisOptions};
//! use pimsyn_arch::Watts;
//! use pimsyn_model::zoo;
//!
//! # fn main() -> Result<(), pimsyn::SynthesisError> {
//! let model = zoo::alexnet_cifar(10);
//! let options = SynthesisOptions::fast(Watts(6.0)); // reduced search effort
//! let result = Synthesizer::new(options).synthesize(&model)?;
//! assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Jobs, events, cancellation, batches
//!
//! The same flow runs as observable, cancellable, budgeted *jobs*. A job
//! reports its progress as [`SynthesisEvent`]s written into an
//! [`EventSink`] (any `Fn(SynthesisEvent) + Send + Sync` closure is one);
//! the stream is defined once, in [`pimsyn_dse`], where the search emits
//! it. [`SynthesisEngine::run`] runs one job on the calling thread,
//! [`SynthesisService::submit`] runs one off it, and
//! [`SynthesisEngine::synthesize_batch`] runs many:
//!
//! ```
//! use std::time::Duration;
//! use pimsyn::{
//!     CancelToken, NullSink, ServiceConfig, SynthesisEngine, SynthesisEvent, SynthesisOptions,
//!     SynthesisRequest, SynthesisService,
//! };
//! use pimsyn_arch::Watts;
//! use pimsyn_model::zoo;
//!
//! // A submitted job streams progress events and can be cancelled.
//! let service = SynthesisService::new(ServiceConfig::default());
//! let job = service
//!     .submit(SynthesisRequest::new(
//!         zoo::alexnet_cifar(10),
//!         SynthesisOptions::fast(Watts(6.0))
//!             .with_seed(3)
//!             .with_time_budget(Duration::from_secs(60)),
//!     ))
//!     .expect("queue has room");
//! for event in job.events() {
//!     if let SynthesisEvent::ImprovedBest { fitness, .. } = event {
//!         eprintln!("new best: {fitness:.3} TOPS/W");
//!     }
//! }
//! let result = job.await_result().expect("feasible at 6 W");
//! service.shutdown();
//!
//! // A batch fans several requests over a worker pool; one infeasible
//! // job does not fail the rest.
//! let batch = SynthesisEngine::new().synthesize_batch(
//!     &[
//!         SynthesisRequest::new(zoo::alexnet_cifar(10), SynthesisOptions::fast(Watts(6.0))),
//!         SynthesisRequest::new(zoo::alexnet_cifar(10), SynthesisOptions::fast(Watts(0.01))),
//!     ],
//!     &NullSink,
//!     &CancelToken::new(),
//! );
//! assert!(batch[0].is_ok());
//! assert!(batch[1].is_err());
//! # let _ = result;
//! ```
//!
//! # Service mode
//!
//! For sweep-shaped workloads (power sweeps, model zoos, objective grids),
//! [`SynthesisService`] runs as a long-lived daemon: a bounded job queue
//! drained by concurrent job slots, with weighted-fair scheduling across
//! tenants. The `pimsyn-gateway` crate exposes it over HTTP
//! (`pimsyn gateway` on the CLI).
//! [`SynthesisEngine::synthesize_batch`] is a thin client of a private
//! service; its results stay bit-identical to standalone runs.
//!
//! The companion crates expose the substrates: [`pimsyn_model`] (CNNs),
//! [`pimsyn_arch`] (hardware), [`pimsyn_ir`] (dataflow IR), [`pimsyn_sim`]
//! (simulators) and [`pimsyn_dse`] (search).
//!
//! [Li et al., DATE 2024]: https://arxiv.org/abs/2402.18114

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod error;
mod events;
mod options;
mod report;
mod request;
mod service;
mod summary;
mod synthesis;

pub use engine::SynthesisEngine;
pub use error::SynthesisError;
pub use events::event_to_json;
pub use options::{Effort, SynthesisOptions};
pub use request::SynthesisRequest;
pub use service::{
    JobHandle, JobStatus, ServiceConfig, ServiceError, ServiceSnapshot, SynthesisService,
    TenantCounts, TenantPolicy,
};
pub use summary::SynthesisSummary;
pub use synthesis::{SynthesisResult, Synthesizer};

// Re-export the vocabulary types users need at the API boundary.
pub use pimsyn_arch::{Architecture, MacroMode, Watts};
pub use pimsyn_dse::{
    CancelToken, DesignPoint, DesignSpace, EvaluatorStats, EventSink, NullSink, Objective,
    StopReason, SynthesisEvent, SynthesisStage, WtDupStrategy,
};
pub use pimsyn_sim::SimReport;
