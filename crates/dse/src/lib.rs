//! Design-space exploration for PIM CNN accelerator synthesis — the search
//! machinery of PIMSYN's Algorithm 1.
//!
//! The paper's design space (Table I) couples seven variable families:
//! `RatioRram`, per-layer weight duplication `WtDup`, crossbar size/cell
//! resolution, DAC resolution, macro partitioning `MacAlloc` (with
//! inter-layer macro sharing) and component allocation `CompAlloc`. Its
//! scale reaches ~10^27 for VGG13, so exhaustive traversal is impossible;
//! PIMSYN embeds two metaheuristics into the synthesis flow:
//!
//! - [`wt_dup_candidates`]: the SA-based weight-duplication filter
//!   (Sec. IV-A) keeping the top candidates under the Eq. (4) energy.
//! - [`explore_macro_partitioning`]: the EA of Alg. 2 with the paper's
//!   `i*1000 + n` gene encoding and `mutate_num` / `mutate_share` operators.
//! - [`allocate_components`]: the Eq. (6) closed-form water-filling.
//! - [`EvalCore`]: the pure scoring pipeline (components allocation plus
//!   the analytic model). Each EA run scores its candidates in its own
//!   [`DeltaSession`] on the calling thread: the session charges the
//!   budget, holds the run's memo, rescores misses incrementally and counts
//!   what it scored.
//! - [`run_dse`]: the full Algorithm 1 nest, with deterministic per-point
//!   seeds. With [`DseConfig::parallel`] set, one worker per core runs
//!   stages 1–2 across the design points, then takes the EA runs best bound
//!   first. A count budget (`max_evaluations`, `max_unique_evaluations`)
//!   overrides it with one thread in list order. Results and counters are
//!   the same either way.
//!
//! # Example
//!
//! ```no_run
//! use pimsyn_arch::Watts;
//! use pimsyn_dse::{run_dse, DseConfig};
//! use pimsyn_model::zoo;
//!
//! # fn main() -> Result<(), pimsyn_dse::DseError> {
//! let model = zoo::vgg16();
//! let outcome = run_dse(&model, &DseConfig::new(Watts(50.0)))?;
//! println!(
//!     "best: {:.2} TOPS/W after {} evaluations",
//!     outcome.report.efficiency_tops_per_watt(),
//!     outcome.evaluations
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod ctx;
mod delta;
mod ea;
mod error;
mod eval;
mod explore;
mod sa;
mod space;
mod sweep;

pub use alloc::{allocate_components, AllocPlan, AllocRequest};
pub use ctx::{
    CancelToken, EventSink, ExploreBudget, ExploreContext, NullSink, StopReason, SynthesisEvent,
    SynthesisStage,
};
pub use delta::{DeltaOutcome, DeltaSession};
pub use ea::{
    explore_macro_partitioning, mutate_share, EaConfig, EaOutcome, MacAllocGene, Objective,
    GENE_BASE,
};
pub use error::DseError;
pub use eval::{CandidateScore, EvalCore, EvaluatorStats};
pub use explore::{run_dse, run_dse_observed, DseConfig, DseOutcome, PointResult, WtDupStrategy};
pub use sa::{
    crossbars_used, no_duplication, sa_energy, woho_proportional, wt_dup_candidates, SaConfig,
};
pub use space::{DesignPoint, DesignSpace, RATIO_RRAM_CHOICES};
pub use sweep::{minimum_feasible_power, sweep_power, SweepPoint};
