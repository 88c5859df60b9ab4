//! The end-to-end synthesis flow (Fig. 3): CNN + power constraint in,
//! architecture + dataflow schedule + evaluation out.

use std::time::Duration;

use pimsyn_arch::Architecture;
use pimsyn_dse::{CancelToken, NullSink, PointResult, StopReason};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::SimReport;

use crate::engine::SynthesisEngine;
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;
use crate::report;
use crate::request::SynthesisRequest;

/// The PIMSYN synthesizer: turn-key transformation of CNN applications into
/// PIM accelerator implementations.
///
/// # Example
///
/// ```no_run
/// use pimsyn::{Synthesizer, SynthesisOptions};
/// use pimsyn_arch::Watts;
/// use pimsyn_model::zoo;
///
/// # fn main() -> Result<(), pimsyn::SynthesisError> {
/// let synth = Synthesizer::new(SynthesisOptions::new(Watts(50.0)));
/// let result = synth.synthesize(&zoo::vgg16())?;
/// println!("{}", result.report_text());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer {
    options: SynthesisOptions,
}

impl Synthesizer {
    /// Creates a synthesizer with the given options.
    pub fn new(options: SynthesisOptions) -> Self {
        Self { options }
    }

    /// The configured options.
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Runs the full four-stage synthesis (weight duplication, dataflow
    /// compilation, macro partitioning, components allocation) with the
    /// embedded DSE flow, returning the power-efficiency-optimal
    /// implementation found.
    ///
    /// This is the one-call facade over a single-job
    /// [`SynthesisEngine`](crate::SynthesisEngine) run with no observer; use
    /// the engine directly for progress events, cancellation, budgets, or
    /// batches.
    ///
    /// # Errors
    ///
    /// - [`SynthesisError::Dse`] when no feasible accelerator exists under
    ///   the power constraint.
    /// - [`SynthesisError::Sim`] if the optional cycle validation fails.
    pub fn synthesize(&self, model: &Model) -> Result<SynthesisResult, SynthesisError> {
        let request = SynthesisRequest::new(model.clone(), self.options.clone());
        SynthesisEngine::new().run(&request, &NullSink, &CancelToken::new())
    }
}

/// The complete output of one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The input model (kept for reporting).
    pub model: Model,
    /// The synthesized accelerator.
    pub architecture: Architecture,
    /// The compiled dataflow schedule.
    pub dataflow: Dataflow,
    /// Winning weight-duplication factors, one per layer.
    pub wt_dup: Vec<usize>,
    /// Analytic evaluation (what the DSE optimized).
    pub analytic: SimReport,
    /// Cycle-accurate evaluation, when requested.
    pub cycle: Option<SimReport>,
    /// Candidate architectures evaluated during exploration.
    pub evaluations: usize,
    /// Per-design-point exploration history.
    pub history: Vec<PointResult>,
    /// Whether the search ran to completion or stopped on a time /
    /// evaluation budget.
    pub stop_reason: StopReason,
    /// Wall-clock synthesis time.
    pub elapsed: Duration,
}

impl SynthesisResult {
    /// The most accurate available evaluation: cycle-accurate when present,
    /// analytic otherwise.
    pub fn best_report(&self) -> &SimReport {
        self.cycle.as_ref().unwrap_or(&self.analytic)
    }

    /// Peak power efficiency of the winner in TOPS/W at the model's
    /// precision (the paper's Table IV metric).
    pub fn peak_efficiency(&self) -> f64 {
        let p = self.model.precision();
        self.architecture
            .peak_power_efficiency(p.activation_bits(), p.weight_bits())
    }

    /// Renders the full human-readable synthesis report.
    pub fn report_text(&self) -> String {
        report::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Effort;
    use pimsyn_arch::Watts;
    use pimsyn_model::zoo;

    fn fast_options() -> SynthesisOptions {
        SynthesisOptions::fast(Watts(6.0)).with_seed(3)
    }

    #[test]
    fn synthesize_cifar_alexnet_end_to_end() {
        let model = zoo::alexnet_cifar(10);
        let result = Synthesizer::new(fast_options()).synthesize(&model).unwrap();
        assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
        assert!(result.peak_efficiency() > 0.0);
        assert_eq!(result.wt_dup.len(), model.weight_layer_count());
        result.architecture.validate(&model).unwrap();
        assert!(result.evaluations > 0);
        assert!(!result.history.is_empty());
    }

    #[test]
    fn cycle_validation_produces_second_report() {
        let model = zoo::alexnet_cifar(10);
        let opts = fast_options().with_cycle_validation(2);
        let result = Synthesizer::new(opts).synthesize(&model).unwrap();
        let cyc = result.cycle.as_ref().expect("cycle report");
        assert!(cyc.latency.value() > 0.0);
        assert!(std::ptr::eq(result.best_report(), cyc));
    }

    #[test]
    fn zero_cycle_images_skip_cycle_validation() {
        let model = zoo::alexnet_cifar(10);
        let opts = fast_options().with_cycle_validation(0);
        let result = Synthesizer::new(opts).synthesize(&model).unwrap();
        assert!(result.cycle.is_none());
    }

    #[test]
    fn report_text_is_complete() {
        let model = zoo::alexnet_cifar(10);
        let result = Synthesizer::new(fast_options()).synthesize(&model).unwrap();
        let text = result.report_text();
        assert!(text.contains("alexnet-cifar"));
        assert!(text.contains("TOPS/W"));
        assert!(text.contains("WtDup"));
        assert!(text.contains("power breakdown"));
    }

    #[test]
    fn effort_presets_differ_in_evaluations() {
        // The two presets must lower to genuinely different search scales:
        // Paper traverses a strictly larger design space with strictly
        // larger metaheuristic budgets (Table I: 36 outer points, 30 SA
        // candidates; the fast preset is a reduced smoke configuration).
        let fast = SynthesisOptions::fast(Watts(6.0)).to_dse_config();
        let paper = SynthesisOptions::new(Watts(6.0)).to_dse_config();
        assert!(
            paper.space.outer_len() > fast.space.outer_len(),
            "paper space ({}) must exceed fast space ({})",
            paper.space.outer_len(),
            fast.space.outer_len()
        );
        assert_eq!(paper.space.outer_len(), 36);
        assert!(paper.space.dacs().len() > fast.space.dacs().len());
        assert!(paper.sa.candidates > fast.sa.candidates);
        assert!(paper.sa.iterations > fast.sa.iterations);
        assert!(paper.ea.population > fast.ea.population);
        assert!(paper.ea.generations > fast.ea.generations);

        // Both lower coherently: the explicit effort field is what decides
        // the space, and shared knobs (power, seed) survive the lowering.
        for (opts, cfg) in [
            (SynthesisOptions::fast(Watts(6.0)), &fast),
            (SynthesisOptions::new(Watts(6.0)), &paper),
        ] {
            assert_eq!(cfg.total_power, opts.power_budget);
            assert_eq!(cfg.seed, opts.seed);
            assert_eq!(cfg.ea.allow_sharing, opts.allow_macro_sharing);
        }

        // And the larger preset really evaluates more candidates end to
        // end, on a space small enough to keep the test quick: pin a
        // single-point space and scale only the metaheuristic budgets.
        let model = zoo::alexnet_cifar(10);
        let space = pimsyn_dse::DesignSpace::single(
            0.3,
            pimsyn_arch::CrossbarConfig::new(128, 2).unwrap(),
            1,
        );
        let small = Synthesizer::new(fast_options().with_design_space(space.clone()))
            .synthesize(&model)
            .unwrap();
        let mut larger_opts = fast_options().with_design_space(space);
        larger_opts.effort = Effort::Paper;
        larger_opts.max_evaluations = Some(small.evaluations * 3);
        let larger = Synthesizer::new(larger_opts).synthesize(&model).unwrap();
        assert!(
            larger.evaluations > small.evaluations,
            "paper-effort run ({}) must evaluate more than fast run ({})",
            larger.evaluations,
            small.evaluations
        );
    }
}
