//! Synthesis options: everything a user can configure about the flow, with
//! paper-faithful defaults.

use std::time::Duration;

use pimsyn_arch::{HardwareParams, MacroMode, Watts};
use pimsyn_dse::{
    DesignSpace, DseConfig, EaConfig, ExploreBudget, Objective, SaConfig, WtDupStrategy,
};

/// How much search effort to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Effort {
    /// Reduced design space and small SA/EA budgets — seconds, for smoke
    /// runs, tests and interactive use.
    Fast,
    /// The paper's full Algorithm 1 traversal (36 outer points, 30 SA
    /// candidates, 3 DAC resolutions) — minutes.
    #[default]
    Paper,
}

/// Configuration for [`Synthesizer`](crate::Synthesizer).
///
/// # Example
///
/// ```
/// use pimsyn::{Effort, SynthesisOptions};
/// use pimsyn_arch::Watts;
///
/// let opts = SynthesisOptions::new(Watts(50.0))
///     .with_effort(Effort::Fast)
///     .with_seed(7)
///     .without_macro_sharing();
/// assert_eq!(opts.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisOptions {
    /// Total power constraint — a primary input of PIMSYN (Fig. 3).
    pub power_budget: Watts,
    /// Device/circuit constants (Table III defaults).
    pub hw: HardwareParams,
    /// Search effort preset.
    pub effort: Effort,
    /// Optional design-space override; `None` uses the effort preset's
    /// space. Useful to pin the PIM variables (e.g. large crossbars for
    /// ImageNet-scale classifiers).
    pub space: Option<DesignSpace>,
    /// Weight-duplication strategy (stage 1); the SA filter by default.
    pub strategy: WtDupStrategy,
    /// Optimization objective (power efficiency by default; EDP for
    /// Gibbon-style comparisons).
    pub objective: Objective,
    /// Identical or specialized macros (Fig. 8).
    pub macro_mode: MacroMode,
    /// Explore inter-layer macro sharing (Fig. 9).
    pub allow_macro_sharing: bool,
    /// Run the search on one worker thread per core instead of the calling
    /// thread. Either way, stages 1–2 run at every outer design point
    /// first, then Alg. 1's EA runs go best bound first. With
    /// [`max_evaluations`](Self::max_evaluations) or
    /// [`max_unique_evaluations`](Self::max_unique_evaluations) set, points
    /// and runs go in list order on one thread instead, so the budget buys
    /// the same candidates in every run. Results and counters are the same
    /// either way.
    pub parallel: bool,
    /// Base RNG seed (the whole flow is deterministic given the seed).
    pub seed: u64,
    /// Images the cycle-accurate engine streams through the winning
    /// architecture to re-validate it; 0 (the default) skips the
    /// validation. More images sharpen the steady-state throughput
    /// estimate.
    pub cycle_images: usize,
    /// Wall-clock budget for the exploration. When it expires the search
    /// stops gracefully and returns the best implementation found so far.
    pub time_budget: Option<Duration>,
    /// Maximum candidate-architecture evaluations across the whole
    /// exploration; like [`time_budget`](Self::time_budget), exhaustion
    /// stops the search gracefully.
    pub max_evaluations: Option<usize>,
    /// Maximum *unique* evaluations (memo misses that actually run the
    /// scoring pipeline). With high cache-hit rates the scored-candidate
    /// budget and the work actually done diverge; this bounds the work.
    pub max_unique_evaluations: Option<usize>,
}

impl SynthesisOptions {
    /// Default base RNG seed. The whole flow is deterministic given the
    /// seed: two runs with identical options (and models) produce identical
    /// architectures, even with `parallel = true`.
    pub const DEFAULT_SEED: u64 = 0x9127_51AE;

    /// Paper-faithful options under the given power constraint.
    pub fn new(power_budget: Watts) -> Self {
        Self {
            power_budget,
            hw: HardwareParams::date24(),
            effort: Effort::Paper,
            space: None,
            strategy: WtDupStrategy::SimulatedAnnealing,
            objective: Objective::PowerEfficiency,
            macro_mode: MacroMode::Specialized,
            allow_macro_sharing: true,
            parallel: true,
            seed: Self::DEFAULT_SEED,
            cycle_images: 0,
            time_budget: None,
            max_evaluations: None,
            max_unique_evaluations: None,
        }
    }

    /// Fast-effort options (reduced space, small metaheuristic budgets).
    pub fn fast(power_budget: Watts) -> Self {
        Self {
            effort: Effort::Fast,
            parallel: false,
            ..Self::new(power_budget)
        }
    }

    /// Sets the search effort.
    pub fn with_effort(mut self, effort: Effort) -> Self {
        self.effort = effort;
        self
    }

    /// Sets the weight-duplication strategy.
    pub fn with_strategy(mut self, strategy: WtDupStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the traversed design space (otherwise the effort preset's).
    pub fn with_design_space(mut self, space: DesignSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Sets the optimization objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets identical vs specialized macro mode.
    pub fn with_macro_mode(mut self, mode: MacroMode) -> Self {
        self.macro_mode = mode;
        self
    }

    /// Disables inter-layer macro sharing (Fig. 9's "without reuse" arm).
    pub fn without_macro_sharing(mut self) -> Self {
        self.allow_macro_sharing = false;
        self
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables final cycle-accurate validation with `images` pipelined
    /// inferences (0 turns it off).
    pub fn with_cycle_validation(mut self, images: usize) -> Self {
        self.cycle_images = images;
        self
    }

    /// Overrides the hardware parameters.
    pub fn with_hardware(mut self, hw: HardwareParams) -> Self {
        self.hw = hw;
        self
    }

    /// Bounds exploration wall-clock time; on expiry the search returns the
    /// best implementation found so far.
    pub fn with_time_budget(mut self, limit: Duration) -> Self {
        self.time_budget = Some(limit);
        self
    }

    /// Bounds total candidate-architecture evaluations.
    pub fn with_max_evaluations(mut self, n: usize) -> Self {
        self.max_evaluations = Some(n);
        self
    }

    /// Bounds unique candidate evaluations (memo misses).
    pub fn with_max_unique_evaluations(mut self, n: usize) -> Self {
        self.max_unique_evaluations = Some(n);
        self
    }

    /// Lowers the configured budgets to the DSE layer (deadline anchored at
    /// the moment of the call).
    pub(crate) fn to_explore_budget(&self) -> ExploreBudget {
        let mut budget = ExploreBudget::unlimited();
        if let Some(limit) = self.time_budget {
            budget = budget.with_timeout(limit);
        }
        if let Some(n) = self.max_evaluations {
            budget = budget.with_max_evaluations(n);
        }
        if let Some(n) = self.max_unique_evaluations {
            budget = budget.with_max_unique_evaluations(n);
        }
        budget
    }

    /// Lowers to the DSE-layer configuration.
    pub(crate) fn to_dse_config(&self) -> DseConfig {
        let (space, sa, ea) = match self.effort {
            Effort::Fast => (DesignSpace::reduced(), SaConfig::fast(), EaConfig::fast()),
            Effort::Paper => (DesignSpace::paper(), SaConfig::paper(), EaConfig::paper()),
        };
        let space = self.space.clone().unwrap_or(space);
        DseConfig {
            total_power: self.power_budget,
            hw: self.hw.clone(),
            space,
            strategy: self.strategy.clone(),
            sa: SaConfig {
                seed: self.seed ^ 0x5A,
                ..sa
            },
            ea: EaConfig {
                seed: self.seed ^ 0xEA,
                allow_sharing: self.allow_macro_sharing,
                objective: self.objective,
                ..ea
            },
            macro_mode: self.macro_mode,
            parallel: self.parallel,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let o = SynthesisOptions::new(Watts(10.0))
            .with_effort(Effort::Fast)
            .with_macro_mode(MacroMode::Identical)
            .without_macro_sharing()
            .with_cycle_validation(5)
            .with_seed(42);
        assert_eq!(o.effort, Effort::Fast);
        assert_eq!(o.macro_mode, MacroMode::Identical);
        assert!(!o.allow_macro_sharing);
        assert_eq!(o.cycle_images, 5);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn backend_options_lower_to_dse_config_and_budget() {
        let o = SynthesisOptions::fast(Watts(8.0)).with_max_unique_evaluations(10);
        let budget = o.to_explore_budget();
        assert_eq!(budget.max_unique_evaluations, Some(10));
        assert_eq!(
            SynthesisOptions::new(Watts(8.0))
                .to_explore_budget()
                .max_unique_evaluations,
            None
        );
    }

    #[test]
    fn dse_config_reflects_options() {
        let o = SynthesisOptions::fast(Watts(8.0)).without_macro_sharing();
        let cfg = o.to_dse_config();
        assert!(!cfg.ea.allow_sharing);
        assert_eq!(cfg.total_power, Watts(8.0));
        assert!(cfg.space.outer_len() < 36);
        let p = SynthesisOptions::new(Watts(8.0)).to_dse_config();
        assert_eq!(p.space.outer_len(), 36);
    }
}
