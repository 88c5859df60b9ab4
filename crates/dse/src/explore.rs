//! The full DSE flow of Algorithm 1: traverse the PIM-related design space
//! (`RatioRram x ResRram x XbSize`), filter weight-duplication candidates
//! with SA, and for each candidate and DAC resolution run the EA-based macro
//! partitioning (which itself invokes components allocation and performance
//! evaluation). Outer design points are independent, so they run on scoped
//! worker threads with per-point deterministic seeds.
//!
//! Exploration is observable and controllable: [`run_dse_observed`] threads
//! an [`ExploreContext`] through every stage, emitting typed
//! [`ExploreEvent`](crate::ExploreEvent)s and honoring cancellation and
//! wall-clock / evaluation budgets. [`run_dse`] is the blocking, unobserved
//! wrapper.

use std::sync::Mutex;

use pimsyn_arch::{Architecture, DacConfig, HardwareParams, MacroMode, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::SimReport;

use crate::ctx::{ExploreContext, ExploreEvent, StopReason, SynthesisStage};
use crate::ea::{run_ea_counted, EaConfig};
use crate::error::DseError;
use crate::eval::CandidateEvaluator;
use crate::sa::{no_duplication, woho_proportional, wt_dup_candidates_counted, SaConfig};
use crate::space::{DesignPoint, DesignSpace};

/// How weight-duplication factors are chosen (stage 1 of the synthesis).
///
/// The paper's contribution is the SA filter; the other strategies are the
/// baselines of Fig. 7 and allow running them through the *same* macro
/// partitioning and components allocation stages.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum WtDupStrategy {
    /// SA-based filter (Sec. IV-A) — the paper's method.
    #[default]
    SimulatedAnnealing,
    /// `WtDup_i` proportional to `WO_i x HO_i` (ISAAC/PipeLayer heuristic).
    WohoProportional,
    /// One weight copy per layer (prior exploration works \[6\]\[7\]).
    NoDuplication,
    /// User-pinned duplication vectors (each must match the layer count).
    Fixed(Vec<Vec<usize>>),
}

/// Configuration of the complete exploration flow.
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// The user's total power constraint (the paper's primary input).
    pub total_power: Watts,
    /// Device constants (Table III defaults).
    pub hw: HardwareParams,
    /// Design space to traverse (Table I).
    pub space: DesignSpace,
    /// Weight-duplication strategy (stage 1).
    pub strategy: WtDupStrategy,
    /// SA filter settings (used by [`WtDupStrategy::SimulatedAnnealing`]).
    pub sa: SaConfig,
    /// EA explorer settings.
    pub ea: EaConfig,
    /// Identical vs specialized macros (Fig. 8 ablates this).
    pub macro_mode: MacroMode,
    /// Run outer design points on worker threads. Ignored (points run in
    /// order) when the context sets a count budget: every point draws on
    /// that one count, so thread timing would decide which points spend it.
    pub parallel: bool,
    /// Base seed; every stochastic stage derives its own deterministic seed
    /// from it, so results are reproducible even with `parallel = true`.
    pub seed: u64,
}

impl DseConfig {
    /// Paper-scale exploration under the given power constraint.
    pub fn new(total_power: Watts) -> Self {
        Self {
            total_power,
            hw: HardwareParams::date24(),
            space: DesignSpace::paper(),
            strategy: WtDupStrategy::SimulatedAnnealing,
            sa: SaConfig::paper(),
            ea: EaConfig::paper(),
            macro_mode: MacroMode::Specialized,
            parallel: true,
            seed: 0x9127_51AE,
        }
    }

    /// Reduced exploration for tests, examples and quick sweeps.
    pub fn fast(total_power: Watts) -> Self {
        Self {
            space: DesignSpace::reduced(),
            sa: SaConfig::fast(),
            ea: EaConfig::fast(),
            parallel: false,
            ..Self::new(total_power)
        }
    }
}

/// Outcome at one outer design point (for exploration reports).
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The design point.
    pub point: DesignPoint,
    /// Best efficiency found there (TOPS/W), 0 when infeasible.
    pub best_efficiency: f64,
    /// Candidate architectures evaluated at this point.
    pub evaluations: usize,
}

/// The best accelerator found by the DSE flow, with provenance.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The winning architecture (all Table I variables fixed).
    pub architecture: Architecture,
    /// Its compiled dataflow.
    pub dataflow: Dataflow,
    /// The winning weight-duplication vector.
    pub wt_dup: Vec<usize>,
    /// Analytic evaluation of the winner.
    pub report: SimReport,
    /// Total candidate evaluations across the whole flow.
    pub evaluations: usize,
    /// Per-design-point summary (exploration history). With an exhausted
    /// budget, only the points actually explored appear here.
    pub history: Vec<PointResult>,
    /// Whether the search ran to completion or stopped on a budget.
    pub stop_reason: StopReason,
}

struct PointBest {
    architecture: Architecture,
    dataflow: Dataflow,
    wt_dup: Vec<usize>,
    report: SimReport,
}

/// Explores one outer design point (lines 6-12 of Alg. 1), emitting stage
/// events for the four-phase flow of Fig. 3.
fn explore_point(
    model: &Model,
    cfg: &DseConfig,
    point: DesignPoint,
    point_idx: usize,
    ctx: &ExploreContext<'_>,
    evaluator: &CandidateEvaluator<'_>,
) -> (PointResult, Option<PointBest>) {
    let mut result = PointResult {
        point,
        best_efficiency: 0.0,
        evaluations: 0,
    };
    let finish_point = |result: &PointResult, ctx: &ExploreContext<'_>| {
        ctx.record_fitness(point_idx, result.best_efficiency);
        ctx.emit_evaluator_stats(point_idx, &|| evaluator.stats());
        ctx.emit(ExploreEvent::DesignPointEvaluated {
            point,
            point_index: point_idx,
            best_efficiency: result.best_efficiency,
            evaluations: result.evaluations,
        });
    };

    // Eq. (3) bounds crossbars by ReRAM power alone, but every crossbar row
    // carries a DAC whose power must come out of the (1 - RatioRram) share.
    // Cap the crossbar count so DACs consume at most half that share,
    // leaving room for ADCs/ALUs (otherwise every near-budget duplication
    // candidate is peripherally infeasible and the point dies).
    let eq3 = point
        .crossbar
        .budget(cfg.total_power, point.ratio_rram, &cfg.hw);
    let dac_min = cfg.hw.dac_power_lut[0].value() * point.crossbar.size() as f64;
    let dac_cap = (0.5 * (1.0 - point.ratio_rram) * cfg.total_power.value() / dac_min) as usize;
    // The cap is a pruning heuristic: never let it cut below one weight copy
    // (Eq. (3) via `eq3` remains the hard feasibility constraint).
    let one_copy: usize = model
        .weight_layers()
        .map(|wl| {
            point
                .crossbar
                .crossbar_set(wl, model.precision().weight_bits())
        })
        .sum();
    let budget = eq3.min(dac_cap.max(one_copy));

    // Stage 1 — weight duplication.
    ctx.emit(ExploreEvent::StageStarted {
        point_index: point_idx,
        stage: SynthesisStage::WeightDuplication,
    });
    let candidates = match &cfg.strategy {
        WtDupStrategy::SimulatedAnnealing => {
            let sa_cfg = SaConfig {
                seed: cfg.seed ^ (point_idx as u64) << 8,
                ..cfg.sa.clone()
            };
            wt_dup_candidates_counted(model, point.crossbar, budget, &sa_cfg, ctx, evaluator).ok()
        }
        WtDupStrategy::WohoProportional => woho_proportional(model, point.crossbar, budget)
            .ok()
            .map(|c| vec![c]),
        WtDupStrategy::NoDuplication => no_duplication(model, point.crossbar, budget)
            .ok()
            .map(|c| vec![c]),
        WtDupStrategy::Fixed(vs) => Some(vs.clone()),
    };
    ctx.emit(ExploreEvent::StageFinished {
        point_index: point_idx,
        stage: SynthesisStage::WeightDuplication,
    });
    let Some(candidates) = candidates else {
        finish_point(&result, ctx);
        return (result, None);
    };

    // Stage 2 — dataflow compilation (every candidate x DAC resolution).
    // Only the compilable combinations are kept, not the compiled IR: a
    // paper-effort point has up to 30 x 3 of them, and retaining every
    // Dataflow until stage 3 would multiply peak memory for nothing —
    // recompiling one on demand costs microseconds.
    ctx.emit(ExploreEvent::StageStarted {
        point_index: point_idx,
        stage: SynthesisStage::DataflowCompilation,
    });
    let mut compilable: Vec<(usize, &Vec<usize>, DacConfig)> = Vec::new();
    'compile: for (ci, dup) in candidates.iter().enumerate() {
        for dac in cfg.space.dacs() {
            if ctx.should_stop() {
                break 'compile;
            }
            if Dataflow::compile(model, point.crossbar, dac, dup).is_ok() {
                compilable.push((ci, dup, dac));
            }
        }
    }
    ctx.emit(ExploreEvent::StageFinished {
        point_index: point_idx,
        stage: SynthesisStage::DataflowCompilation,
    });

    // Stage 3 — EA-based macro partitioning (components allocation and
    // analytic evaluation run per candidate inside the EA loop).
    ctx.emit(ExploreEvent::StageStarted {
        point_index: point_idx,
        stage: SynthesisStage::MacroPartitioning,
    });
    let mut best: Option<(f64, PointBest)> = None;
    for (ci, dup, dac) in compilable {
        if ctx.should_stop() {
            break;
        }
        let Ok(df) = Dataflow::compile(model, point.crossbar, dac, dup) else {
            continue; // compiled in stage 2; deterministic, so unreachable
        };
        let ea_cfg = EaConfig {
            seed: cfg.seed ^ ((point_idx as u64) << 20) ^ ((ci as u64) << 4) ^ dac.bits() as u64,
            ..cfg.ea.clone()
        };
        let (evaluations, outcome) = run_ea_counted(&df, point, &ea_cfg, ctx, evaluator);
        // Count what actually ran, feasible or not, so the reported totals
        // agree with the budget counter.
        result.evaluations += evaluations;
        if let Ok(out) = outcome {
            if best.as_ref().is_none_or(|(f, _)| out.fitness > *f) {
                result.best_efficiency = out.fitness;
                best = Some((
                    out.fitness,
                    PointBest {
                        architecture: out.architecture,
                        dataflow: df,
                        wt_dup: dup.clone(),
                        report: out.report,
                    },
                ));
            }
        }
    }
    ctx.emit(ExploreEvent::StageFinished {
        point_index: point_idx,
        stage: SynthesisStage::MacroPartitioning,
    });

    // Stage 4 — components allocation of the point winner (allocation ran
    // per EA candidate; here the winning implementation is re-validated
    // against the architecture template's structural rules).
    ctx.emit(ExploreEvent::StageStarted {
        point_index: point_idx,
        stage: SynthesisStage::ComponentAllocation,
    });
    if let Some((_, b)) = &best {
        if b.architecture.validate(model).is_err() {
            best = None;
            result.best_efficiency = 0.0;
        }
    }
    ctx.emit(ExploreEvent::StageFinished {
        point_index: point_idx,
        stage: SynthesisStage::ComponentAllocation,
    });

    finish_point(&result, ctx);
    (result, best.map(|(_, b)| b))
}

/// Runs the complete Algorithm 1 flow for `model` under `cfg`, blocking
/// until done, with no observation, cancellation or budget.
///
/// # Errors
///
/// [`DseError::NoFeasibleSolution`] when no design point yields a working
/// accelerator under the power constraint.
pub fn run_dse(model: &Model, cfg: &DseConfig) -> Result<DseOutcome, DseError> {
    let ctx = ExploreContext::unobserved();
    run_dse_observed(model, cfg, &ctx)
}

/// Runs Algorithm 1 under an [`ExploreContext`]: progress events stream to
/// the context's observer, cancellation is honored between stages and
/// inside the metaheuristic loops, and budgets stop the search gracefully
/// (the best architecture found before exhaustion is still returned, with
/// [`DseOutcome::stop_reason`] recording why the run ended).
///
/// # Errors
///
/// - [`DseError::Cancelled`] when the context's token was cancelled.
/// - [`DseError::NoFeasibleSolution`] when nothing feasible was found
///   (including budgets that expire before the first feasible candidate).
pub fn run_dse_observed(
    model: &Model,
    cfg: &DseConfig,
    ctx: &ExploreContext<'_>,
) -> Result<DseOutcome, DseError> {
    // One evaluator spans every stage of every design point, so its
    // counters are the job's; worker threads share it by reference. Each EA
    // run memoizes its candidates in its own session.
    let evaluator = CandidateEvaluator::new(
        model,
        cfg.total_power,
        &cfg.hw,
        cfg.macro_mode,
        cfg.ea.objective,
    );
    run_dse_evaluated(model, cfg, ctx, &evaluator)
}

/// [`run_dse_observed`] scoring through `evaluator`, which must be built
/// for `model` and `cfg` (power, hardware, macro mode, objective).
pub(crate) fn run_dse_evaluated(
    model: &Model,
    cfg: &DseConfig,
    ctx: &ExploreContext<'_>,
    evaluator: &CandidateEvaluator<'_>,
) -> Result<DseOutcome, DseError> {
    let points = cfg.space.points();
    let results: Mutex<Vec<(usize, PointResult, Option<PointBest>)>> =
        Mutex::new(Vec::with_capacity(points.len()));
    // Parallel points race for a shared evaluation count, so a count-
    // budgeted run explores them in order to stay deterministic.
    let budget = ctx.budget();
    let count_budgeted =
        budget.max_evaluations.is_some() || budget.max_unique_evaluations.is_some();

    if cfg.parallel && !count_budgeted && points.len() > 1 {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let workers = workers.min(points.len());
        // Dynamic work queue rather than static striping: points differ
        // wildly in cost (budget-infeasible ones die in the SA stage), so a
        // fixed assignment would leave workers idle behind one slow point.
        // Per-point seeds derive from the point index, so which worker runs
        // a point never affects the result.
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let results = &results;
                let points = &points;
                let next = &next;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= points.len() || ctx.should_stop() {
                        break;
                    }
                    let (res, best) = explore_point(model, cfg, points[i], i, ctx, evaluator);
                    results.lock().expect("result mutex").push((i, res, best));
                });
            }
        });
    } else {
        for (i, &point) in points.iter().enumerate() {
            if ctx.should_stop() {
                break;
            }
            let (res, best) = explore_point(model, cfg, point, i, ctx, evaluator);
            results.lock().expect("result mutex").push((i, res, best));
        }
    }

    // Cancellation always wins, even when it raced the natural finish: the
    // caller asked for no result. Budget exhaustion only counts when a
    // cooperative check actually curtailed the search — a budget that runs
    // out exactly as the last point completes is still a completed run.
    if ctx.cancel_token().is_cancelled() {
        return Err(DseError::Cancelled);
    }
    let stop_reason = match ctx.observed_stop() {
        Some(StopReason::Cancelled) => return Err(DseError::Cancelled),
        Some(reason) => reason,
        None => StopReason::Completed,
    };

    let mut results = results.into_inner().expect("result mutex");
    results.sort_by_key(|(i, _, _)| *i);

    let mut history = Vec::with_capacity(results.len());
    let mut evaluations = 0usize;
    let mut winner: Option<(f64, usize, PointBest)> = None;
    for (i, res, best) in results {
        evaluations += res.evaluations;
        if let Some(b) = best {
            let f = cfg.ea.objective.fitness(&b.report);
            // Deterministic tie-break on point index.
            let better = match &winner {
                None => true,
                Some((wf, wi, _)) => f > *wf || (f == *wf && i < *wi),
            };
            if better {
                winner = Some((f, i, b));
            }
        }
        history.push(res);
    }

    match winner {
        Some((_, _, b)) => Ok(DseOutcome {
            architecture: b.architecture,
            dataflow: b.dataflow,
            wt_dup: b.wt_dup,
            report: b.report,
            evaluations,
            history,
            stop_reason,
        }),
        None => Err(DseError::NoFeasibleSolution),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{CancelToken, ExploreBudget};
    use pimsyn_arch::CrossbarConfig;
    use pimsyn_model::zoo;

    fn tiny_cfg() -> DseConfig {
        let mut cfg = DseConfig::fast(Watts(6.0));
        cfg.space = DesignSpace::single(0.3, CrossbarConfig::new(128, 2).unwrap(), 1);
        cfg.sa.candidates = 2;
        cfg.sa.iterations = 150;
        cfg.ea = EaConfig {
            population: 6,
            generations: 3,
            ..EaConfig::fast()
        };
        cfg
    }

    #[test]
    fn dse_finds_architecture_for_cifar_alexnet() {
        let model = zoo::alexnet_cifar(10);
        let out = run_dse(&model, &tiny_cfg()).unwrap();
        assert!(out.report.efficiency_tops_per_watt() > 0.0);
        assert!(out.evaluations > 0);
        assert_eq!(out.history.len(), 1);
        assert_eq!(out.stop_reason, StopReason::Completed);
        out.architecture.validate(&model).unwrap();
        assert_eq!(out.wt_dup.len(), model.weight_layer_count());
    }

    #[test]
    fn dse_is_deterministic() {
        let model = zoo::alexnet_cifar(10);
        let a = run_dse(&model, &tiny_cfg()).unwrap();
        let b = run_dse(&model, &tiny_cfg()).unwrap();
        assert_eq!(a.wt_dup, b.wt_dup);
        assert_eq!(
            a.report.efficiency_tops_per_watt(),
            b.report.efficiency_tops_per_watt()
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let model = zoo::alexnet_cifar(10);
        let mut serial = tiny_cfg();
        serial.space = DesignSpace::reduced();
        serial.parallel = false;
        let mut parallel = serial.clone();
        parallel.parallel = true;
        let run = |cfg: &DseConfig| {
            let eval = CandidateEvaluator::new(
                &model,
                cfg.total_power,
                &cfg.hw,
                cfg.macro_mode,
                cfg.ea.objective,
            );
            let out = run_dse_evaluated(&model, cfg, &ExploreContext::unobserved(), &eval);
            (out.unwrap(), eval.stats())
        };
        let (a, a_stats) = run(&serial);
        let (b, b_stats) = run(&parallel);
        assert_eq!(a.wt_dup, b.wt_dup);
        assert_eq!(
            a.report.efficiency_tops_per_watt(),
            b.report.efficiency_tops_per_watt()
        );
        // Each EA run has its own memo, so which worker ran which point
        // cannot move a counter.
        assert_eq!(a_stats, b_stats);
    }

    #[test]
    fn evaluator_stats_report_cache_hits() {
        use std::sync::Mutex;
        let model = zoo::alexnet_cifar(10);
        let last: Mutex<Option<crate::EvaluatorStats>> = Mutex::new(None);
        let observer = |ev: ExploreEvent| {
            if let ExploreEvent::EvaluatorStats { stats, .. } = ev {
                *last.lock().unwrap() = Some(stats);
            }
        };
        let ctx = ExploreContext::new(&observer, CancelToken::new(), ExploreBudget::unlimited());
        let mut cfg = tiny_cfg();
        // A few extra generations so unmutated tournament winners (identical
        // genes) reliably resurface.
        cfg.ea.generations = 6;
        let out = run_dse_observed(&model, &cfg, &ctx).unwrap();
        let stats = last.lock().unwrap().expect("stats event must be emitted");
        assert_eq!(stats.scored, out.evaluations, "scored == budget-charged");
        assert_eq!(stats.unique_evaluations + stats.cache_hits, stats.scored);
        assert!(
            stats.cache_hits > 0,
            "metaheuristics revisit genes; expected hits, got {stats:?}"
        );
        assert!(stats.unique_evaluations < stats.scored);
        assert!(stats.hit_rate() > 0.0);
        assert!(
            stats.sa_probes > 0,
            "SA probes must route through the evaluator"
        );
        // No per-layer or SA-energy memo exists, so their counters stay at
        // 0; every memo miss scores in a delta session.
        assert_eq!((stats.layer_hits, stats.layer_misses), (0, 0));
        assert_eq!(stats.sa_cache_hits, 0);
        assert!(stats.delta_hits > 0, "{stats:?}");
        assert_eq!(
            stats.delta_hits + stats.delta_fallbacks,
            stats.unique_evaluations
        );
    }

    #[test]
    fn impossible_power_yields_no_solution() {
        let model = zoo::vgg16();
        let mut cfg = tiny_cfg();
        cfg.total_power = Watts(0.01);
        assert!(matches!(
            run_dse(&model, &cfg),
            Err(DseError::NoFeasibleSolution)
        ));
    }

    #[test]
    fn larger_power_budget_does_not_hurt() {
        let model = zoo::alexnet_cifar(10);
        let mut small = tiny_cfg();
        small.total_power = Watts(5.0);
        let mut large = tiny_cfg();
        large.total_power = Watts(12.0);
        let rs = run_dse(&model, &small).unwrap();
        let rl = run_dse(&model, &large).unwrap();
        // More power, more throughput (efficiency may vary, throughput must not drop much).
        assert!(
            rl.report.throughput_ops >= rs.report.throughput_ops * 0.8,
            "large {} vs small {}",
            rl.report.throughput_ops,
            rs.report.throughput_ops
        );
    }

    #[test]
    fn pre_cancelled_context_aborts_immediately() {
        let model = zoo::alexnet_cifar(10);
        let cancel = CancelToken::new();
        cancel.cancel();
        let ctx = ExploreContext::new(
            &crate::ctx::NullObserver,
            cancel,
            ExploreBudget::unlimited(),
        );
        assert!(matches!(
            run_dse_observed(&model, &tiny_cfg(), &ctx),
            Err(DseError::Cancelled)
        ));
    }

    #[test]
    fn evaluation_budget_stops_early_but_returns_best() {
        let model = zoo::alexnet_cifar(10);
        let mut cfg = tiny_cfg();
        cfg.space = DesignSpace::reduced(); // 4 points
                                            // Enough budget for roughly one point's EA, not for all four.
        let ctx = ExploreContext::new(
            &crate::ctx::NullObserver,
            CancelToken::new(),
            ExploreBudget::unlimited().with_max_evaluations(30),
        );
        match run_dse_observed(&model, &cfg, &ctx) {
            Ok(out) => {
                assert_eq!(out.stop_reason, StopReason::EvaluationBudgetReached);
                assert!(out.history.len() < cfg.space.outer_len());
                assert!(out.report.efficiency_tops_per_watt() > 0.0);
            }
            // A budget this tight may also legitimately stop before the
            // first feasible candidate.
            Err(e) => assert!(matches!(e, DseError::NoFeasibleSolution)),
        }
    }

    #[test]
    fn observed_run_emits_ordered_stage_events() {
        use std::sync::Mutex;
        let model = zoo::alexnet_cifar(10);
        let events: Mutex<Vec<ExploreEvent>> = Mutex::new(Vec::new());
        let observer = |ev: ExploreEvent| events.lock().unwrap().push(ev);
        let ctx = ExploreContext::new(&observer, CancelToken::new(), ExploreBudget::unlimited());
        run_dse_observed(&model, &tiny_cfg(), &ctx).unwrap();
        let events = events.into_inner().unwrap();
        // One point: the four stages in paper order, each started before
        // finished, then the point summary.
        let mut stages_seen = Vec::new();
        for ev in &events {
            if let ExploreEvent::StageStarted { stage, .. } = ev {
                stages_seen.push(*stage);
            }
        }
        assert_eq!(stages_seen, SynthesisStage::ALL.to_vec());
        assert!(matches!(
            events.last(),
            Some(ExploreEvent::DesignPointEvaluated { .. })
        ));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ExploreEvent::ImprovedBest { .. })),
            "a feasible run must improve on the initial zero best"
        );
    }
}
