//! The full DSE flow of Algorithm 1: traverse the PIM-related design space
//! (`RatioRram x ResRram x XbSize`), filter weight-duplication candidates
//! with SA, and for each candidate and DAC resolution run the EA-based macro
//! partitioning (which itself invokes components allocation and performance
//! evaluation).
//!
//! The EA runs form one list in Alg. 1's order: design points by index,
//! then each point's (WtDup candidate, DAC) pairs in stage 2's order.
//! Stage 2 bounds each run while it has the run's dataflow compiled: the
//! bound ([`AllocPlan::efficiency_bound`], or [`AllocPlan::edp_bound`]
//! under the EDP objective) is an upper bound on the fitness of every gene
//! the run can score and stage 4 can validate. A search without a count
//! budget runs stages 1–2 at every point first, then takes the runs in
//! descending bound order, ties in list order, so the runs likely to win
//! come first. A count-budgeted search takes them in list order, each
//! point's stages 1–2 running when the list reaches it, so the budget buys
//! the same runs in every search.
//!
//! In either order, the run taken at position `j` is skipped when its
//! bound is strictly below the best fitness among the validated runs taken
//! at positions `0 ..= j - 33`. A skipped run can only lose to a run that
//! was kept, and every run whose bound reaches the final best runs, so the
//! winner (the first run in list order to reach the top fitness) is never
//! skipped, and the search returns exactly what running every run returns.
//! The 32-run look-behind lets the runs just before a position still be in
//! flight when it is decided, and because it is a constant, which runs are
//! skipped, and so every counter, is the same for any worker count. Every
//! stochastic stage seeds from its point and pair, so results are
//! reproducible with `parallel = true` too.
//!
//! Exploration is observable and controllable: [`run_dse_observed`] threads
//! an [`ExploreContext`] through every stage, writing typed
//! [`SynthesisEvent`]s into the job's sink and honoring cancellation and
//! wall-clock / evaluation budgets. [`run_dse`] is the blocking, unobserved
//! wrapper.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use pimsyn_arch::{Architecture, DacConfig, HardwareParams, MacroMode, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::SimReport;

use crate::alloc::AllocPlan;
use crate::ctx::{ExploreContext, StopReason, SynthesisEvent, SynthesisStage};
use crate::ea::{max_macros, run_ea_counted, EaConfig, Objective};
use crate::error::DseError;
use crate::eval::CandidateEvaluator;
use crate::sa::{no_duplication, woho_proportional, wt_dup_candidates_counted, SaConfig};
use crate::space::{DesignPoint, DesignSpace};

/// The run taken at position `j` is checked against the runs taken more
/// than this many positions before it, so the runs in between may still be
/// in flight.
const LOOKBEHIND: usize = 32;

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
    /// Run on one worker thread per core instead of the calling thread.
    /// Either way, a search without a count budget runs stages 1–2 at every
    /// design point first (in parallel over points), then takes the EA runs
    /// in descending bound order. Ignored when the context sets a count
    /// budget: each point's stages 1–2 run when the list reaches it, and
    /// every run in list order on the calling thread, since every run draws
    /// on that one count and thread timing would decide which runs spend
    /// it. Results and counters are the same either way.
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

/// Outcome at one outer design point (for exploration reports). Both
/// numbers count only the EA runs that ran: a skipped run adds nothing, so
/// a 0 can also mean that every run of the point was skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The design point.
    pub point: DesignPoint,
    /// Best fitness among the point's EA runs that ran and whose winner
    /// validated (TOPS/W under the default objective), 0 when none did.
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
    /// Total candidate evaluations across the whole flow (skipped EA runs
    /// evaluate nothing).
    pub evaluations: usize,
    /// Per-design-point summary (exploration history), one entry for every
    /// point whose stages 1–2 ran. With an exhausted budget, only the
    /// points the search reached appear here.
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

/// One EA run: a compilable (WtDup candidate, DAC) pair of a design point.
#[derive(Clone, Copy)]
struct Run {
    /// Index into the point's candidates.
    candidate: usize,
    dac: DacConfig,
    /// [`fitness_bound`] of the run's dataflow.
    bound: f64,
}

/// Stages 1–2 at one design point (lines 6–9 of Alg. 1).
struct Prepared {
    index: usize,
    point: DesignPoint,
    /// Stage 1's WtDup candidates; `None` when it found none.
    candidates: Option<Vec<Vec<usize>>>,
    /// One EA run per compilable (candidate, DAC) pair, in stage 2's order.
    runs: Vec<Run>,
}

/// Runs stages 1–2 at one design point, emitting their stage events.
fn prepare_point(
    model: &Model,
    cfg: &DseConfig,
    point: DesignPoint,
    point_idx: usize,
    ctx: &ExploreContext<'_>,
    evaluator: &CandidateEvaluator<'_>,
) -> Prepared {
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
    ctx.stage_started(point_idx, SynthesisStage::WeightDuplication);
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
    ctx.stage_finished(point_idx, SynthesisStage::WeightDuplication);
    let mut prepared = Prepared {
        index: point_idx,
        point,
        candidates: None,
        runs: Vec::new(),
    };
    let Some(candidates) = candidates else {
        return prepared;
    };

    // Stage 2 — dataflow compilation (every candidate x DAC resolution).
    // Each compilable combination is kept with its fitness bound, taken
    // while its dataflow is in hand, but not the compiled IR: a
    // paper-effort point has up to 30 x 3 of them, and retaining every
    // Dataflow until its EA run would multiply peak memory for nothing —
    // recompiling one for a run that is not skipped costs microseconds.
    ctx.stage_started(point_idx, SynthesisStage::DataflowCompilation);
    let total_macs = model.stats().total_macs;
    let dacs = cfg.space.dacs();
    'compile: for (ci, dup) in candidates.iter().enumerate() {
        for &dac in &dacs {
            if ctx.should_stop() {
                break 'compile;
            }
            if let Ok(df) = Dataflow::compile(model, point.crossbar, dac, dup) {
                prepared.runs.push(Run {
                    candidate: ci,
                    dac,
                    bound: fitness_bound(model, cfg, &df, point, total_macs),
                });
            }
        }
    }
    ctx.stage_finished(point_idx, SynthesisStage::DataflowCompilation);
    prepared.candidates = Some(candidates);
    prepared
}

/// The fitness bound run `df` at `point` is checked against: no gene the
/// run can score and stage 4 can validate is fitter.
pub(crate) fn fitness_bound(
    model: &Model,
    cfg: &DseConfig,
    df: &Dataflow,
    point: DesignPoint,
    total_macs: u64,
) -> f64 {
    let plan = AllocPlan::prepare(model, df, point, cfg.total_power, &cfg.hw, cfg.macro_mode);
    let caps = max_macros(df);
    let sharing = cfg.ea.allow_sharing;
    match cfg.ea.objective {
        Objective::PowerEfficiency => {
            plan.efficiency_bound(df, point, &cfg.hw, total_macs, &caps, sharing)
        }
        Objective::EnergyDelayProduct => plan.edp_bound(df, point, &cfg.hw, &caps, sharing),
    }
}

/// The order runs are taken in when every run is bounded before the first
/// one starts: descending bound, ties in list order. `bounds` are the runs'
/// bounds in list order; entry `j` of the result is the run taken at
/// position `j`.
fn bound_order(bounds: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    // A stable sort, so equal bounds keep list order.
    order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]));
    order
}

/// A design point of the run list and the tally of its runs.
struct PointTally {
    prepared: Prepared,
    /// Its runs are `first_run..first_run + prepared.runs.len()` in list
    /// order.
    first_run: usize,
    /// Whether one of its runs was taken, which started its stage 3.
    taken: bool,
    /// Runs not yet ended; the point closes when none is left.
    open: usize,
    result: PointResult,
    /// The best validated run so far, whose fitness is
    /// `result.best_efficiency`: (run, implementation).
    best: Option<(usize, PointBest)>,
}

/// Alg. 1's run list: every prepared point's runs in list order, the
/// order they are taken in, and what the runs that ended found.
struct RunList {
    points: Vec<PointTally>,
    /// Per run: its point (index into `points`).
    runs: Vec<usize>,
    /// `order[j]`: the run taken at position `j`.
    order: Vec<usize>,
    /// The next position to take.
    next: usize,
    /// Per position, once its run ended (ran, was skipped, or was
    /// abandoned after a stop): the run's validated fitness, 0 when it
    /// found none.
    fitness: Vec<Option<f64>>,
    /// `best_before[k]`: the best `fitness` among positions `0..k`, known
    /// for every `k` up to the first position whose run has not ended.
    best_before: Vec<f64>,
    /// Points `0..reported` have reported their results.
    reported: usize,
}

/// One Alg. 1 search: the run list, shared by the worker threads.
struct Search<'s> {
    model: &'s Model,
    cfg: &'s DseConfig,
    ctx: &'s ExploreContext<'s>,
    evaluator: &'s CandidateEvaluator<'s>,
    list: Mutex<RunList>,
    /// Signalled whenever a run ends.
    run_ended: Condvar,
}

impl<'s> Search<'s> {
    fn new(
        model: &'s Model,
        cfg: &'s DseConfig,
        ctx: &'s ExploreContext<'s>,
        evaluator: &'s CandidateEvaluator<'s>,
    ) -> Self {
        Self {
            model,
            cfg,
            ctx,
            evaluator,
            list: Mutex::new(RunList {
                points: Vec::new(),
                runs: Vec::new(),
                order: Vec::new(),
                next: 0,
                fitness: Vec::new(),
                best_before: vec![0.0],
                reported: 0,
            }),
            run_ended: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RunList> {
        self.list.lock().expect("run-list mutex")
    }

    /// Appends a prepared point's runs to the list, to be taken in list
    /// order. A point without runs closes at once.
    fn add_point(&self, prepared: Prepared) {
        let mut guard = self.lock();
        let list = &mut *guard;
        let tally = list.points.len();
        let first_run = list.runs.len();
        let runs = prepared.runs.len();
        list.runs.extend(std::iter::repeat_n(tally, runs));
        list.order.extend(first_run..first_run + runs);
        list.fitness.extend(std::iter::repeat_n(None, runs));
        list.points.push(PointTally {
            result: PointResult {
                point: prepared.point,
                best_efficiency: 0.0,
                evaluations: 0,
            },
            prepared,
            first_run,
            taken: false,
            open: runs,
            best: None,
        });
        if runs == 0 {
            self.close(&list.points[tally]);
            self.report(list);
        }
    }

    /// Takes the runs in [`bound_order`]. Called once every point is in the
    /// list, before any run is taken.
    fn order_by_bound(&self) {
        let mut list = self.lock();
        let bounds: Vec<f64> = list
            .points
            .iter()
            .flat_map(|p| p.prepared.runs.iter().map(|run| run.bound))
            .collect();
        list.order = bound_order(&bounds);
    }

    /// Takes runs in order and runs or skips each, until the list is
    /// exhausted or the search must stop.
    fn work(&self) {
        loop {
            let (pos, i, index, point, run, dup, first) = {
                let mut guard = self.lock();
                let list = &mut *guard;
                let pos = list.next;
                let Some(&i) = list.order.get(pos) else {
                    return;
                };
                list.next += 1;
                let p = &mut list.points[list.runs[i]];
                let run = p.prepared.runs[i - p.first_run];
                let dup = p
                    .prepared
                    .candidates
                    .as_ref()
                    .expect("runs have candidates")[run.candidate]
                    .clone();
                let first = !std::mem::replace(&mut p.taken, true);
                (pos, i, p.prepared.index, p.prepared.point, run, dup, first)
            };
            // Stage 3 — EA-based macro partitioning (components allocation
            // and analytic evaluation run per candidate inside the EA loop).
            if first {
                self.ctx
                    .stage_started(index, SynthesisStage::MacroPartitioning);
            }
            if self.ctx.should_stop() {
                self.end_run(pos, i, 0, None);
                return;
            }
            if self.skips(pos, run.bound) {
                self.end_run(pos, i, 0, None);
                continue;
            }
            let Ok(df) = Dataflow::compile(self.model, point.crossbar, run.dac, &dup) else {
                // Compiled in stage 2; deterministic, so unreachable.
                self.end_run(pos, i, 0, None);
                continue;
            };
            let ea_cfg = EaConfig {
                seed: self.cfg.seed
                    ^ ((index as u64) << 20)
                    ^ ((run.candidate as u64) << 4)
                    ^ run.dac.bits() as u64,
                ..self.cfg.ea.clone()
            };
            let (evaluations, outcome) =
                run_ea_counted(&df, point, &ea_cfg, self.ctx, self.evaluator);
            // Stage 4 — components allocation ran per EA candidate; the
            // run's winner is re-validated against the architecture
            // template's structural rules, and a run whose winner fails
            // found nothing.
            let found = outcome
                .ok()
                .filter(|out| out.architecture.validate(self.model).is_ok())
                .map(|out| {
                    let best = PointBest {
                        architecture: out.architecture,
                        dataflow: df,
                        wt_dup: dup,
                        report: out.report,
                    };
                    (out.fitness, best)
                });
            // Count what actually ran, feasible or not, so the reported
            // totals agree with the budget counter.
            self.end_run(pos, i, evaluations, found);
        }
    }

    /// Whether the run taken at position `pos`, with fitness bound `bound`,
    /// provably cannot win: its bound is strictly below the best validated
    /// fitness of positions `0 ..= pos - LOOKBEHIND - 1`, which it waits
    /// for.
    fn skips(&self, pos: usize, bound: f64) -> bool {
        #[cfg(test)]
        if !self.evaluator.skipping {
            return false;
        }
        if pos <= LOOKBEHIND {
            return false;
        }
        let k = pos - LOOKBEHIND;
        let mut list = self.lock();
        while list.best_before.len() <= k {
            list = self.run_ended.wait(list).expect("run-list mutex");
        }
        bound < list.best_before[k]
    }

    /// Records that run `i`, taken at position `pos`, ended after
    /// `evaluations` candidate evaluations with `found`, its validated
    /// winner, if any; the run's point closes with its last run.
    fn end_run(&self, pos: usize, i: usize, evaluations: usize, found: Option<(f64, PointBest)>) {
        {
            let mut guard = self.lock();
            let list = &mut *guard;
            list.fitness[pos] = Some(found.as_ref().map_or(0.0, |(f, _)| *f));
            while let Some(&Some(f)) = list.fitness.get(list.best_before.len() - 1) {
                let best = list.best_before[list.best_before.len() - 1].max(f);
                list.best_before.push(best);
            }
            let p = &mut list.points[list.runs[i]];
            p.result.evaluations += evaluations;
            if let Some((f, best)) = found {
                // On a tie the earlier run in list order wins, whatever
                // order the runs were taken in.
                let bf = p.result.best_efficiency;
                if p.best
                    .as_ref()
                    .is_none_or(|(run, _)| f > bf || (f == bf && i < *run))
                {
                    p.result.best_efficiency = f;
                    p.best = Some((i, best));
                }
            }
            p.open -= 1;
            if p.open == 0 {
                self.close(p);
                self.report(list);
            }
        }
        self.run_ended.notify_all();
    }

    /// Ends a point's stages, with the run list locked: stage 3 ends with
    /// its last run, and stage 4, which validated each run's winner, chose
    /// the point's best.
    fn close(&self, p: &PointTally) {
        let ctx = self.ctx;
        let point_index = p.prepared.index;
        // Stage 1 found candidates, so stages 3–4 ran, perhaps with no run.
        if p.prepared.candidates.is_some() {
            if !p.taken {
                ctx.stage_started(point_index, SynthesisStage::MacroPartitioning);
            }
            ctx.stage_finished(point_index, SynthesisStage::MacroPartitioning);
            ctx.stage_started(point_index, SynthesisStage::ComponentAllocation);
            ctx.stage_finished(point_index, SynthesisStage::ComponentAllocation);
        }
    }

    /// Reports each closed point whose earlier points have all reported,
    /// in point order, with the run list locked: the job's best so far,
    /// the evaluator's counters and the point's result. Holding a point
    /// back until every earlier point has closed gives these events one
    /// order for any worker count and any run order.
    fn report(&self, list: &mut RunList) {
        let ctx = self.ctx;
        while let Some(p) = list.points.get(list.reported).filter(|p| p.open == 0) {
            let point_index = p.prepared.index;
            ctx.record_fitness(point_index, p.result.best_efficiency);
            ctx.emit_evaluator_stats(point_index, &|| self.evaluator.stats());
            ctx.emit(SynthesisEvent::DesignPointEvaluated {
                job: ctx.job(),
                point: p.result.point,
                point_index,
                best_efficiency: p.result.best_efficiency,
                evaluations: p.result.evaluations,
            });
            list.reported += 1;
        }
    }

    /// Closes every point a stop left open and reports every point not yet
    /// reported, then returns each point's result and best implementation,
    /// in point order.
    fn finish(&self) -> Vec<(PointResult, Option<PointBest>)> {
        let mut guard = self.lock();
        let list = &mut *guard;
        for p in list.points.iter_mut().filter(|p| p.open > 0) {
            self.close(p);
            // The stop abandoned the point's remaining runs.
            p.open = 0;
        }
        self.report(list);
        std::mem::take(&mut list.points)
            .into_iter()
            .map(|p| (p.result, p.best.map(|(_, best)| best)))
            .collect()
    }
}

/// Stages 1–2 at every design point in `points`, on `workers` threads (the
/// calling thread for one) that take points from a dynamic queue: points
/// differ wildly in cost, as budget-infeasible ones die in the SA stage.
/// Seeds derive from the point index, so which worker prepares a point
/// never affects the result. Returns the prepared points in point order,
/// without those a stop left unprepared.
fn prepare_points(
    model: &Model,
    cfg: &DseConfig,
    points: &[DesignPoint],
    ctx: &ExploreContext<'_>,
    evaluator: &CandidateEvaluator<'_>,
    workers: usize,
) -> Vec<Prepared> {
    let prepared = Mutex::new(Vec::with_capacity(points.len()));
    let next = AtomicUsize::new(0);
    on_threads(workers.min(points.len()), || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= points.len() || ctx.should_stop() {
            break;
        }
        let p = prepare_point(model, cfg, points[i], i, ctx, evaluator);
        prepared.lock().expect("prepared mutex").push(p);
    });
    let mut prepared = prepared.into_inner().expect("prepared mutex");
    prepared.sort_by_key(|p| p.index);
    prepared
}

/// Runs `job` on `threads` scoped threads, or on the calling thread when
/// `threads` is at most 1.
fn on_threads(threads: usize, job: impl Fn() + Sync) {
    if threads <= 1 {
        return job();
    }
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(&job);
        }
    });
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
/// the context's sink, cancellation is honored between stages and
/// inside the metaheuristic loops, and budgets stop the search gracefully
/// (the best architecture found before exhaustion is still returned, with
/// [`DseOutcome::stop_reason`] recording why the run ended).
///
/// A design point's stage 3 starts when its first EA run is taken from the
/// run list and finishes when its last run ends, so under best-bound-first
/// order it spans most of the EA phase. Its stage 4 events follow at once.
/// Its [`ImprovedBest`](SynthesisEvent::ImprovedBest),
/// [`EvaluatorStats`](SynthesisEvent::EvaluatorStats) and
/// [`DesignPointEvaluated`](SynthesisEvent::DesignPointEvaluated) wait
/// until every earlier point has closed, so they come in point order.
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
    let search = Search::new(model, cfg, ctx, evaluator);
    let budget = ctx.budget();
    if budget.max_evaluations.is_some() || budget.max_unique_evaluations.is_some() {
        // Every run draws on one count, so a count-budgeted search takes
        // its runs in list order on this thread: the budget buys the same
        // runs in every search, and spends nothing on stages 1–2 at points
        // it never reaches.
        for (i, &point) in points.iter().enumerate() {
            if ctx.should_stop() {
                break;
            }
            search.add_point(prepare_point(model, cfg, point, i, ctx, evaluator));
            search.work();
        }
    } else {
        let workers = if cfg.parallel {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            1
        };
        // Stages 1–2 at every point first, so every run is bounded before
        // the first one starts; then the EA runs, best bound first.
        for p in prepare_points(model, cfg, &points, ctx, evaluator, workers) {
            search.add_point(p);
        }
        search.order_by_bound();
        let runs = search.lock().runs.len();
        on_threads(workers.min(runs), || search.work());
    }
    let points = search.finish();

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

    let mut history = Vec::with_capacity(points.len());
    let mut evaluations = 0usize;
    let mut winner: Option<(f64, PointBest)> = None;
    for (res, best) in points {
        evaluations += res.evaluations;
        if let Some(b) = best {
            let f = cfg.ea.objective.fitness(&b.report);
            // Points come in index order, so a tie keeps the earlier one.
            if winner.as_ref().is_none_or(|(wf, _)| f > *wf) {
                winner = Some((f, b));
            }
        }
        history.push(res);
    }

    match winner {
        Some((_, b)) => Ok(DseOutcome {
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
    use crate::delta::DeltaSession;
    use crate::eval::EvaluatorStats;
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

    /// Runs `cfg`'s search with run skipping on or off, returning the
    /// outcome, the evaluator's counters and how many EA runs ran.
    fn search(
        model: &Model,
        cfg: &DseConfig,
        ctx: &ExploreContext<'_>,
        skipping: bool,
    ) -> (Result<DseOutcome, DseError>, EvaluatorStats, usize) {
        let ran = AtomicUsize::new(0);
        let count = |_: &DeltaSession<'_>| {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let mut eval = CandidateEvaluator::new(
            model,
            cfg.total_power,
            &cfg.hw,
            cfg.macro_mode,
            cfg.ea.objective,
        );
        eval.session_hook = Some(&count);
        eval.skipping = skipping;
        let out = run_dse_evaluated(model, cfg, ctx, &eval);
        (out, eval.stats(), ran.load(Ordering::Relaxed))
    }

    /// The stage and point events of each point, in emission order.
    fn point_events(events: &[SynthesisEvent], point: usize) -> Vec<String> {
        events
            .iter()
            .filter_map(|ev| match ev {
                SynthesisEvent::StageStarted {
                    point_index, stage, ..
                } if *point_index == point => Some(format!("started:{stage}")),
                SynthesisEvent::StageFinished {
                    point_index, stage, ..
                } if *point_index == point => Some(format!("finished:{stage}")),
                SynthesisEvent::DesignPointEvaluated { point_index, .. }
                    if *point_index == point =>
                {
                    Some("evaluated".to_string())
                }
                _ => None,
            })
            .collect()
    }

    /// Runs go best bound first, ties in list order, and the order does
    /// not depend on how many workers prepared the points.
    #[test]
    fn runs_go_best_bound_first() {
        assert_eq!(
            bound_order(&[0.5, 2.0, 0.5, 3.0, 2.0, 0.0, 2.0]),
            vec![3, 1, 4, 6, 0, 2, 5]
        );
        assert!(bound_order(&[]).is_empty());

        let model = zoo::alexnet_cifar(10);
        let mut cfg = DseConfig::fast(Watts(9.0));
        cfg.sa.candidates = 10;
        let evaluator = CandidateEvaluator::new(
            &model,
            cfg.total_power,
            &cfg.hw,
            cfg.macro_mode,
            cfg.ea.objective,
        );
        let bounds = |workers: usize| {
            let ctx = ExploreContext::unobserved();
            let points = cfg.space.points();
            prepare_points(&model, &cfg, &points, &ctx, &evaluator, workers)
                .iter()
                .flat_map(|p| p.runs.iter().map(|run| run.bound.to_bits()))
                .collect::<Vec<u64>>()
        };
        let serial = bounds(1);
        assert!(serial.len() > 2 * LOOKBEHIND, "only {} runs", serial.len());
        let bound = |i: usize| f64::from_bits(serial[i]);
        let order = bound_order(&(0..serial.len()).map(bound).collect::<Vec<_>>());
        assert!(order.windows(2).all(|w| bound(w[0]) >= bound(w[1])));
        assert!(
            order.iter().enumerate().any(|(pos, &i)| pos != i),
            "bound order is list order"
        );
        for workers in [2, 3] {
            assert_eq!(bounds(workers), serial, "{workers} workers");
        }
    }

    /// Which runs are skipped depends only on runs more than the
    /// look-behind back, so a parallel search skips exactly what the serial
    /// one skips: 4 points x 10 candidates x 2 DACs give runs past the
    /// look-behind, and some are skipped. Both take the runs best bound
    /// first; a count budget that never binds takes them in list order and
    /// finds the same winner.
    #[test]
    fn parallel_matches_serial() {
        let model = zoo::alexnet_cifar(10);
        let mut serial = tiny_cfg();
        serial.space = DesignSpace::reduced();
        serial.sa.candidates = 10;
        serial.parallel = false;
        let mut parallel = serial.clone();
        parallel.parallel = true;
        let events: Mutex<Vec<SynthesisEvent>> = Mutex::new(Vec::new());
        let observer = |ev: SynthesisEvent| events.lock().unwrap().push(ev);
        let observed =
            ExploreContext::new(&observer, 0, CancelToken::new(), ExploreBudget::unlimited());
        let (a, a_stats, a_ran) = search(&model, &serial, &ExploreContext::unobserved(), true);
        let (b, b_stats, b_ran) = search(&model, &parallel, &observed, true);
        let (_, _, every) = search(&model, &serial, &ExploreContext::unobserved(), false);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.wt_dup, b.wt_dup);
        assert_eq!(a.architecture, b.architecture);
        assert_eq!(
            a.report.efficiency_tops_per_watt().to_bits(),
            b.report.efficiency_tops_per_watt().to_bits()
        );
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.history, b.history);
        // Each EA run has its own memo, so which worker ran which run
        // cannot move a counter.
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_ran, b_ran);
        assert!(every > 2 * LOOKBEHIND, "only {every} runs");
        assert!(a_ran < every, "no run was skipped: {a_ran} of {every} ran");
        let budget = ExploreBudget::unlimited().with_max_evaluations(1_000_000_000);
        let listed = ExploreContext::new(&crate::ctx::NullSink, 0, CancelToken::new(), budget);
        let c = search(&model, &parallel, &listed, true).0.unwrap();
        assert_eq!(c.wt_dup, a.wt_dup);
        assert_eq!(c.architecture, a.architecture);
        assert_eq!(
            c.report.efficiency_tops_per_watt().to_bits(),
            a.report.efficiency_tops_per_watt().to_bits()
        );
        assert_eq!(c.report, a.report);
        // Per point, the parallel stage events still come in paper order.
        let events = events.into_inner().unwrap();
        let mut expected: Vec<String> = SynthesisStage::ALL
            .iter()
            .flat_map(|s| [format!("started:{s}"), format!("finished:{s}")])
            .collect();
        expected.push("evaluated".to_string());
        for point in 0..serial.space.outer_len() {
            assert_eq!(point_events(&events, point), expected, "point {point}");
        }
    }

    /// A point reports its `ImprovedBest`, `EvaluatorStats` and
    /// `DesignPointEvaluated` only once every earlier point has, so two
    /// parallel searches and a serial one give equal `ImprovedBest` and
    /// `DesignPointEvaluated` sequences, every field included. Evaluator
    /// snapshots read the job-wide counters of the moment, so only their
    /// order is fixed.
    #[test]
    fn points_report_in_point_order() {
        let model = zoo::alexnet_cifar(10);
        let mut cfg = DseConfig::fast(Watts(9.0));
        cfg.sa.candidates = 10;
        let reports = |parallel: bool| {
            let events = Mutex::new(Vec::new());
            let sink = |ev: SynthesisEvent| events.lock().unwrap().push(ev);
            let ctx = ExploreContext::new(&sink, 0, CancelToken::new(), ExploreBudget::unlimited());
            let cfg = DseConfig {
                parallel,
                ..cfg.clone()
            };
            run_dse_observed(&model, &cfg, &ctx).unwrap();
            let mut reports = Vec::new();
            let mut snapshots = Vec::new();
            for ev in events.into_inner().unwrap() {
                match ev {
                    SynthesisEvent::EvaluatorStats { point_index, .. } => {
                        snapshots.push(point_index);
                    }
                    SynthesisEvent::ImprovedBest { .. }
                    | SynthesisEvent::DesignPointEvaluated { .. } => reports.push(ev),
                    _ => {}
                }
            }
            (reports, snapshots)
        };
        let (serial, snapshots) = reports(false);
        let points: Vec<usize> = (0..cfg.space.outer_len()).collect();
        assert_eq!(snapshots, points);
        let evaluated: Vec<usize> = serial
            .iter()
            .filter_map(|ev| match ev {
                SynthesisEvent::DesignPointEvaluated { point_index, .. } => Some(*point_index),
                _ => None,
            })
            .collect();
        assert_eq!(evaluated, points);
        assert!(serial
            .iter()
            .any(|ev| matches!(ev, SynthesisEvent::ImprovedBest { .. })));
        for run in 0..2 {
            let parallel = reports(true);
            assert_eq!(parallel.0, serial, "parallel run {run}");
            assert_eq!(parallel.1, snapshots, "parallel run {run}");
        }
    }

    /// Skipping returns exactly the winner of the search that runs every EA
    /// run, with fewer evaluations, in both macro modes and under either
    /// objective. Under a count budget it reaches further down the run
    /// list, so its fitness is never lower, and it is equal while the
    /// budget ends inside the first runs, which are never skipped.
    #[test]
    fn skipping_keeps_the_winner_and_saves_evaluations() {
        use crate::ctx::NullSink;
        use MacroMode::{Identical, Specialized};
        use Objective::{EnergyDelayProduct, PowerEfficiency};
        let cases = [
            (zoo::alexnet_cifar(10), 9.0, Specialized, PowerEfficiency),
            (zoo::vgg16_cifar(10), 15.0, Specialized, PowerEfficiency),
            (zoo::transformer_tiny(), 9.0, Specialized, PowerEfficiency),
            (zoo::vgg16_cifar(10), 15.0, Identical, PowerEfficiency),
            (zoo::alexnet_cifar(10), 9.0, Specialized, EnergyDelayProduct),
        ];
        for (model, power, mode, objective) in &cases {
            let mut cfg = DseConfig::fast(Watts(*power));
            cfg.sa.candidates = 10;
            cfg.macro_mode = *mode;
            cfg.ea.objective = *objective;
            let case = format!("{model} {mode} {objective:?}");
            let (skip, _, _) = search(model, &cfg, &ExploreContext::unobserved(), true);
            let (every, _, _) = search(model, &cfg, &ExploreContext::unobserved(), false);
            let (skip, every) = (skip.unwrap(), every.unwrap());
            assert_eq!(skip.wt_dup, every.wt_dup, "{case}");
            assert_eq!(skip.architecture, every.architecture, "{case}");
            assert_eq!(skip.dataflow, every.dataflow, "{case}");
            let bits = |r: &SimReport| {
                [
                    r.efficiency_tops_per_watt(),
                    r.throughput_ops,
                    r.latency.value(),
                    r.power.value(),
                    r.energy_per_image.value(),
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&skip.report), bits(&every.report), "{case}");
            assert_eq!(skip.report, every.report, "{case}");
            assert!(
                skip.evaluations < every.evaluations,
                "{case}: {} evaluations with skipping, {} without",
                skip.evaluations,
                every.evaluations
            );

            let per_run = cfg.ea.population + cfg.ea.generations * (cfg.ea.population - 2);
            for k in [
                3 * per_run + 5,
                LOOKBEHIND * per_run,
                40 * per_run,
                60 * per_run,
            ] {
                let fitness = |skipping: bool| {
                    let budget = ExploreBudget::unlimited().with_max_evaluations(k);
                    let ctx = ExploreContext::new(&NullSink, 0, CancelToken::new(), budget);
                    let out = search(model, &cfg, &ctx, skipping).0;
                    out.map_or(0.0, |o| objective.fitness(&o.report))
                };
                let (with, without) = (fitness(true), fitness(false));
                if k <= LOOKBEHIND * per_run {
                    assert_eq!(with.to_bits(), without.to_bits(), "{case} k={k}");
                } else {
                    assert!(with >= without, "{case} k={k}: {with} < {without}");
                }
            }
        }
    }

    /// The fitness bound is sound: in fast searches of five zoo models x
    /// seeds {1, 7, 11} x sharing on and off, run with skipping off, no
    /// gene an EA run scores, so neither the run's fitness (its best
    /// gene's), is above the run's bound. The bound is proved only for
    /// genes that validate, but it is checked on every scored gene. This
    /// holds in three searches of each case: specialized macros, identical
    /// macros and specialized macros under the EDP objective.
    #[test]
    fn fitness_bound_holds_on_every_scored_gene() {
        let cases = [
            (zoo::alexnet_cifar(10), 9.0),
            (zoo::vgg16_cifar(10), 15.0),
            (zoo::resnet18_cifar(10), 15.0),
            (zoo::transformer_tiny(), 9.0),
            (zoo::resnet18(), 65.0),
        ];
        let searches = [
            (MacroMode::Specialized, Objective::PowerEfficiency),
            (MacroMode::Identical, Objective::PowerEfficiency),
            (MacroMode::Specialized, Objective::EnergyDelayProduct),
        ];
        for (mode, objective) in searches {
            let (mut runs, mut tight, mut genes, mut closest) = (0, 0, 0, 0.0f64);
            for (model, power) in &cases {
                let total_macs = model.stats().total_macs;
                for seed in [1u64, 7, 11] {
                    for sharing in [true, false] {
                        let mut cfg = DseConfig::fast(Watts(*power));
                        cfg.seed = seed;
                        cfg.sa.seed = seed ^ 0x5A;
                        cfg.ea.seed = seed ^ 0xEA;
                        cfg.ea.allow_sharing = sharing;
                        cfg.macro_mode = mode;
                        cfg.ea.objective = objective;
                        let case =
                            format!("{model} {mode} {objective:?} seed {seed} sharing {sharing}");
                        let bounds = Mutex::new(Vec::new());
                        let check = |session: &DeltaSession<'_>| {
                            let (df, point) = (session.dataflow(), session.point());
                            let bound = fitness_bound(model, &cfg, df, point, total_macs);
                            assert!(bound.is_finite(), "{case}: {point:?}");
                            let mut best = 0.0f64;
                            for (raw, score) in &session.memo {
                                assert!(
                                    score.fitness <= bound,
                                    "{case}: {point:?} {raw:?} scores {} above its bound {bound}",
                                    score.fitness
                                );
                                best = best.max(score.fitness);
                            }
                            let genes = session.memo.len();
                            bounds.lock().unwrap().push((bound, genes, best / bound));
                        };
                        let mut eval = CandidateEvaluator::new(
                            model,
                            cfg.total_power,
                            &cfg.hw,
                            cfg.macro_mode,
                            cfg.ea.objective,
                        );
                        eval.session_hook = Some(&check);
                        eval.skipping = false;
                        let out =
                            run_dse_evaluated(model, &cfg, &ExploreContext::unobserved(), &eval)
                                .expect(&case);
                        let winner = objective.fitness(&out.report);
                        let bounds = bounds.into_inner().unwrap();
                        runs += bounds.len();
                        for &(bound, n, ratio) in &bounds {
                            tight += usize::from(bound < winner);
                            genes += n;
                            closest = closest.max(ratio);
                        }
                    }
                }
            }
            // The bound is not vacuous: some runs could not have won.
            assert!(
                tight > 0,
                "{mode} {objective:?}: no bound below its search's winner in {runs} runs"
            );
            eprintln!(
                "{mode} {objective:?}: {genes} scored genes, the closest at {closest:.3} of \
                 its bound; {tight} of {runs} EA runs bounded below their search's winner"
            );
        }
    }

    #[test]
    fn evaluator_stats_report_cache_hits() {
        use std::sync::Mutex;
        let model = zoo::alexnet_cifar(10);
        let last: Mutex<Option<crate::EvaluatorStats>> = Mutex::new(None);
        let observer = |ev: SynthesisEvent| {
            if let SynthesisEvent::EvaluatorStats { stats, .. } = ev {
                *last.lock().unwrap() = Some(stats);
            }
        };
        let ctx = ExploreContext::new(&observer, 0, CancelToken::new(), ExploreBudget::unlimited());
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
        let ctx = ExploreContext::new(&crate::ctx::NullSink, 0, cancel, ExploreBudget::unlimited());
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
            &crate::ctx::NullSink,
            0,
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
        let events: Mutex<Vec<SynthesisEvent>> = Mutex::new(Vec::new());
        let observer = |ev: SynthesisEvent| events.lock().unwrap().push(ev);
        let ctx = ExploreContext::new(&observer, 0, CancelToken::new(), ExploreBudget::unlimited());
        run_dse_observed(&model, &tiny_cfg(), &ctx).unwrap();
        let events = events.into_inner().unwrap();
        // One point: the four stages in paper order, each started before
        // finished, then the point summary.
        let mut stages_seen = Vec::new();
        for ev in &events {
            if let SynthesisEvent::StageStarted { stage, .. } = ev {
                stages_seen.push(*stage);
            }
        }
        assert_eq!(stages_seen, SynthesisStage::ALL.to_vec());
        assert!(matches!(
            events.last(),
            Some(SynthesisEvent::DesignPointEvaluated { .. })
        ));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SynthesisEvent::ImprovedBest { .. })),
            "a feasible run must improve on the initial zero best"
        );
    }
}
