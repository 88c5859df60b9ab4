//! The unified candidate-evaluation pipeline shared by all four synthesis
//! stages.
//!
//! Algorithm 1 spends essentially all of its time scoring candidates: every
//! SA weight-duplication probe, every EA macro-partitioning gene and every
//! outer design point runs dataflow compilation, components allocation and
//! the analytic performance model. Evaluation is layered:
//!
//! - [`EvalCore`] is the *pure scoring pipeline* — components allocation
//!   plus the analytic model for one run's fixed model, power, hardware,
//!   macro mode and objective. It holds no state and no policy: scoring a
//!   candidate through it is a pure function.
//! - The [`CandidateEvaluator`] wraps a core with the *caching and
//!   accounting* layers: a memo keyed by the canonicalized candidate, delta
//!   rescoring of EA children, an SA energy memo, budget charging and
//!   statistics. Every memo miss is scored on the calling thread.
//!
//! Caching is *transparent*: evaluation is a pure function of the
//! candidate, so a memo hit or a delta rescore returns exactly what
//! [`EvalCore::score`] computes for it, and every scored candidate — hit or
//! miss — is charged to the [`ExploreContext`] budget. Unique evaluations
//! (memo misses) are charged to the separate `max_unique_evaluations`
//! budget and reported through [`EvaluatorStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pimsyn_arch::{Architecture, CrossbarConfig, HardwareParams, MacroMode, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::{evaluate_analytic, SimReport};

use crate::alloc::{allocate_components, AllocRequest};
use crate::ctx::ExploreContext;
use crate::delta::{DeltaSession, FastMap};
use crate::ea::{MacAllocGene, Objective};
use crate::sa::SaTable;
use crate::space::DesignPoint;

/// Entry bound of each memo map (candidate scores, SA energies): roomy for
/// a paper-scale run while bounding worst-case memory (a candidate entry
/// holds a [`CandidateScore`], two words). Once a map is full, new results
/// are returned without being stored (no eviction, so resident entries
/// keep hitting).
const MEMO_CAPACITY: usize = 1 << 16;

/// Cumulative evaluator throughput counters, reported through
/// [`ExploreEvent::EvaluatorStats`](crate::ExploreEvent::EvaluatorStats).
///
/// `scored` counts every candidate scoring request (and matches what the
/// budget counter was charged); `unique_evaluations + cache_hits == scored`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvaluatorStats {
    /// Candidate scoring requests (cache hits included).
    pub scored: usize,
    /// Full compile → allocate → analytic-model evaluations actually run.
    pub unique_evaluations: usize,
    /// Requests served from the candidate memo.
    pub cache_hits: usize,
    /// SA energy-function probes (weight-duplication stage).
    pub sa_probes: usize,
    /// SA probes served from the energy memo.
    pub sa_cache_hits: usize,
    /// Always 0: the per-layer base-cost memo these counted was removed
    /// (recomputing a layer is cheaper than the lookup). Kept so consumers
    /// of the counter set keep working.
    pub layer_hits: usize,
    /// Always 0, like [`layer_hits`](Self::layer_hits).
    pub layer_misses: usize,
    /// Always 0, like [`layer_hits`](Self::layer_hits): the cache file
    /// that warm-started the memo was removed.
    pub preloaded: usize,
    /// Memo misses rescored incrementally from the parent's retained
    /// per-layer breakdown (delta path).
    pub delta_hits: usize,
    /// Parent-offered candidates that fell back to a full recomputation
    /// because their parent's breakdown was not retained in the run's
    /// session.
    pub delta_fallbacks: usize,
    /// Per-layer base-cost recomputations performed by delta sessions
    /// (fallbacks recompute every layer; pure delta hits only the touched
    /// ones).
    pub layers_recomputed: usize,
}

impl EvaluatorStats {
    /// Fraction of candidate scoring requests served from the memo.
    pub fn hit_rate(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.scored as f64
        }
    }
}

/// Canonical identity of one candidate within a synthesis run. The model,
/// power constraint, hardware constants, macro mode and objective are fixed
/// per evaluator, so the key only carries what varies between candidates.
#[derive(Debug, Hash, PartialEq, Eq, Clone)]
pub struct CandidateKey {
    /// `RatioRram` (bit pattern — the grid values are exact constants).
    pub ratio_bits: u64,
    /// Crossbar size and cell resolution.
    pub crossbar: CrossbarConfig,
    /// DAC resolution in bits.
    pub dac_bits: u32,
    /// Per-layer weight duplication; shared across every key of a batch
    /// (hash/eq see through the `Arc`).
    pub wt_dup: Arc<Vec<usize>>,
    /// The `MacAlloc` gene in the paper's canonical `owner*1000 + n`
    /// encoding (macro counts and sharing in one vector).
    pub gene: Vec<u32>,
}

/// Fitness and feasibility of one scored candidate.
///
/// Deliberately slim (two words): the memo cache holds one of these per
/// unique candidate, so it stores no architecture or report —
/// [`CandidateEvaluator::realize`] recomputes a winner's full implementation
/// on demand (one full scoring).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateScore {
    /// Objective fitness (0 for infeasible candidates).
    pub fitness: f64,
    /// Whether the candidate allocated and evaluated successfully.
    pub feasible: bool,
}

impl CandidateScore {
    /// A candidate that failed allocation or evaluation — also the
    /// placeholder for candidates skipped after a cooperative stop.
    pub const INFEASIBLE: Self = Self {
        fitness: 0.0,
        feasible: false,
    };
}

/// The pure scoring pipeline for one synthesis run: fixed model, power
/// budget, hardware constants, macro mode and objective.
///
/// [`compute`](Self::compute) and [`score`](Self::score) are pure functions
/// of the candidate, which is what makes memoization and delta rescoring
/// bit-identical to plain evaluation.
pub struct EvalCore<'a> {
    model: &'a Model,
    total_power: Watts,
    hw: &'a HardwareParams,
    macro_mode: MacroMode,
    objective: Objective,
}

impl std::fmt::Debug for EvalCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCore")
            .field("objective", &self.objective)
            .field("macro_mode", &self.macro_mode)
            .field("total_power", &self.total_power)
            .finish_non_exhaustive()
    }
}

impl<'a> EvalCore<'a> {
    /// A scoring core for one synthesis run.
    pub fn new(
        model: &'a Model,
        total_power: Watts,
        hw: &'a HardwareParams,
        macro_mode: MacroMode,
        objective: Objective,
    ) -> Self {
        Self {
            model,
            total_power,
            hw,
            macro_mode,
            objective,
        }
    }

    /// The CNN being synthesized.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// The run's total power constraint.
    pub fn total_power(&self) -> Watts {
        self.total_power
    }

    /// The run's hardware parameters.
    pub fn hw(&self) -> &HardwareParams {
        self.hw
    }

    /// Identical vs specialized macros.
    pub fn macro_mode(&self) -> MacroMode {
        self.macro_mode
    }

    /// What fitness maximizes.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The full scoring pipeline for one candidate (allocation + analytic
    /// model); pure, so memoization is transparent.
    pub fn compute(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        gene: &MacAllocGene,
    ) -> (f64, Option<(Architecture, SimReport)>) {
        let (macros, shares) = gene.decode();
        let req = AllocRequest {
            model: self.model,
            dataflow: df,
            point,
            total_power: self.total_power,
            hw: self.hw,
            macros: &macros,
            shares: &shares,
            macro_mode: self.macro_mode,
        };
        let Ok(arch) = allocate_components(&req) else {
            return (0.0, None);
        };
        match evaluate_analytic(self.model, df, &arch) {
            Ok(report) => (self.objective.fitness(&report), Some((arch, report))),
            Err(_) => (0.0, None),
        }
    }

    /// [`compute`](Self::compute) reduced to the slim score.
    pub fn score(&self, df: &Dataflow, point: DesignPoint, gene: &MacAllocGene) -> CandidateScore {
        let (fitness, completed) = self.compute(df, point, gene);
        CandidateScore {
            fitness,
            feasible: completed.is_some(),
        }
    }
}

/// Where an earlier memo miss of the same [`score_batch_with_parents`]
/// call stands.
///
/// [`score_batch_with_parents`]: CandidateEvaluator::score_batch_with_parents
#[derive(Clone, Copy)]
enum InBatch {
    /// Scored in the delta session during the accounting pass.
    Scored(CandidateScore),
    /// Awaiting the pending loop, at this index of the pending list.
    Pending(usize),
}

/// Memo misses awaiting scoring after the accounting pass: the unique key
/// and every input index it resolves.
type Pending = Vec<(CandidateKey, Vec<usize>)>;

/// The shared evaluation layer: scores macro-partitioning candidates
/// (components allocation + analytic model) and SA duplication probes, with
/// memoization and delta rescoring.
///
/// One evaluator spans one synthesis run (fixed model, power budget,
/// hardware constants, macro mode and objective); worker threads share it by
/// reference. Construction is cheap, so standalone stages (e.g.
/// [`explore_macro_partitioning`](crate::explore_macro_partitioning)) build
/// their own.
pub struct CandidateEvaluator<'a> {
    core: EvalCore<'a>,
    /// Entry bound of each memo map: [`MEMO_CAPACITY`], lowered only by
    /// tests.
    capacity: usize,
    candidates: Mutex<HashMap<CandidateKey, CandidateScore>>,
    energies: Mutex<HashMap<(Vec<usize>, u64), f64>>,
    /// Per-layer static Eq. (4) terms, so SA energy misses skip the model
    /// walk.
    sa_table: SaTable,
    scored: AtomicUsize,
    unique: AtomicUsize,
    hits: AtomicUsize,
    sa_probes: AtomicUsize,
    sa_hits: AtomicUsize,
    delta_hits: AtomicUsize,
    delta_fallbacks: AtomicUsize,
    layers_recomputed: AtomicUsize,
}

impl std::fmt::Debug for CandidateEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateEvaluator")
            .field("objective", &self.core.objective())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<'a> CandidateEvaluator<'a> {
    /// An evaluator for one synthesis run.
    pub fn new(
        model: &'a Model,
        total_power: Watts,
        hw: &'a HardwareParams,
        macro_mode: MacroMode,
        objective: Objective,
    ) -> Self {
        Self {
            core: EvalCore::new(model, total_power, hw, macro_mode, objective),
            capacity: MEMO_CAPACITY,
            candidates: Mutex::new(HashMap::new()),
            energies: Mutex::new(HashMap::new()),
            sa_table: SaTable::new(model),
            scored: AtomicUsize::new(0),
            unique: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            sa_probes: AtomicUsize::new(0),
            sa_hits: AtomicUsize::new(0),
            delta_hits: AtomicUsize::new(0),
            delta_fallbacks: AtomicUsize::new(0),
            layers_recomputed: AtomicUsize::new(0),
        }
    }

    /// The objective this evaluator's fitness values maximize.
    pub fn objective(&self) -> Objective {
        self.core.objective()
    }

    /// The Eq. (4) SA energy of a duplication vector, memoized. Identical to
    /// [`crate::sa_energy`] (the memo and the precomputed per-layer table
    /// are both transparent).
    pub fn sa_energy(&self, dup: &[usize], alpha: f64) -> f64 {
        self.sa_probes.fetch_add(1, Ordering::Relaxed);
        let key = (dup.to_vec(), alpha.to_bits());
        if let Some(&e) = self.energies.lock().expect("energy memo").get(&key) {
            self.sa_hits.fetch_add(1, Ordering::Relaxed);
            return e;
        }
        let e = self.sa_table.energy(dup, alpha);
        let mut map = self.energies.lock().expect("energy memo");
        if map.len() < self.capacity {
            map.insert(key, e);
        }
        e
    }

    fn make_key(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        gene: &MacAllocGene,
        wt_dup: &Arc<Vec<usize>>,
    ) -> CandidateKey {
        CandidateKey {
            ratio_bits: point.ratio_rram.to_bits(),
            crossbar: point.crossbar,
            dac_bits: df.dac().bits(),
            wt_dup: Arc::clone(wt_dup),
            gene: gene.as_slice().to_vec(),
        }
    }

    fn store(&self, key: CandidateKey, score: CandidateScore) {
        let mut memo = self.candidates.lock().expect("candidate memo");
        if memo.len() < self.capacity {
            memo.insert(key, score);
        }
    }

    /// Scores one macro-partitioning candidate: components allocation plus
    /// the analytic model, memoized on the canonical candidate key.
    ///
    /// Every call — hit or miss — charges one evaluation to `ctx`'s budget
    /// counter, so a budget stops the search at the same candidate whatever
    /// the memo holds; only misses charge the unique-evaluation budget.
    pub fn score(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        gene: &MacAllocGene,
        ctx: &ExploreContext<'_>,
    ) -> CandidateScore {
        ctx.count_evaluations(1);
        self.scored.fetch_add(1, Ordering::Relaxed);
        let wt_dup = Arc::new(df.programs().iter().map(|p| p.wt_dup).collect::<Vec<_>>());
        let key = self.make_key(df, point, gene, &wt_dup);
        if let Some(&hit) = self.candidates.lock().expect("candidate memo").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.unique.fetch_add(1, Ordering::Relaxed);
        ctx.count_unique_evaluations(1);
        let score = self.core.score(df, point, gene);
        self.store(key, score);
        score
    }

    /// Scores one delta-eligible memo miss in `session` and records the
    /// delta counters.
    fn delta_score(
        &self,
        session: &mut DeltaSession<'_>,
        gene: &MacAllocGene,
        parent: &MacAllocGene,
    ) -> CandidateScore {
        let out = session.score(&self.core, gene, parent.as_slice());
        if out.used_delta {
            self.delta_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.delta_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        if out.layers_recomputed > 0 {
            self.layers_recomputed
                .fetch_add(out.layers_recomputed, Ordering::Relaxed);
        }
        out.score
    }

    /// Scores a whole generation of candidates, returning `(scores,
    /// charged)`: scores in input order (deterministic reduction) and the
    /// number of candidates actually scored and charged to the budget.
    ///
    /// The accounting pass is serial and cooperative: each candidate checks
    /// `ctx` before being charged, and once a stop (cancellation, deadline,
    /// exhausted budget) is observed the remaining candidates come back as
    /// [`CandidateScore::INFEASIBLE`] placeholders without being computed
    /// or charged. The memo misses that survive the pass are then scored
    /// and stored in the order they were charged. Duplicates *within* a
    /// batch are computed once and counted as cache hits (the serial path
    /// would have found them in the memo).
    ///
    /// Cancellation additionally short-circuits the scoring of those
    /// misses, so `CancelToken::cancel` stays prompt even mid-generation;
    /// the resulting placeholders are never stored in the memo (a cancelled
    /// run's results are discarded anyway). Budget and deadline stops are
    /// observed only by the accounting pass: once a candidate has been
    /// charged it is always genuinely computed.
    pub fn score_batch(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        genes: &[MacAllocGene],
        ctx: &ExploreContext<'_>,
    ) -> (Vec<CandidateScore>, usize) {
        self.score_batch_with_parents(&mut DeltaSession::new(df, point), genes, &[], ctx)
    }

    /// [`score_batch`](Self::score_batch) of the candidates of `session`'s
    /// dataflow and design point, with per-candidate parent identity:
    /// `parents[i]` names the gene candidate `i` was mutated from (missing
    /// or `None` entries are scored in full after the accounting pass).
    /// Memo misses with a parent are rescored in `session` during the
    /// accounting pass, incrementally when the session retained the
    /// parent's breakdown; a later in-batch duplicate counts as a hit
    /// exactly where the plain path counts a pending-duplicate hit, full
    /// memo or not. Scores, budget charges, `evaluations` and memo contents
    /// are bit-identical to [`score_batch`](Self::score_batch), which offers
    /// no parents; only wall-clock (and the delta counters in
    /// [`EvaluatorStats`]) differ. One EA run passes one session to every
    /// generation's call and drops it when the run ends.
    pub fn score_batch_with_parents(
        &self,
        session: &mut DeltaSession<'_>,
        genes: &[MacAllocGene],
        parents: &[Option<&MacAllocGene>],
        ctx: &ExploreContext<'_>,
    ) -> (Vec<CandidateScore>, usize) {
        let (df, point) = (session.dataflow(), session.point());
        let n = genes.len();
        let wt_dup = Arc::new(df.programs().iter().map(|p| p.wt_dup).collect::<Vec<_>>());
        let mut out = vec![CandidateScore::INFEASIBLE; n];
        let mut charged = 0usize;
        let mut pending: Pending = Vec::new();
        // This batch's misses, so a later duplicate is a hit even when the
        // memo is full and stores nothing. Keyed by gene alone: every key
        // of one call shares the session's dataflow and design point.
        let mut in_batch: FastMap<&[u32], InBatch> = FastMap::default();

        for (i, gene) in genes.iter().enumerate() {
            if ctx.should_stop() {
                break;
            }
            ctx.count_evaluations(1);
            self.scored.fetch_add(1, Ordering::Relaxed);
            charged += 1;
            let key = self.make_key(df, point, gene, &wt_dup);
            if let Some(&hit) = self.candidates.lock().expect("candidate memo").get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                out[i] = hit;
                continue;
            }
            if let Some(&earlier) = in_batch.get(gene.as_slice()) {
                // Duplicate of an earlier miss: one computation serves
                // both, and the duplicate counts as the hit the serial
                // path would have recorded.
                self.hits.fetch_add(1, Ordering::Relaxed);
                match earlier {
                    InBatch::Scored(score) => out[i] = score,
                    InBatch::Pending(p) => pending[p].1.push(i),
                }
                continue;
            }
            self.unique.fetch_add(1, Ordering::Relaxed);
            ctx.count_unique_evaluations(1);
            if let Some(p) = parents.get(i).copied().flatten() {
                // Delta-eligible miss: the session replays the full
                // pipeline in both macro modes; computed now, stored at once.
                out[i] = self.delta_score(session, gene, p);
                self.store(key, out[i]);
                in_batch.insert(gene.as_slice(), InBatch::Scored(out[i]));
                continue;
            }
            in_batch.insert(gene.as_slice(), InBatch::Pending(pending.len()));
            pending.push((key, vec![i]));
        }

        // Only cancellation stops this loop: charged candidates must compute
        // under budget and deadline stops, but a cancelled run's scores are
        // discarded, so skipping is safe.
        let cancel = ctx.cancel_token();
        self.score_pending(df, point, genes, pending, &mut out, || {
            cancel.is_cancelled()
        });
        (out, charged)
    }

    /// Scores the misses the accounting pass left pending and stores them,
    /// both in pending order: paper runs fill the memo, so the store order
    /// decides which scores it keeps. `stop` is polled before each
    /// candidate; once it turns `true`, the rest stay
    /// [`CandidateScore::INFEASIBLE`] placeholders and are not stored.
    fn score_pending(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        genes: &[MacAllocGene],
        pending: Pending,
        out: &mut [CandidateScore],
        stop: impl Fn() -> bool,
    ) {
        for (key, indices) in pending {
            if stop() {
                break;
            }
            let score = self.core.score(df, point, &genes[indices[0]]);
            for i in indices {
                out[i] = score;
            }
            self.store(key, score);
        }
    }

    /// Recomputes the completed architecture and analytic report of a
    /// previously scored, feasible candidate (typically the winner). Not
    /// charged to the exploration budget and not counted as a scored
    /// candidate: the memo stores only slim scores, so realization
    /// re-derives what an unmemoized pipeline would have kept, at the cost
    /// of one full scoring. Returns `None` for infeasible candidates.
    pub fn realize(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        gene: &MacAllocGene,
    ) -> Option<(Architecture, SimReport)> {
        self.core.compute(df, point, gene).1
    }

    /// Snapshot of the cumulative throughput counters.
    pub fn stats(&self) -> EvaluatorStats {
        EvaluatorStats {
            scored: self.scored.load(Ordering::Relaxed),
            unique_evaluations: self.unique.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            sa_probes: self.sa_probes.load(Ordering::Relaxed),
            sa_cache_hits: self.sa_hits.load(Ordering::Relaxed),
            layer_hits: 0,
            layer_misses: 0,
            preloaded: 0,
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            delta_fallbacks: self.delta_fallbacks.load(Ordering::Relaxed),
            layers_recomputed: self.layers_recomputed.load(Ordering::Relaxed),
        }
    }

    /// Empties both memo maps (counters untouched), so a test can run a
    /// search on this evaluator as if its memo were fresh.
    #[cfg(test)]
    pub(crate) fn clear_memo(&self) {
        self.candidates.lock().expect("candidate memo").clear();
        self.energies.lock().expect("energy memo").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{run_dse_evaluated, DseConfig};
    use crate::sa::sa_energy;
    use pimsyn_arch::{DacConfig, HardwareParams};
    use pimsyn_model::zoo;

    fn setup() -> (Model, Dataflow, DesignPoint) {
        let model = zoo::alexnet_cifar(10);
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![1; model.weight_layer_count()];
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        (model, df, point)
    }

    fn evaluator<'a>(model: &'a Model, hw: &'a HardwareParams) -> CandidateEvaluator<'a> {
        evaluator_in(model, hw, MacroMode::Specialized)
    }

    fn evaluator_in<'a>(
        model: &'a Model,
        hw: &'a HardwareParams,
        mode: MacroMode,
    ) -> CandidateEvaluator<'a> {
        CandidateEvaluator::new(model, Watts(9.0), hw, mode, Objective::PowerEfficiency)
    }

    /// The reference every memo hit and delta rescore must equal.
    fn core_in<'a>(model: &'a Model, hw: &'a HardwareParams, mode: MacroMode) -> EvalCore<'a> {
        EvalCore::new(model, Watts(9.0), hw, mode, Objective::PowerEfficiency)
    }

    fn gene(l: usize, macros: usize) -> MacAllocGene {
        MacAllocGene::encode(&vec![macros; l], &vec![None; l])
    }

    #[test]
    fn repeated_scores_hit_the_memo_and_match() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let a = eval.score(&df, point, &gene(l, 1), &ctx);
        let b = eval.score(&df, point, &gene(l, 1), &ctx);
        assert_eq!(a, b, "hit must return the stored score verbatim");
        let stats = eval.stats();
        assert_eq!(stats.scored, 2);
        assert_eq!(stats.unique_evaluations, 1);
        assert_eq!(stats.cache_hits, 1);
        // Both requests were charged to the budget (cache-transparent); the
        // miss alone was charged to the unique counter.
        assert_eq!(ctx.evaluations(), 2);
        assert_eq!(ctx.unique_evaluations(), 1);
        // `score` offers no parent, so it never takes the delta path.
        assert_eq!(stats.delta_hits + stats.delta_fallbacks, 0);
    }

    #[test]
    fn scores_and_realizations_match_the_core() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let core = core_in(&model, &hw, MacroMode::Specialized);
        let ctx = ExploreContext::unobserved();
        let g = gene(l, 2);
        let a = eval.score(&df, point, &g, &ctx);
        let hit = eval.score(&df, point, &g, &ctx);
        assert_eq!(a, core.score(&df, point, &g));
        assert_eq!(hit, a);
        // Realized implementations (full architecture + report) also agree
        // bit-for-bit between the memoized evaluator and the core.
        match (eval.realize(&df, point, &g), core.compute(&df, point, &g).1) {
            (Some((aa, ar)), Some((ba, br))) => {
                assert_eq!(aa, ba);
                assert_eq!(ar, br);
            }
            (None, None) => assert!(!a.feasible),
            _ => panic!("the evaluator and the core disagree on feasibility"),
        }
        assert_eq!(eval.stats().cache_hits, 1);
        assert_eq!(eval.stats().unique_evaluations, 1);
    }

    #[test]
    fn duplicate_genes_within_a_batch_compute_once() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let genes = vec![gene(l, 1), gene(l, 2), gene(l, 1), gene(l, 2), gene(l, 1)];
        let (scores, charged) = eval.score_batch(&df, point, &genes, &ctx);
        assert_eq!(charged, 5);
        assert_eq!(scores[0], scores[2]);
        assert_eq!(scores[0], scores[4]);
        assert_eq!(scores[1], scores[3]);
        let stats = eval.stats();
        assert_eq!(stats.scored, 5);
        assert_eq!(stats.unique_evaluations, 2);
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(ctx.unique_evaluations(), 2);
    }

    #[test]
    fn score_batch_stops_cooperatively_mid_batch() {
        use crate::ctx::{CancelToken, ExploreBudget, NullObserver};
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let ctx = ExploreContext::new(
            &NullObserver,
            CancelToken::new(),
            ExploreBudget::unlimited().with_max_evaluations(2),
        );
        let genes: Vec<MacAllocGene> = (1..=5).map(|m| gene(l, m)).collect();
        let (scores, charged) = eval.score_batch(&df, point, &genes, &ctx);
        // The budget trips after two candidates; the rest are skipped
        // placeholders and nothing further is charged.
        assert_eq!(scores.len(), genes.len());
        assert_eq!(charged, 2);
        assert_eq!(ctx.evaluations(), 2);
        assert_eq!(scores[2], CandidateScore::INFEASIBLE);
        assert_eq!(scores[4], CandidateScore::INFEASIBLE);
    }

    #[test]
    fn unique_evaluation_budget_stops_the_batch_on_misses() {
        use crate::ctx::{CancelToken, ExploreBudget, NullObserver, StopReason};
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let ctx = ExploreContext::new(
            &NullObserver,
            CancelToken::new(),
            ExploreBudget::unlimited().with_max_unique_evaluations(2),
        );
        // Two distinct genes exhaust the unique budget; the rest of the
        // batch comes back as skipped placeholders, uncharged.
        let genes = vec![gene(l, 1), gene(l, 2), gene(l, 3), gene(l, 1)];
        let (scores, charged) = eval.score_batch(&df, point, &genes, &ctx);
        assert_eq!(charged, 2);
        assert_eq!(ctx.unique_evaluations(), 2);
        assert_eq!(scores[2], CandidateScore::INFEASIBLE);
        assert_eq!(scores[3], CandidateScore::INFEASIBLE);
        assert_eq!(
            ctx.observed_stop(),
            Some(StopReason::UniqueEvaluationBudgetReached)
        );
    }

    #[test]
    fn cancellation_short_circuits_inside_a_backend_batch() {
        // The batch is the memo misses a `score_batch` call hands to its
        // scoring back end, the private `score_pending` loop.
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let genes: Vec<MacAllocGene> = (1..=4).map(|m| gene(l, m)).collect();
        let wt_dup = Arc::new(df.programs().iter().map(|p| p.wt_dup).collect::<Vec<_>>());
        let keys: Vec<CandidateKey> = genes
            .iter()
            .map(|g| eval.make_key(&df, point, g, &wt_dup))
            .collect();
        let pending: Pending = keys
            .iter()
            .enumerate()
            .map(|(i, key)| (key.clone(), vec![i]))
            .collect();
        let mut scores = vec![CandidateScore::INFEASIBLE; genes.len()];
        // Stop flips true from the third poll on: the first two candidates
        // compute, the rest come back as skipped placeholders.
        let polls = AtomicUsize::new(0);
        let stop = || polls.fetch_add(1, Ordering::Relaxed) >= 2;
        eval.score_pending(&df, point, &genes, pending, &mut scores, stop);
        assert_ne!(scores[0], CandidateScore::INFEASIBLE);
        assert_ne!(scores[1], CandidateScore::INFEASIBLE);
        assert_eq!(scores[2], CandidateScore::INFEASIBLE);
        assert_eq!(scores[3], CandidateScore::INFEASIBLE);
        // Only the computed scores reach the memo.
        let memo = eval.candidates.lock().unwrap();
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get(&keys[1]), Some(&scores[1]));
        assert!(!memo.contains_key(&keys[2]));
        assert!(!memo.contains_key(&keys[3]));
    }

    #[test]
    fn realize_reconstructs_a_feasible_winner() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let g = gene(l, 1);
        let score = eval.score(&df, point, &g, &ctx);
        assert!(score.feasible);
        let (arch, report) = eval.realize(&df, point, &g).expect("feasible");
        arch.validate(&model).expect("realized winner validates");
        assert_eq!(eval.objective().fitness(&report), score.fitness);
        // Realization is free: neither scored nor budget-charged.
        assert_eq!(eval.stats().scored, 1);
        assert_eq!(ctx.evaluations(), 1);
    }

    #[test]
    fn sa_energy_memo_is_transparent() {
        let (model, _, _) = setup();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let dup = vec![2; model.weight_layer_count()];
        let direct = sa_energy(&model, &dup, 0.5);
        assert_eq!(eval.sa_energy(&dup, 0.5), direct);
        assert_eq!(eval.sa_energy(&dup, 0.5), direct);
        let stats = eval.stats();
        assert_eq!(stats.sa_probes, 2);
        assert_eq!(stats.sa_cache_hits, 1);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let mut eval = evaluator(&model, &hw);
        eval.capacity = 0;
        let ctx = ExploreContext::unobserved();
        eval.score(&df, point, &gene(l, 1), &ctx);
        eval.score(&df, point, &gene(l, 1), &ctx);
        let stats = eval.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.unique_evaluations, 2);
    }

    /// Parent-aware scoring must be bit-identical to plain scoring, route
    /// through the session exactly when a parent is usable, and fall back
    /// (with full retention) when the parent has no retained breakdown.
    #[test]
    fn delta_rescoring_matches_plain_scoring_bit_for_bit() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let delta = evaluator(&model, &hw);
        let plain = evaluator(&model, &hw);
        let core = core_in(&model, &hw, MacroMode::Specialized);
        let ctx = ExploreContext::unobserved();
        let mut session = DeltaSession::new(&df, point);

        let parent = gene(l, 1);
        let mut m = vec![1usize; l];
        m[0] = 2;
        let child = MacAllocGene::encode(&m, &vec![None; l]);
        m[1] = 2;
        let grandchild = MacAllocGene::encode(&m, &vec![None; l]);

        // Parent scores in full (no parent offered); the child miss is
        // parented but the parent is not retained yet, so the session
        // recomputes fully (a fallback) and retains the child.
        let genes = [parent.clone(), child.clone()];
        let parents = [None, Some(&parent)];
        let (a, _) = delta.score_batch_with_parents(&mut session, &genes, &parents, &ctx);
        // `score_batch` offers no parents: the delta-free path.
        plain.score_batch(&df, point, &genes, &ctx);
        for (x, g) in a.iter().zip(&genes) {
            let y = core.score(&df, point, g);
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
            assert_eq!(x.feasible, y.feasible);
        }
        assert_eq!(delta.stats().delta_fallbacks, 1);
        assert_eq!(delta.stats().delta_hits, 0);

        // The grandchild differs from the (now retained) child by one gene:
        // a genuine delta hit, still bit-identical.
        let (c, _) = delta.score_batch_with_parents(
            &mut session,
            std::slice::from_ref(&grandchild),
            &[Some(&child)],
            &ctx,
        );
        let d = core.score(&df, point, &grandchild);
        plain.score_batch(&df, point, &[grandchild], &ctx);
        assert_eq!(c[0].fitness.to_bits(), d.fitness.to_bits());
        assert_eq!(c[0].feasible, d.feasible);
        let stats = delta.stats();
        assert_eq!(stats.delta_hits, 1);
        assert_eq!(stats.delta_fallbacks, 1);
        // The fallback recomputed every layer; the delta hit only touched
        // ones (the changed layer, plus any whose water-filled counts moved
        // and missed the base memo).
        assert!(stats.layers_recomputed > l);
        assert!(stats.layers_recomputed < 3 * l);
        // Both evaluators charged and memoized identically.
        assert_eq!(
            delta.stats().unique_evaluations,
            plain.stats().unique_evaluations
        );
        assert_eq!(delta.stats().cache_hits, plain.stats().cache_hits);
    }

    /// Every reuse compares exact inputs, so a child whose gene differs
    /// from its retained parent in more entries than one mutation round
    /// writes (three here) is still a delta hit — and still bit-identical
    /// to the core.
    #[test]
    fn delta_wide_diff_is_a_delta_hit() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let mut session = DeltaSession::new(&df, point);
        let mut score_child = |child: &MacAllocGene, parent: &MacAllocGene| {
            let batch = std::slice::from_ref(child);
            eval.score_batch_with_parents(&mut session, batch, &[Some(parent)], &ctx)
                .0[0]
        };

        let parent = gene(l, 1);
        // Retain the parent's breakdown (self-parented fallback).
        score_child(&parent, &parent);
        assert_eq!(eval.stats().delta_fallbacks, 1);

        let mut m = vec![1usize; l];
        m[0] = 2;
        m[1] = 2;
        m[2] = 2;
        let wide = MacAllocGene::encode(&m, &vec![None; l]);
        let via_delta = score_child(&wide, &parent);
        let stats = eval.stats();
        assert_eq!(stats.delta_hits, 1, "3-entry diff must be a delta hit");
        assert_eq!(stats.delta_fallbacks, 1);

        let reference = core_in(&model, &hw, MacroMode::Specialized).score(&df, point, &wide);
        assert_eq!(via_delta.fitness.to_bits(), reference.fitness.to_bits());
        assert_eq!(via_delta.feasible, reference.feasible);
    }

    /// Identical macro mode homogenizes counts across layers; the session
    /// replays that pass, so parented children are delta hits there too,
    /// bit-identical to the core.
    #[test]
    fn identical_mode_children_are_delta_hits_and_bit_identical() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let delta = evaluator_in(&model, &hw, MacroMode::Identical);
        let core = core_in(&model, &hw, MacroMode::Identical);
        let ctx = ExploreContext::unobserved();
        let mut session = DeltaSession::new(&df, point);

        let parent = gene(l, 1);
        let mut m = vec![1usize; l];
        m[0] = 2;
        let one = MacAllocGene::encode(&m, &vec![None; l]);
        m[1] = 3;
        m[2] = 2;
        let wide = MacAllocGene::encode(&m, &vec![None; l]);
        let mut shares = vec![None; l];
        shares[l - 1] = Some(0);
        let shared = MacAllocGene::encode(&vec![1usize; l], &shares);

        // Self-parented first score: a fallback that retains the parent.
        let mut score_child = |child: &MacAllocGene| {
            let batch = std::slice::from_ref(child);
            delta
                .score_batch_with_parents(&mut session, batch, &[Some(&parent)], &ctx)
                .0[0]
        };
        for child in [&parent, &one, &wide, &shared] {
            let via_session = score_child(child);
            let reference = core.score(&df, point, child);
            assert!(reference.feasible);
            assert_eq!(via_session.fitness.to_bits(), reference.fitness.to_bits());
            assert_eq!(via_session.feasible, reference.feasible);
        }
        let stats = delta.stats();
        assert_eq!(stats.delta_fallbacks, 1);
        assert_eq!(stats.delta_hits, 3);
    }

    /// A delta-scored miss serves later duplicates in its batch as hits
    /// even when the memo is full, so a capacity-0 evaluator charges the
    /// same with parents offered (delta) as without.
    #[test]
    fn in_batch_duplicates_hit_with_a_full_memo_with_or_without_delta() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let parent = gene(l, 1);
        let mut m = vec![1usize; l];
        m[0] = 2;
        let genes = vec![MacAllocGene::encode(&m, &vec![None; l]); 3];
        let parents = [Some(&parent); 3];
        let run = |delta: bool| {
            let mut eval = evaluator(&model, &hw);
            eval.capacity = 0;
            let ctx = ExploreContext::unobserved();
            let mut session = DeltaSession::new(&df, point);
            let offered: &[Option<&MacAllocGene>] = if delta { &parents } else { &[] };
            let (scores, _) = eval.score_batch_with_parents(&mut session, &genes, offered, &ctx);
            (scores, eval.stats(), ctx.unique_evaluations())
        };
        let (on, on_stats, on_unique) = run(true);
        let (off, off_stats, off_unique) = run(false);
        let reference = core_in(&model, &hw, MacroMode::Specialized).score(&df, point, &genes[0]);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.fitness.to_bits(), reference.fitness.to_bits());
            assert_eq!(b.fitness.to_bits(), reference.fitness.to_bits());
        }
        assert_eq!(on_stats.unique_evaluations, off_stats.unique_evaluations);
        assert_eq!(on_stats.cache_hits, off_stats.cache_hits);
        assert_eq!(on_unique, off_unique);
        assert_eq!(on_stats.unique_evaluations, 1);
        assert_eq!(on_stats.delta_fallbacks, 1, "the miss took the session");
    }

    /// A memo hit can only return the reference score: after each search
    /// over five zoo models (both macro modes, seeds 3 and 17, fast effort),
    /// every candidate-memo entry rescored from its key alone through
    /// [`EvalCore::score`], and every SA-energy entry through [`sa_energy`],
    /// matches bit for bit.
    #[test]
    fn every_memo_entry_rescores_bit_identically() {
        let cases = [
            (zoo::alexnet_cifar(10), Watts(9.0)),
            (zoo::vgg16_cifar(10), Watts(15.0)),
            // New-op coverage: attention MatMul/Softmax/Mul and residual Add
            // (transformer-tiny), squeeze-excite gates over grouped residual
            // blocks (resnet18-se). Depthwise layers map block-diagonally,
            // so mobilenet needs the larger crossbar budget.
            (zoo::transformer_tiny(), Watts(6.0)),
            (zoo::resnet18_se(), Watts(30.0)),
            (zoo::mobilenet(), Watts(120.0)),
        ];
        let (mut candidates, mut energies) = (0usize, 0usize);
        for (model, power) in &cases {
            for mode in [MacroMode::Specialized, MacroMode::Identical] {
                for seed in [3u64, 17] {
                    // What `SynthesisOptions::fast(power)` lowers to, with
                    // this seed and macro mode.
                    let mut cfg = DseConfig::fast(*power);
                    cfg.macro_mode = mode;
                    cfg.seed = seed;
                    cfg.sa.seed = seed ^ 0x5A;
                    cfg.ea.seed = seed ^ 0xEA;
                    let case = format!("{model} {mode} seed {seed}");
                    let objective = cfg.ea.objective;
                    let eval = CandidateEvaluator::new(model, *power, &cfg.hw, mode, objective);
                    let ctx = ExploreContext::unobserved();
                    run_dse_evaluated(model, &cfg, &ctx, &eval).expect(&case);

                    let core = EvalCore::new(model, *power, &cfg.hw, mode, objective);
                    let mut dataflows = HashMap::new();
                    let memo = eval.candidates.lock().unwrap();
                    for (key, score) in memo.iter() {
                        let df = dataflows
                            .entry((key.crossbar, key.dac_bits, Arc::clone(&key.wt_dup)))
                            .or_insert_with(|| {
                                let dac = DacConfig::new(key.dac_bits).unwrap();
                                Dataflow::compile(model, key.crossbar, dac, &key.wt_dup).unwrap()
                            });
                        let point = DesignPoint {
                            ratio_rram: f64::from_bits(key.ratio_bits),
                            crossbar: key.crossbar,
                        };
                        let gene = MacAllocGene::from_raw(key.gene.clone()).unwrap();
                        let reference = core.score(df, point, &gene);
                        assert_eq!(
                            score.fitness.to_bits(),
                            reference.fitness.to_bits(),
                            "{case}: {key:?}"
                        );
                        assert_eq!(score.feasible, reference.feasible, "{case}: {key:?}");
                    }
                    candidates += memo.len();
                    let memo = eval.energies.lock().unwrap();
                    for ((dup, alpha), energy) in memo.iter() {
                        let reference = sa_energy(model, dup, f64::from_bits(*alpha));
                        assert_eq!(energy.to_bits(), reference.to_bits(), "{case}: {dup:?}");
                    }
                    energies += memo.len();
                }
            }
        }
        assert!(candidates > 0 && energies > 0, "{candidates} / {energies}");
        eprintln!("rescored {candidates} candidate entries and {energies} SA energies");
    }

    #[test]
    fn stats_hit_rate() {
        let stats = EvaluatorStats {
            scored: 4,
            unique_evaluations: 3,
            cache_hits: 1,
            ..EvaluatorStats::default()
        };
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(EvaluatorStats::default().hit_rate(), 0.0);
    }
}
