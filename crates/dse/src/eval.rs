//! The unified candidate-evaluation pipeline shared by all four synthesis
//! stages.
//!
//! Algorithm 1 spends essentially all of its time scoring candidates: every
//! SA weight-duplication probe, every EA macro-partitioning gene and every
//! outer design point runs dataflow compilation, components allocation and
//! the analytic performance model. Evaluation has two layers:
//!
//! - [`EvalCore`] is the *pure scoring pipeline* — components allocation
//!   plus the analytic model for one run's fixed model, power, hardware,
//!   macro mode and objective. It holds no state and no policy: scoring a
//!   candidate through it is a pure function.
//! - Each EA run's [`RunSession`](crate::RunSession) does the
//!   accounting: its `score_batch` charges every candidate to the
//!   [`ExploreContext`](crate::ExploreContext) budget, serves repeats from
//!   the run's memo, scores every miss on the calling thread through the
//!   run's solve memo and counts all of it in the session's own
//!   [`EvaluatorStats`].
//!
//! Caching is *transparent*: evaluation is a pure function of the
//! candidate, so a memo hit or a session score returns exactly what
//! [`EvalCore::score`] computes for it, and every scored candidate — hit or
//! miss — is charged to the budget. The SA stage counts its own probes,
//! and the search adds each point's probes and runs' counters into one
//! [`EvaluatorStats`] per point; nothing is shared between threads, so the
//! counters do not depend on which thread ran which run.

use std::ops::AddAssign;

use pimsyn_arch::{Architecture, HardwareParams, MacroMode, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::{evaluate_analytic, SimReport};

use crate::alloc::{allocate_components, AllocRequest};
use crate::ea::{MacAllocGene, Objective};
use crate::space::DesignPoint;

/// Evaluator throughput counters, reported through
/// [`SynthesisEvent::EvaluatorStats`](crate::SynthesisEvent::EvaluatorStats).
///
/// `scored` counts every candidate scoring request (and matches what the
/// budget counter was charged); `unique_evaluations + cache_hits == scored`.
/// Counters of disjoint work add up with `+=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvaluatorStats {
    /// Candidate scoring requests (cache hits included).
    pub scored: usize,
    /// Memo misses: candidates the EA run's session scored.
    pub unique_evaluations: usize,
    /// Requests served from the EA run's candidate memo.
    pub cache_hits: usize,
    /// SA energy-function probes (weight-duplication stage).
    pub sa_probes: usize,
    /// Always 0, like [`layer_hits`](Self::layer_hits): the SA-energy memo
    /// it counted was removed (Eq. (4) is a closed-form O(L) sum, cheaper
    /// to recompute than to look up).
    pub sa_cache_hits: usize,
    /// Always 0: the per-layer stage-cost memo these counted was removed
    /// (recomputing a layer is cheaper than the lookup). Kept so consumers
    /// of the counter set keep working.
    pub layer_hits: usize,
    /// Always 0, like [`layer_hits`](Self::layer_hits).
    pub layer_misses: usize,
    /// Always 0, like [`layer_hits`](Self::layer_hits): the cache file
    /// that warm-started the memo was removed.
    pub preloaded: usize,
    /// Always 0, like [`layer_hits`](Self::layer_hits): the rescoring from
    /// a parent's retained per-layer breakdown it counted was removed (a
    /// child's new macro count changes every layer's Eq. (6) counts, so
    /// little was reused).
    pub delta_hits: usize,
    /// Always 0, like [`delta_hits`](Self::delta_hits).
    pub delta_fallbacks: usize,
    /// Always 0, like [`delta_hits`](Self::delta_hits).
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

impl AddAssign for EvaluatorStats {
    fn add_assign(&mut self, other: Self) {
        self.scored += other.scored;
        self.unique_evaluations += other.unique_evaluations;
        self.cache_hits += other.cache_hits;
        self.sa_probes += other.sa_probes;
        self.sa_cache_hits += other.sa_cache_hits;
        self.layer_hits += other.layer_hits;
        self.layer_misses += other.layer_misses;
        self.preloaded += other.preloaded;
        self.delta_hits += other.delta_hits;
        self.delta_fallbacks += other.delta_fallbacks;
        self.layers_recomputed += other.layers_recomputed;
    }
}

/// Fitness and feasibility of one scored candidate.
///
/// Deliberately slim (two words): an EA run's memo holds one of these per
/// unique candidate, so it stores no architecture or report —
/// [`EvalCore::compute`] recomputes a winner's full implementation on
/// demand (one full scoring).
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
/// of the candidate, which is what makes the memos of an EA run's session
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

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::ctx::{CancelToken, ExploreBudget, ExploreContext, NullSink, StopReason};
    use crate::explore::{run_dse_observed, DseConfig};
    use crate::session::RunSession;
    use crate::SynthesisEvent;
    use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams};
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

    /// The scorer of the tests' sessions, and the reference every memo hit
    /// and session score must equal.
    fn core_in<'a>(model: &'a Model, hw: &'a HardwareParams, mode: MacroMode) -> EvalCore<'a> {
        EvalCore::new(model, Watts(9.0), hw, mode, Objective::PowerEfficiency)
    }

    fn core<'a>(model: &'a Model, hw: &'a HardwareParams) -> EvalCore<'a> {
        core_in(model, hw, MacroMode::Specialized)
    }

    fn gene(l: usize, macros: usize) -> MacAllocGene {
        MacAllocGene::encode(&vec![macros; l], &vec![None; l])
    }

    #[test]
    fn repeated_scores_hit_the_memo_and_match() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let mut session = RunSession::new(&df, point);
        let a = session.score_batch(&core, &[gene(l, 1)], &ctx);
        let b = session.score_batch(&core, &[gene(l, 1)], &ctx);
        assert_eq!(a, b, "hit must return the stored score verbatim");
        let stats = session.stats();
        assert_eq!(stats.scored, 2);
        assert_eq!(stats.unique_evaluations, 1);
        assert_eq!(stats.cache_hits, 1);
        // Both requests were charged to the budget (cache-transparent).
        assert_eq!(ctx.evaluations(), 2);
    }

    #[test]
    fn scores_and_memo_hits_match_the_core() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let g = gene(l, 2);
        let mut session = RunSession::new(&df, point);
        let a = session.score_batch(&core, std::slice::from_ref(&g), &ctx)[0];
        let hit = session.score_batch(&core, std::slice::from_ref(&g), &ctx)[0];
        let reference = core.score(&df, point, &g);
        assert_eq!(a.fitness.to_bits(), reference.fitness.to_bits());
        assert_eq!(a.feasible, reference.feasible);
        assert_eq!(hit, a);
        assert_eq!(session.stats().cache_hits, 1);
        assert_eq!(session.stats().unique_evaluations, 1);
    }

    #[test]
    fn duplicate_genes_within_a_batch_compute_once() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let genes = vec![gene(l, 1), gene(l, 2), gene(l, 1), gene(l, 2), gene(l, 1)];
        let mut session = RunSession::new(&df, point);
        let scores = session.score_batch(&core, &genes, &ctx);
        assert_eq!(scores[0], scores[2]);
        assert_eq!(scores[0], scores[4]);
        assert_eq!(scores[1], scores[3]);
        let stats = session.stats();
        assert_eq!(stats.scored, 5);
        assert_eq!(stats.unique_evaluations, 2);
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(ctx.evaluations(), 5);
        for (score, g) in scores.iter().zip(&genes) {
            let reference = core.score(&df, point, g);
            assert_eq!(score.fitness.to_bits(), reference.fitness.to_bits());
            assert_eq!(score.feasible, reference.feasible);
        }
    }

    #[test]
    fn score_batch_stops_cooperatively_mid_batch() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core(&model, &hw);
        let ctx = ExploreContext::new(
            &NullSink,
            0,
            CancelToken::new(),
            ExploreBudget::unlimited().with_max_evaluations(2),
        );
        let genes: Vec<MacAllocGene> = (1..=5).map(|m| gene(l, m)).collect();
        let mut session = RunSession::new(&df, point);
        let scores = session.score_batch(&core, &genes, &ctx);
        // The budget trips after two candidates; the rest are skipped
        // placeholders and nothing further is charged.
        assert_eq!(scores.len(), genes.len());
        assert_eq!(session.stats().scored, 2);
        assert_eq!(ctx.evaluations(), 2);
        assert_eq!(scores[2], CandidateScore::INFEASIBLE);
        assert_eq!(scores[4], CandidateScore::INFEASIBLE);
    }

    /// Cancellation is one of the stops the single pass checks before each
    /// candidate: a batch under a cancelled context charges, scores and
    /// stores nothing, memo hits included.
    #[test]
    fn cancelled_score_batch_charges_scores_and_stores_nothing() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core(&model, &hw);
        let cancel = CancelToken::new();
        let ctx = ExploreContext::new(&NullSink, 0, cancel.clone(), ExploreBudget::unlimited());
        let genes: Vec<MacAllocGene> = (1..=4).map(|m| gene(l, m)).collect();
        let mut session = RunSession::new(&df, point);
        let first = session.score_batch(&core, &genes[..2], &ctx);
        cancel.cancel();
        let before = session.stats();
        let scores = session.score_batch(&core, &genes, &ctx);
        assert_eq!(session.stats(), before);
        assert!(scores.iter().all(|s| *s == CandidateScore::INFEASIBLE));
        assert_ne!(first[1], CandidateScore::INFEASIBLE);
        assert_eq!(ctx.observed_stop(), Some(StopReason::Cancelled));
        let stats = session.stats();
        assert_eq!((stats.scored, stats.unique_evaluations), (2, 2));
        assert_eq!(session.memo.len(), 2);
    }

    #[test]
    fn realize_reconstructs_a_feasible_winner() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core(&model, &hw);
        let ctx = ExploreContext::unobserved();
        let g = gene(l, 1);
        let mut session = RunSession::new(&df, point);
        let score = session.score_batch(&core, std::slice::from_ref(&g), &ctx)[0];
        assert!(score.feasible);
        let (arch, report) = core.compute(&df, point, &g).1.expect("feasible");
        arch.validate(&model).expect("realized winner validates");
        // The realized report reproduces the memoized score bit for bit.
        assert_eq!(
            core.objective().fitness(&report).to_bits(),
            score.fitness.to_bits()
        );
        // Realization is free: neither scored nor budget-charged.
        assert_eq!(session.stats().scored, 1);
        assert_eq!(ctx.evaluations(), 1);
    }

    /// Scores a parent gene and its relatives in two batches of one session
    /// and checks every score against [`EvalCore::score`] bit for bit: genes
    /// that share a macro count and so a solve, genes many entries apart,
    /// and genes with sharing. Every gene is a memo miss scored through the
    /// session's solve memo (one Eq. (6) solve per macro count).
    fn assert_session_matches_core(mode: MacroMode) {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core_in(&model, &hw, mode);
        let with = |edits: &[(usize, usize)], shares: &[Option<usize>]| {
            let mut m = vec![1usize; l];
            for &(i, n) in edits {
                m[i] = n;
            }
            MacAllocGene::encode(&m, shares)
        };
        let none = vec![None; l];
        let mut shared = none.clone();
        shared[l - 1] = Some(0);
        let mut threes = vec![3usize; l];
        threes[0] = 1;
        let genes = [
            gene(l, 1),
            with(&[(0, 2)], &none),
            // The macro count of the gene above, in another layer.
            with(&[(1, 2)], &none),
            with(&[(0, 2), (1, 2)], &none),
            with(&[(0, 2), (1, 3), (2, 2)], &none),
            MacAllocGene::encode(&threes, &none),
            with(&[], &shared),
            with(&[(0, 2)], &shared),
        ];
        let ctx = ExploreContext::unobserved();
        let mut session = RunSession::new(&df, point);
        let (first, second) = genes.split_at(genes.len() / 2);
        let mut scores = session.score_batch(&core, first, &ctx);
        scores.extend(session.score_batch(&core, second, &ctx));
        for (x, g) in scores.iter().zip(&genes) {
            let y = core.score(&df, point, g);
            let at = format!("{mode} {:?}", g.as_slice());
            assert!(y.feasible, "{at}");
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits(), "{at}");
            assert_eq!(x.feasible, y.feasible, "{at}");
        }
        assert_eq!(session.stats().unique_evaluations, genes.len());
    }

    /// A parent's children, grandchild and far relatives score in the
    /// session exactly as plain scoring does. The name is from the
    /// rescoring from a parent's retained breakdown that the session's
    /// memos replaced.
    #[test]
    fn delta_rescoring_matches_plain_scoring_bit_for_bit() {
        assert_session_matches_core(MacroMode::Specialized);
    }

    /// Identical macro mode homogenizes counts across layers after the
    /// solve, in a buffer the session reuses from miss to miss; the
    /// children still score bit-identically to the core. The name is from
    /// the parent rescoring the session's memos replaced.
    #[test]
    fn identical_mode_children_are_delta_hits_and_bit_identical() {
        assert_session_matches_core(MacroMode::Identical);
    }

    /// A miss reaches the session's memo at once and serves later
    /// duplicates in its batch as hits, so a batch of three copies of one
    /// child counts one unique evaluation and two hits whether or not the
    /// session scored the child's parent first. (With the parent scored,
    /// the rescoring the session's memos replaced made the miss a delta
    /// hit.)
    #[test]
    fn in_batch_duplicates_hit_with_or_without_delta() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = core(&model, &hw);
        let parent = gene(l, 1);
        let mut m = vec![1usize; l];
        m[0] = 2;
        let genes = vec![MacAllocGene::encode(&m, &vec![None; l]); 3];
        let run = |parent_first: bool| {
            let ctx = ExploreContext::unobserved();
            let mut session = RunSession::new(&df, point);
            if parent_first {
                session.score_batch(&core, std::slice::from_ref(&parent), &ctx);
            }
            let before = session.stats();
            let scores = session.score_batch(&core, &genes, &ctx);
            let after = session.stats();
            let counts = [
                after.unique_evaluations - before.unique_evaluations,
                after.cache_hits - before.cache_hits,
            ];
            (scores, counts)
        };
        let (with, with_counts) = run(true);
        let (without, without_counts) = run(false);
        let reference = core.score(&df, point, &genes[0]);
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(a.fitness.to_bits(), reference.fitness.to_bits());
            assert_eq!(b.fitness.to_bits(), reference.fitness.to_bits());
        }
        assert_eq!(with_counts, [1, 2]);
        assert_eq!(without_counts, [1, 2]);
    }

    /// A memo hit can only return the reference score: in each of 20 fast
    /// searches (five zoo models, both macro modes, seeds 3 and 17), every
    /// EA run's memo entry, rescored through [`EvalCore::score`] under the
    /// run's dataflow and design point before the run drops its session,
    /// matches bit for bit. Every memo miss of a search reached its run's
    /// memo.
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
        let rescored = Mutex::new(0usize);
        for (model, power) in &cases {
            for mode in [MacroMode::Specialized, MacroMode::Identical] {
                for seed in [3u64, 17] {
                    // What `SynthesisOptions::fast(power)` lowers to, with
                    // this seed and macro mode.
                    let mut cfg = DseConfig::fast(*power);
                    cfg.macro_mode = mode;
                    cfg.seed = seed;
                    let case = format!("{model} {mode} seed {seed}");
                    let objective = cfg.ea.objective;
                    let core = EvalCore::new(model, *power, &cfg.hw, mode, objective);
                    let check = |session: &RunSession<'_>| {
                        let (df, point) = (session.dataflow(), session.point());
                        for (raw, score) in &session.memo {
                            let gene = MacAllocGene::from_raw(raw.clone()).unwrap();
                            let reference = core.score(df, point, &gene);
                            let at = format!("{case}: {point:?} {raw:?}");
                            assert_eq!(
                                score.fitness.to_bits(),
                                reference.fitness.to_bits(),
                                "{at}"
                            );
                            assert_eq!(score.feasible, reference.feasible, "{at}");
                        }
                        *rescored.lock().unwrap() += session.memo.len();
                    };
                    let last = Mutex::new(None);
                    let sink = |ev: SynthesisEvent| {
                        if let SynthesisEvent::EvaluatorStats { stats, .. } = ev {
                            *last.lock().unwrap() = Some(stats);
                        }
                    };
                    let mut ctx = ExploreContext::new(
                        &sink,
                        0,
                        CancelToken::new(),
                        ExploreBudget::unlimited(),
                    );
                    ctx.session_hook = Some(&check);
                    let before = *rescored.lock().unwrap();
                    run_dse_observed(model, &cfg, &ctx).expect(&case);
                    let stats = last.lock().unwrap().expect(&case);
                    assert_eq!(
                        *rescored.lock().unwrap() - before,
                        stats.unique_evaluations,
                        "{case}: every memo miss is stored in its run's memo"
                    );
                }
            }
        }
        let rescored = rescored.into_inner().unwrap();
        assert!(rescored > 0);
        eprintln!("rescored {rescored} candidate entries");
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
