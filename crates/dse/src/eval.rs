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
//! - An [`EvalBackend`](crate::backend::EvalBackend) decides *where* core
//!   scoring runs: inline on the calling thread, across a scoped thread
//!   pool, or on `pimsyn --worker` child processes. All backends are
//!   bit-identical; only wall-clock differs.
//! - The [`CandidateEvaluator`] composes a core and a backend with the
//!   *caching and accounting* layers: a memo keyed by the canonicalized
//!   candidate, an SA energy memo, budget charging, statistics, and an
//!   optional [`PersistentEvalCache`](crate::backend::PersistentEvalCache)
//!   that warm-starts the memo from a cache file and writes it back when
//!   the run finishes.
//!
//! Caching is *transparent*: evaluation is a pure function of the
//! candidate, so cached and uncached (and warm- and cold-started) runs
//! produce bit-identical outcomes, and every scored candidate — hit or miss
//! — is charged to the [`ExploreContext`] budget exactly as before. Unique
//! evaluations (memo misses) are charged to the separate
//! `max_unique_evaluations` budget and reported through [`EvaluatorStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pimsyn_arch::{Architecture, CrossbarConfig, HardwareParams, MacroMode, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::{evaluate_analytic, SimReport};

use crate::alloc::{allocate_components, AllocRequest};
use crate::backend::{
    BackendStats, CacheSnapshot, EvalBackend, EvalBackendConfig, EvalJob, PersistentEvalCache,
    SharedEvalResources,
};
use crate::ctx::ExploreContext;
use crate::delta::{DeltaSession, FastMap};
use crate::ea::{MacAllocGene, Objective};
use crate::sa::SaTable;
use crate::space::DesignPoint;

/// Configuration of the evaluator's memo caches (candidate memo, SA energy
/// memo) and of delta rescoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheConfig {
    /// Master switch; disabled, every candidate is computed from scratch.
    pub enabled: bool,
    /// Maximum entries per memo map; once full, new results are returned
    /// without being stored (no eviction, so memory stays bounded and
    /// resident entries keep hitting).
    pub capacity: usize,
    /// Delta (incremental) rescoring: memo misses whose EA parent has a
    /// per-layer breakdown retained in the run's [`DeltaSession`] recompute
    /// only the layers the gene diff touches (see
    /// [`CandidateEvaluator::score_batch_with_parents`]).
    /// Bit-identical to full scoring in both macro modes; independent of
    /// the memo switch so ablations can isolate either mechanism.
    pub delta: bool,
}

impl EvalCacheConfig {
    /// Default capacity: roomy for a paper-scale run while bounding worst-
    /// case memory (one entry holds a [`CandidateScore`], two words).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Caching on, default capacity (the default).
    pub fn enabled() -> Self {
        Self::default()
    }

    /// Caching off: every candidate recomputed (for ablations and the
    /// throughput benchmark's baseline arm). Also turns delta rescoring off,
    /// so this is the all-mechanisms-off reference configuration.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: 0,
            delta: false,
        }
    }

    /// Overrides the per-map entry bound.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the delta-rescoring switch (independent of the memo switch:
    /// the throughput benchmark's delta arm runs memo-off, delta-on).
    #[must_use]
    pub fn with_delta(mut self, delta: bool) -> Self {
        self.delta = delta;
        self
    }
}

impl Default for EvalCacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            capacity: Self::DEFAULT_CAPACITY,
            delta: true,
        }
    }
}

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
    /// Memo entries warm-started from a persistent cache file.
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
/// This is also the serialized identity in persistent cache files (see
/// [`CacheSnapshot`]).
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
/// budget, hardware constants, macro mode and objective. Backends receive a
/// reference to this when they score.
///
/// [`compute`](Self::compute) and [`score`](Self::score) are pure functions
/// of the candidate, which is what makes memoization, thread pools, worker
/// processes and persistent caches all bit-identical to plain inline
/// evaluation.
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
    /// Awaiting the backend batch, at this index of the pending list.
    Pending(usize),
}

/// The candidate memo: scores keyed by canonical candidate, stamped with a
/// monotonically increasing insertion sequence so flush-time trimming (and
/// the serialized cache file) can order entries oldest-first.
#[derive(Default)]
struct CandidateMemo {
    map: HashMap<CandidateKey, (CandidateScore, u64)>,
    next_seq: u64,
}

impl CandidateMemo {
    fn get(&self, key: &CandidateKey) -> Option<CandidateScore> {
        self.map.get(key).map(|(score, _)| *score)
    }

    fn insert(&mut self, key: CandidateKey, score: CandidateScore) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert(key, (score, seq));
    }
}

/// The shared evaluation layer: scores macro-partitioning candidates
/// (components allocation + analytic model) and SA duplication probes, with
/// memoization, delta rescoring, batch parallelism through a pluggable
/// [`EvalBackend`] and optional cross-run persistence.
///
/// One evaluator spans one synthesis run (fixed model, power budget,
/// hardware constants, macro mode and objective); worker threads share it by
/// reference. Construction is cheap, so standalone stages (e.g.
/// [`explore_macro_partitioning`](crate::explore_macro_partitioning)) build
/// their own.
pub struct CandidateEvaluator<'a> {
    core: EvalCore<'a>,
    backend: Box<dyn EvalBackend>,
    config: EvalCacheConfig,
    persist: Option<PersistentEvalCache>,
    /// Flush-time cap on persisted candidate-score entries (oldest trimmed
    /// first); `None` persists the whole memo.
    persist_cap: Option<usize>,
    /// Cross-run shared resources: consulted before the cache file on
    /// preload, published to on flush.
    shared: Option<Arc<SharedEvalResources>>,
    candidates: Mutex<CandidateMemo>,
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
    preloaded: usize,
}

impl std::fmt::Debug for CandidateEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateEvaluator")
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .field("objective", &self.core.objective())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<'a> CandidateEvaluator<'a> {
    /// An evaluator for one synthesis run, scoring inline with no cross-run
    /// persistence (the historical default).
    pub fn new(
        model: &'a Model,
        total_power: Watts,
        hw: &'a HardwareParams,
        macro_mode: MacroMode,
        objective: Objective,
        config: EvalCacheConfig,
    ) -> Self {
        Self::with_backend(
            model,
            total_power,
            hw,
            macro_mode,
            objective,
            config,
            &EvalBackendConfig::inline(),
        )
    }

    /// An evaluator scoring through the configured backend, warm-started
    /// from the configured persistent cache file when its fingerprint
    /// matches this run.
    pub fn with_backend(
        model: &'a Model,
        total_power: Watts,
        hw: &'a HardwareParams,
        macro_mode: MacroMode,
        objective: Objective,
        config: EvalCacheConfig,
        backend_cfg: &EvalBackendConfig,
    ) -> Self {
        let core = EvalCore::new(model, total_power, hw, macro_mode, objective);
        let backend = backend_cfg.build();
        let mut evaluator = Self {
            core,
            backend,
            config,
            persist: None,
            persist_cap: backend_cfg.cache_max_entries,
            shared: backend_cfg.shared.clone(),
            candidates: Mutex::new(CandidateMemo::default()),
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
            preloaded: 0,
        };
        if let Some(path) = &backend_cfg.cache_file {
            if config.enabled {
                let persist = PersistentEvalCache::for_run(
                    path,
                    model,
                    total_power,
                    hw,
                    macro_mode,
                    objective,
                );
                // A snapshot published by an earlier (or concurrent) run
                // sharing our resources beats re-reading the file: it is at
                // least as fresh, and concurrent jobs warm-start each other
                // before anything is flushed to disk.
                let snapshot = evaluator
                    .shared
                    .as_ref()
                    .and_then(|shared| shared.snapshot(persist.fingerprint()))
                    .map(|snapshot| (*snapshot).clone())
                    .or_else(|| persist.load());
                if let Some(snapshot) = snapshot {
                    evaluator.preloaded = evaluator.preload(snapshot);
                }
                evaluator.persist = Some(persist);
            }
        }
        evaluator
    }

    /// Seeds the candidate memo from a loaded snapshot, respecting the
    /// capacity bound; returns how many candidate scores were installed.
    /// Snapshot order is preserved as insertion order, so a preloaded entry
    /// counts as older than anything scored in this run.
    fn preload(&self, snapshot: CacheSnapshot) -> usize {
        let mut memo = self.candidates.lock().expect("candidate memo");
        let mut inserted = 0;
        for (key, score) in snapshot.scores {
            if memo.map.len() >= self.config.capacity {
                break;
            }
            memo.insert(key, score);
            inserted += 1;
        }
        inserted
    }

    /// The objective this evaluator's fitness values maximize.
    pub fn objective(&self) -> Objective {
        self.core.objective()
    }

    /// The pure scoring core (what backends execute).
    pub fn core(&self) -> &EvalCore<'a> {
        &self.core
    }

    /// The backend scoring runs on.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Snapshot of the backend's own counters (batches, remote/fallback
    /// jobs, worker spawns).
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Memo entries warm-started from the persistent cache file.
    pub fn preloaded_entries(&self) -> usize {
        self.preloaded
    }

    /// The Eq. (4) SA energy of a duplication vector, memoized. Identical to
    /// [`crate::sa_energy`] (the memo and the precomputed per-layer table
    /// are both transparent).
    pub fn sa_energy(&self, dup: &[usize], alpha: f64) -> f64 {
        self.sa_probes.fetch_add(1, Ordering::Relaxed);
        if !self.config.enabled {
            return self.sa_table.energy(dup, alpha);
        }
        let key = (dup.to_vec(), alpha.to_bits());
        if let Some(&e) = self.energies.lock().expect("energy memo").get(&key) {
            self.sa_hits.fetch_add(1, Ordering::Relaxed);
            return e;
        }
        let e = self.sa_table.energy(dup, alpha);
        let mut map = self.energies.lock().expect("energy memo");
        if map.len() < self.config.capacity {
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
        if memo.map.len() < self.config.capacity {
            memo.insert(key, score);
        }
    }

    /// Scores one macro-partitioning candidate: components allocation plus
    /// the analytic model, memoized on the canonical candidate key.
    ///
    /// Every call — hit or miss — charges one evaluation to `ctx`'s budget
    /// counter, so cached and uncached runs stop at identical points; only
    /// misses charge the unique-evaluation budget.
    pub fn score(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        gene: &MacAllocGene,
        ctx: &ExploreContext<'_>,
    ) -> CandidateScore {
        ctx.count_evaluations(1);
        self.scored.fetch_add(1, Ordering::Relaxed);
        let job = EvalJob { df, point, gene };
        if !self.config.enabled {
            self.unique.fetch_add(1, Ordering::Relaxed);
            ctx.count_unique_evaluations(1);
            return self.backend.score(&self.core, &job);
        }
        let wt_dup = Arc::new(df.programs().iter().map(|p| p.wt_dup).collect::<Vec<_>>());
        let key = self.make_key(df, point, gene, &wt_dup);
        if let Some(hit) = self.candidates.lock().expect("candidate memo").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.unique.fetch_add(1, Ordering::Relaxed);
        ctx.count_unique_evaluations(1);
        let score = self.backend.score(&self.core, &job);
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
    /// or charged. The memo misses that survive the pass are then scored by
    /// the backend as one batch — inline, thread pool and subprocess
    /// backends all return bit-identical scores, so completed runs are
    /// identical across backends; only wall-clock differs. Duplicates
    /// *within* a batch are computed once and counted as cache hits (the
    /// serial path would have found them in the memo).
    ///
    /// Cancellation additionally short-circuits *inside* the backend batch
    /// (per job for inline/threads, per chunk for subprocess), so
    /// `CancelToken::cancel` stays prompt even mid-generation; the
    /// resulting placeholders are never stored in the memo (a cancelled
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
    /// or `None` entries score through the backend as before). When delta
    /// rescoring is on, memo misses with a parent are rescored in `session`
    /// during the accounting pass, incrementally when the session retained
    /// the parent's breakdown; a later in-batch duplicate counts as a hit
    /// exactly where the plain path counts a pending-duplicate hit, full
    /// memo or not. Scores, budget charges, `evaluations` and memo contents
    /// are bit-identical to [`score_batch`](Self::score_batch); only
    /// wall-clock (and the delta counters in [`EvaluatorStats`]) differ. One
    /// EA run passes one session to every generation's call and drops it
    /// when the run ends.
    pub fn score_batch_with_parents(
        &self,
        session: &mut DeltaSession<'_>,
        genes: &[MacAllocGene],
        parents: &[Option<&MacAllocGene>],
        ctx: &ExploreContext<'_>,
    ) -> (Vec<CandidateScore>, usize) {
        let (df, point) = (session.dataflow(), session.point());
        // The session replays the full pipeline in both macro modes.
        let delta = self.config.delta;
        let n = genes.len();
        let wt_dup = Arc::new(df.programs().iter().map(|p| p.wt_dup).collect::<Vec<_>>());
        let mut out = vec![CandidateScore::INFEASIBLE; n];
        let mut charged = 0usize;
        // Misses pending backend scoring: the unique key (None with caching
        // disabled) and every input index it resolves.
        let mut pending: Vec<(Option<CandidateKey>, Vec<usize>)> = Vec::new();
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
            let parent = parents.get(i).copied().flatten().filter(|_| delta);
            if !self.config.enabled {
                self.unique.fetch_add(1, Ordering::Relaxed);
                ctx.count_unique_evaluations(1);
                if let Some(p) = parent {
                    out[i] = self.delta_score(session, gene, p);
                } else {
                    pending.push((None, vec![i]));
                }
                continue;
            }
            let key = self.make_key(df, point, gene, &wt_dup);
            if let Some(hit) = self.candidates.lock().expect("candidate memo").get(&key) {
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
            if let Some(p) = parent {
                // Delta-eligible miss: computed inline and stored at once.
                out[i] = self.delta_score(session, gene, p);
                self.store(key, out[i]);
                in_batch.insert(gene.as_slice(), InBatch::Scored(out[i]));
                continue;
            }
            in_batch.insert(gene.as_slice(), InBatch::Pending(pending.len()));
            pending.push((Some(key), vec![i]));
        }

        if !pending.is_empty() {
            let jobs: Vec<EvalJob<'_>> = pending
                .iter()
                .map(|(_, indices)| EvalJob {
                    df,
                    point,
                    gene: &genes[indices[0]],
                })
                .collect();
            // Only cancellation is routed into the backend: charged
            // candidates must compute under budget/deadline stops, but a
            // cancelled run's scores are discarded, so skipping is safe.
            let cancel = ctx.cancel_token();
            let scores = self
                .backend
                .score_batch(&self.core, &jobs, &|| cancel.is_cancelled());
            // Enforce the batch contract even for misbehaving third-party
            // backends: a short (or long) result vector is a backend
            // failure, and the whole batch recomputes inline rather than
            // silently discarding candidates.
            let scores = if scores.len() == jobs.len() {
                scores
            } else {
                jobs.iter()
                    .map(|job| self.core.score(job.df, job.point, job.gene))
                    .collect()
            };
            // A cancellation observed during the batch may have left
            // INFEASIBLE placeholders in `scores`; storing those would
            // poison the memo (and, via flush, the persistent cache file).
            let poisoned = cancel.is_cancelled();
            for ((key, indices), score) in pending.into_iter().zip(scores) {
                for i in indices {
                    out[i] = score;
                }
                if let (Some(key), false) = (key, poisoned) {
                    self.store(key, score);
                }
            }
        }
        (out, charged)
    }

    /// Recomputes the completed architecture and analytic report of a
    /// previously scored, feasible candidate (typically the winner). Not
    /// charged to the exploration budget and not counted as a scored
    /// candidate: the memo stores only slim scores, so realization
    /// re-derives what an unmemoized pipeline would have kept, at the cost
    /// of one full scoring. Always computed in-process (the full
    /// architecture never crosses a backend boundary). Returns `None` for
    /// infeasible candidates.
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
            preloaded: self.preloaded,
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            delta_fallbacks: self.delta_fallbacks.load(Ordering::Relaxed),
            layers_recomputed: self.layers_recomputed.load(Ordering::Relaxed),
        }
    }

    /// Finishes the run: releases backend resources (worker processes
    /// return to their pool) and, when a persistent cache file is
    /// configured, writes the candidate memo back to it (best-effort; IO
    /// failures never fail a synthesis run) — insertion-ordered, trimmed
    /// oldest-first to `cache_max_entries` when a cap is configured, and
    /// published to the shared snapshot store so sibling runs warm-start
    /// from memory. Returns whether a cache file was written.
    pub fn flush(&self) -> bool {
        self.backend.flush();
        let Some(persist) = &self.persist else {
            return false;
        };
        let mut scores: Vec<(CandidateKey, CandidateScore, u64)> = {
            let memo = self.candidates.lock().expect("candidate memo");
            memo.map
                .iter()
                .map(|(k, (score, seq))| (k.clone(), *score, *seq))
                .collect()
        };
        scores.sort_by_key(|(_, _, seq)| *seq);
        if let Some(cap) = self.persist_cap {
            let excess = scores.len().saturating_sub(cap);
            scores.drain(..excess); // oldest first
        }
        let snapshot = CacheSnapshot {
            scores: scores.into_iter().map(|(k, score, _)| (k, score)).collect(),
        };
        if let Some(shared) = &self.shared {
            shared.publish(persist.fingerprint(), snapshot.clone());
        }
        persist.save(&snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
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

    fn evaluator<'a>(
        model: &'a Model,
        hw: &'a HardwareParams,
        config: EvalCacheConfig,
    ) -> CandidateEvaluator<'a> {
        evaluator_in(model, hw, MacroMode::Specialized, config)
    }

    fn evaluator_in<'a>(
        model: &'a Model,
        hw: &'a HardwareParams,
        mode: MacroMode,
        config: EvalCacheConfig,
    ) -> CandidateEvaluator<'a> {
        CandidateEvaluator::new(
            model,
            Watts(9.0),
            hw,
            mode,
            Objective::PowerEfficiency,
            config,
        )
    }

    fn gene(l: usize, macros: usize) -> MacAllocGene {
        MacAllocGene::encode(&vec![macros; l], &vec![None; l])
    }

    #[test]
    fn repeated_scores_hit_the_memo_and_match() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw, EvalCacheConfig::default());
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
    }

    #[test]
    fn disabled_cache_recomputes_but_matches() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let cached = evaluator(&model, &hw, EvalCacheConfig::default());
        let plain = evaluator(&model, &hw, EvalCacheConfig::disabled());
        let ctx = ExploreContext::unobserved();
        let g = gene(l, 2);
        let a = cached.score(&df, point, &g, &ctx);
        let b = plain.score(&df, point, &g, &ctx);
        assert_eq!(a, b);
        // Realized implementations (full architecture + report) also agree
        // bit-for-bit between the memoized and plain evaluators.
        match (
            cached.realize(&df, point, &g),
            plain.realize(&df, point, &g),
        ) {
            (Some((aa, ar)), Some((ba, br))) => {
                assert_eq!(aa, ba);
                assert_eq!(ar, br);
            }
            (None, None) => assert!(!a.feasible),
            _ => panic!("cached and uncached disagree on feasibility"),
        }
        assert_eq!(plain.stats().cache_hits, 0);
        assert_eq!(plain.stats().unique_evaluations, 1);
    }

    #[test]
    fn thread_pool_backend_matches_inline_in_order() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let genes: Vec<MacAllocGene> = (1..=4).map(|m| gene(l, m)).collect();
        let ctx = ExploreContext::unobserved();
        let hw = HardwareParams::date24();
        let inline = evaluator(&model, &hw, EvalCacheConfig::default());
        let threads = CandidateEvaluator::with_backend(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
            EvalCacheConfig::default(),
            &EvalBackendConfig::new(BackendKind::ThreadPool { workers: 2 }),
        );
        let (a, a_charged) = inline.score_batch(&df, point, &genes, &ctx);
        let (b, b_charged) = threads.score_batch(&df, point, &genes, &ctx);
        assert_eq!(a, b);
        assert_eq!(a_charged, genes.len());
        assert_eq!(b_charged, genes.len());
        assert_eq!(threads.backend_name(), "threads");
        assert!(threads.backend_stats().jobs >= genes.len());
    }

    #[test]
    fn duplicate_genes_within_a_batch_compute_once() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw, EvalCacheConfig::default());
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
        let eval = evaluator(&model, &hw, EvalCacheConfig::default());
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
        let eval = evaluator(&model, &hw, EvalCacheConfig::default());
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
        use crate::backend::{EvalBackend, EvalJob, InlineBackend};
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let core = EvalCore::new(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
        );
        let genes: Vec<MacAllocGene> = (1..=4).map(|m| gene(l, m)).collect();
        let jobs: Vec<EvalJob<'_>> = genes
            .iter()
            .map(|gene| EvalJob {
                df: &df,
                point,
                gene,
            })
            .collect();
        // Stop flips true from the third poll on: the first two jobs
        // compute, the rest come back as skipped placeholders.
        let polls = AtomicUsize::new(0);
        let stop = || polls.fetch_add(1, Ordering::Relaxed) >= 2;
        let scores = InlineBackend::default().score_batch(&core, &jobs, &stop);
        assert_eq!(scores.len(), 4);
        assert_ne!(scores[0], CandidateScore::INFEASIBLE);
        assert_ne!(scores[1], CandidateScore::INFEASIBLE);
        assert_eq!(scores[2], CandidateScore::INFEASIBLE);
        assert_eq!(scores[3], CandidateScore::INFEASIBLE);
    }

    #[test]
    fn realize_reconstructs_a_feasible_winner() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw, EvalCacheConfig::default());
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
        let eval = evaluator(&model, &hw, EvalCacheConfig::default());
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
        let eval = evaluator(&model, &hw, EvalCacheConfig::default().with_capacity(0));
        let ctx = ExploreContext::unobserved();
        eval.score(&df, point, &gene(l, 1), &ctx);
        eval.score(&df, point, &gene(l, 1), &ctx);
        let stats = eval.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.unique_evaluations, 2);
    }

    #[test]
    fn persistent_cache_warm_starts_with_identical_scores() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let path =
            std::env::temp_dir().join(format!("pimsyn-eval-warm-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = EvalBackendConfig::inline().with_cache_file(&path);

        // Cold run: score, then flush to disk.
        let cold = CandidateEvaluator::with_backend(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
            EvalCacheConfig::default(),
            &cfg,
        );
        let ctx = ExploreContext::unobserved();
        let genes: Vec<MacAllocGene> = (1..=3).map(|m| gene(l, m)).collect();
        let (cold_scores, _) = cold.score_batch(&df, point, &genes, &ctx);
        assert_eq!(cold.preloaded_entries(), 0);
        assert!(cold.flush(), "cache file must be written");

        // Warm run: the memo preloads, every request is a hit, scores are
        // bit-identical.
        let warm = CandidateEvaluator::with_backend(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
            EvalCacheConfig::default(),
            &cfg,
        );
        assert_eq!(warm.preloaded_entries(), 3);
        let ctx2 = ExploreContext::unobserved();
        let (warm_scores, charged) = warm.score_batch(&df, point, &genes, &ctx2);
        assert_eq!(charged, 3, "hits still charge the scored budget");
        for (a, b) in cold_scores.iter().zip(&warm_scores) {
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
            assert_eq!(a.feasible, b.feasible);
        }
        let stats = warm.stats();
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(stats.unique_evaluations, 0);
        assert!(stats.hit_rate() >= 0.5, "warm start must report >=50% hits");

        // A different power budget must not reuse the file.
        let mismatched = CandidateEvaluator::with_backend(
            &model,
            Watts(10.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
            EvalCacheConfig::default(),
            &cfg,
        );
        assert_eq!(mismatched.preloaded_entries(), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Cache files written while the per-layer cost memo existed carry a
    /// `layers` array in every run section. Such a file still warm-starts
    /// with the same preloaded count and bit-identical scores, and the next
    /// flush rewrites it without any `layers` section.
    #[test]
    fn cache_file_with_a_layers_section_still_warm_starts() {
        use pimsyn_model::json::JsonValue;
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let path =
            std::env::temp_dir().join(format!("pimsyn-eval-layers-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = EvalBackendConfig::inline().with_cache_file(&path);
        let build = || {
            CandidateEvaluator::with_backend(
                &model,
                Watts(9.0),
                &hw,
                MacroMode::Specialized,
                Objective::PowerEfficiency,
                EvalCacheConfig::default(),
                &cfg,
            )
        };
        let read = || JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let has_layers = |doc: &JsonValue| {
            let runs = doc.get("runs").and_then(JsonValue::as_array).unwrap();
            runs.iter().any(|run| run.get("layers").is_some())
        };

        let cold = build();
        let ctx = ExploreContext::unobserved();
        let genes: Vec<MacAllocGene> = (1..=3).map(|m| gene(l, m)).collect();
        let (cold_scores, _) = cold.score_batch(&df, point, &genes, &ctx);
        assert!(cold.flush());
        let JsonValue::Object(mut doc) = read() else {
            panic!("cache file is an object")
        };
        assert!(!has_layers(&JsonValue::Object(doc.clone())));

        // Rewrite it in the older format: every run section gains a
        // `layers` array of per-layer base-cost entries, and a second run
        // section (another fingerprint) rides along.
        let layer_entry = JsonValue::parse(
            r#"{"fp":"00000000deadbeef","l":0,"m":1,"ea":2,"ar":"41d312d000000000",
                "sa":4,"po":1,"ac":1,"el":0,"bits":16,"load":"3e112e0be826d695",
                "mvm":"3e7ad7f29abcaf4a","adc":"3e212e0be826d695","sab":"3df49c6f9f4c7b8a",
                "post":"0000000000000000","store":"3e312e0be826d695"}"#,
        )
        .unwrap();
        let (_, JsonValue::Array(runs)) = doc.iter_mut().find(|(k, _)| k == "runs").unwrap() else {
            panic!("runs is an array")
        };
        let mut other = runs[0].clone();
        if let JsonValue::Object(fields) = &mut other {
            fields[0].1 = JsonValue::String("0123456789abcdef".into());
        }
        runs.push(other);
        for run in runs.iter_mut() {
            if let JsonValue::Object(fields) = run {
                fields.push(("layers".into(), JsonValue::Array(vec![layer_entry.clone()])));
            }
        }
        std::fs::write(&path, format!("{}\n", JsonValue::Object(doc))).unwrap();
        assert!(has_layers(&read()));

        let warm = build();
        assert_eq!(warm.preloaded_entries(), 3);
        let ctx2 = ExploreContext::unobserved();
        let (warm_scores, _) = warm.score_batch(&df, point, &genes, &ctx2);
        for (a, b) in cold_scores.iter().zip(&warm_scores) {
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
            assert_eq!(a.feasible, b.feasible);
        }
        assert_eq!(warm.stats().cache_hits, 3);
        assert!(warm.flush());
        let rewritten = read();
        assert!(!has_layers(&rewritten), "saves drop every layers section");
        assert_eq!(
            rewritten
                .get("runs")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            2
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_trims_oldest_score_entries_to_the_configured_cap() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let path =
            std::env::temp_dir().join(format!("pimsyn-eval-trim-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = EvalBackendConfig::inline()
            .with_cache_file(&path)
            .with_cache_max_entries(2);
        let eval = CandidateEvaluator::with_backend(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
            EvalCacheConfig::default(),
            &cfg,
        );
        let ctx = ExploreContext::unobserved();
        // Four unique candidates in a known insertion order.
        for m in 1..=4 {
            eval.score(&df, point, &gene(l, m), &ctx);
        }
        assert!(eval.flush(), "cache file must be written");

        // The file holds only the newest two entries (genes 3 and 4): the
        // two oldest were trimmed first.
        let warm = CandidateEvaluator::with_backend(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
            EvalCacheConfig::default(),
            &cfg,
        );
        assert_eq!(warm.preloaded_entries(), 2);
        let ctx2 = ExploreContext::unobserved();
        warm.score(&df, point, &gene(l, 3), &ctx2);
        warm.score(&df, point, &gene(l, 4), &ctx2);
        assert_eq!(warm.stats().cache_hits, 2, "newest entries survive");
        warm.score(&df, point, &gene(l, 1), &ctx2);
        assert_eq!(
            warm.stats().unique_evaluations,
            1,
            "oldest entry was trimmed, so gene 1 must recompute"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_snapshot_store_warm_starts_without_rereading_the_file() {
        use crate::backend::SharedEvalResources;
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        // The cache path is never written: the file stays absent, so any
        // warm start can only have come from the shared in-memory store.
        let path =
            std::env::temp_dir().join(format!("pimsyn-eval-shared-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let shared = SharedEvalResources::new();
        let cfg = EvalBackendConfig::inline()
            .with_cache_file(&path)
            .with_shared_resources(Arc::clone(&shared));
        let build = || {
            CandidateEvaluator::with_backend(
                &model,
                Watts(9.0),
                &hw,
                MacroMode::Specialized,
                Objective::PowerEfficiency,
                EvalCacheConfig::default(),
                &cfg,
            )
        };
        let first = build();
        let ctx = ExploreContext::unobserved();
        let cold = first.score(&df, point, &gene(l, 2), &ctx);
        assert!(first.flush());
        std::fs::remove_file(&path).expect("flush wrote the file; remove it");

        let second = build();
        assert_eq!(
            second.preloaded_entries(),
            1,
            "snapshot must come from the shared store, not the deleted file"
        );
        let ctx2 = ExploreContext::unobserved();
        let warm = second.score(&df, point, &gene(l, 2), &ctx2);
        assert_eq!(warm.fitness.to_bits(), cold.fitness.to_bits());
        assert_eq!(second.stats().cache_hits, 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Parent-aware scoring must be bit-identical to plain scoring, route
    /// through the session exactly when a parent is usable, and fall back
    /// (with full retention) when the parent has no retained breakdown.
    #[test]
    fn delta_rescoring_matches_plain_scoring_bit_for_bit() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let delta = evaluator(&model, &hw, EvalCacheConfig::default());
        let plain = evaluator(&model, &hw, EvalCacheConfig::default().with_delta(false));
        let ctx = ExploreContext::unobserved();
        let mut session = DeltaSession::new(&df, point);

        let parent = gene(l, 1);
        let mut m = vec![1usize; l];
        m[0] = 2;
        let child = MacAllocGene::encode(&m, &vec![None; l]);
        m[1] = 2;
        let grandchild = MacAllocGene::encode(&m, &vec![None; l]);

        // Parent scores through the backend (no parent offered); the child
        // miss is parented but the parent is not retained yet, so the
        // session recomputes fully (a fallback) and retains the child.
        let genes = [parent.clone(), child.clone()];
        let parents = [None, Some(&parent)];
        let (a, _) = delta.score_batch_with_parents(&mut session, &genes, &parents, &ctx);
        let (b, _) = plain.score_batch(&df, point, &genes, &ctx);
        for (x, y) in a.iter().zip(&b) {
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
        let (d, _) = plain.score_batch(&df, point, &[grandchild], &ctx);
        assert_eq!(c[0].fitness.to_bits(), d[0].fitness.to_bits());
        assert_eq!(c[0].feasible, d[0].feasible);
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
    /// to the delta-free evaluator.
    #[test]
    fn delta_wide_diff_is_a_delta_hit() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let eval = evaluator(&model, &hw, EvalCacheConfig::default());
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

        let plain = evaluator(&model, &hw, EvalCacheConfig::default().with_delta(false));
        let reference = plain.score(&df, point, &wide, &ctx);
        assert_eq!(via_delta.fitness.to_bits(), reference.fitness.to_bits());
        assert_eq!(via_delta.feasible, reference.feasible);
    }

    /// Identical macro mode homogenizes counts across layers; the session
    /// replays that pass, so parented children are delta hits there too,
    /// bit-identical to a delta-free evaluator.
    #[test]
    fn identical_mode_children_are_delta_hits_and_bit_identical() {
        let (model, df, point) = setup();
        let l = model.weight_layer_count();
        let hw = HardwareParams::date24();
        let identical = |config| evaluator_in(&model, &hw, MacroMode::Identical, config);
        let delta = identical(EvalCacheConfig::default());
        let plain = identical(EvalCacheConfig::default().with_delta(false));
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
            let reference = plain.score(&df, point, child, &ctx);
            assert!(reference.feasible);
            assert_eq!(via_session.fitness.to_bits(), reference.fitness.to_bits());
            assert_eq!(via_session.feasible, reference.feasible);
        }
        let stats = delta.stats();
        assert_eq!(stats.delta_fallbacks, 1);
        assert_eq!(stats.delta_hits, 3);
        assert_eq!(plain.stats().delta_hits + plain.stats().delta_fallbacks, 0);
    }

    /// A delta-scored miss serves later duplicates in its batch as hits
    /// even when the memo is full, so a capacity-0 evaluator charges the
    /// same with delta on as with delta off.
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
            let config = EvalCacheConfig::default()
                .with_capacity(0)
                .with_delta(delta);
            let eval = evaluator(&model, &hw, config);
            let ctx = ExploreContext::unobserved();
            let mut session = DeltaSession::new(&df, point);
            let (scores, _) = eval.score_batch_with_parents(&mut session, &genes, &parents, &ctx);
            (scores, eval.stats(), ctx.unique_evaluations())
        };
        let (on, on_stats, on_unique) = run(true);
        let (off, off_stats, off_unique) = run(false);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
        }
        assert_eq!(on_stats.unique_evaluations, off_stats.unique_evaluations);
        assert_eq!(on_stats.cache_hits, off_stats.cache_hits);
        assert_eq!(on_unique, off_unique);
        assert_eq!(on_stats.unique_evaluations, 1);
        assert_eq!(on_stats.delta_fallbacks, 1, "the miss took the session");
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
