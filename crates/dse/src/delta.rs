//! Delta (incremental) candidate rescoring for the EA hot loop.
//!
//! An EA child differs from its tournament parent in at most two gene
//! entries (`mutate_num` + `mutate_share`), yet the full scoring pipeline
//! recomputes every layer's allocation and stage occupancies from scratch.
//! A [`DeltaSession`] keeps, per scored candidate, the per-layer breakdown
//! the analytic model is assembled from — component counts, base stage
//! costs, NoC-coupled terms, realized power — and rescores a child by
//! diffing its inputs against the parent's, recomputing only what changed:
//!
//! - The Eq. (6) water-filling solution depends on the gene only through the
//!   physical macro count ([`AllocPlan::solve`]), so solved component counts
//!   are memoized per `n_macros`. Under [`MacroMode::Identical`] the
//!   allocator's own `homogenize` pass then runs on a per-candidate copy.
//! - A layer's base stage costs ([`pimsyn_sim::compute_layer_base_with`])
//!   are reused whenever its `(macros, effective ADCs, counts)` inputs equal
//!   the parent's, and recomputed otherwise.
//! - The NoC-coupled `merge`/`transfer` terms are reused when the physical
//!   macro count and sharing assignment are unchanged; otherwise all layers'
//!   dynamics are recomputed (cheap relative to the base costs).
//! - Realized power is reused when counts, sharing and macro count match.
//!
//! Every reused value was produced by *the same function* the full pipeline
//! calls ([`AllocPlan::solve`], `homogenize`, [`compute_layer_base_with`],
//! [`compute_layer_dynamic_with`], [`power_breakdown_from`],
//! [`solve_pipeline`], [`summarize_pipeline`]), and every reuse compares
//! the exact inputs of that function, so the delta path replays the exact
//! float sequence of [`EvalCore::compute`] and is bit-identical to it by
//! construction — however wide the gene diff, in either macro mode. A
//! candidate without a retained parent (a generation-0 gene, or the child
//! of an infeasible parent) is a fallback: a full recomputation through the
//! same functions, still retaining the result so the next generation can
//! delta against it.
//!
//! A session lives for one EA run — one dataflow at one design point — and
//! its retained breakdowns and memos are freed when the run returns: each
//! `(RatioRram, crossbar, DAC, WtDup)` combination is explored by exactly
//! one EA run, so nothing a run retains could serve another. That holds for
//! the run's candidate memo too, which the session carries: the session
//! pins the dataflow and design point, so the memo is keyed by the gene
//! alone, and a run scores at most `population + generations x
//! (population - 2)` candidates (352 at paper effort), so it needs no lock
//! and no capacity.
//!
//! The session is also the run's accounting: `DeltaSession::score_batch`
//! charges each candidate to the job's budget and counts it in the
//! session's own [`EvaluatorStats`], which the run hands back when it ends.
//!
//! [`MacroMode::Identical`]: pimsyn_arch::MacroMode::Identical
//! [`solve_pipeline`]: pimsyn_sim::solve_pipeline

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use pimsyn_arch::{power_breakdown_from, ComponentCounts, MacroGroup, MacroMode, NocConfig, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_sim::{
    assemble_stages, compute_layer_base_with, compute_layer_dynamic_with, solve_pipeline_into,
    summarize_pipeline, LayerBaseCosts, LayerCostInputs, LayerStages, PipelineSolution,
};

use crate::alloc::{homogenize, AllocPlan};
use crate::ctx::ExploreContext;
use crate::ea::MacAllocGene;
use crate::eval::{CandidateScore, EvalCore, EvaluatorStats};
use crate::space::DesignPoint;

/// Retained breakdowns kept per session (FIFO eviction). A paper-effort EA
/// run retains at most 352 (16 generation-0 genes plus 24 generations of 14
/// children), so the cap only bounds callers that drive one session far
/// longer.
const RETAIN_CAP: usize = 4096;

/// Entry bound of each per-session memo; once full, further values are
/// computed without being stored (no eviction, bounded memory).
const MEMO_CAP: usize = 1 << 16;

/// Multiplicative word hasher (the rustc/FxHash scheme) for the hot-loop
/// maps: the session's candidate memo and its solve, NoC and power memos.
/// Their keys are a few machine words or a short `u32` gene slice, and at
/// several lookups per candidate the default SipHash costs more than some
/// of the arithmetic being memoized. Not DoS-resistant — fine here, the
/// keys come from the EA itself, not from untrusted input.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Integer slices (the retained-gene keys) arrive here as one raw
        // byte slice; fold eight bytes per round.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// One layer's slice of a retained breakdown, packed so the whole candidate
/// retains as a single allocation.
#[derive(Clone, Copy)]
struct RetainedLayer {
    macros: usize,
    share: Option<usize>,
    eff_adcs: usize,
    base: LayerBaseCosts,
    dynamic: (f64, f64),
}

/// The per-layer breakdown of one scored (feasible) candidate, retained so
/// its children can rescore incrementally.
struct Retained {
    layers: Vec<RetainedLayer>,
    n_macros: usize,
    counts: Arc<Vec<ComponentCounts>>,
    power: Watts,
}

/// Reusable per-candidate working buffers; contents are transient (each
/// `score` call overwrites them), kept only to avoid reallocating a dozen
/// short vectors per candidate in the hot loop.
#[derive(Default)]
struct Scratch {
    macros: Vec<usize>,
    shares: Vec<Option<usize>>,
    eff_adcs: Vec<usize>,
    base: Vec<LayerBaseCosts>,
    dynamic: Vec<(f64, f64)>,
    stages: Vec<LayerStages>,
    groups: Vec<MacroGroup>,
    solution: PipelineSolution,
}

/// Everything one session memoizes for its dataflow and design point.
struct PlanState {
    plan: AllocPlan,
    /// Identical macros: solved counts go through `homogenize`, so they
    /// depend on the whole macro vector, not on `n_macros` alone.
    identical: bool,
    /// `sum_i WtDup_i x set_i` — matches `Architecture::crossbar_count`.
    crossbar_count: usize,
    /// The model's MAC count (constant per run, cached to avoid re-deriving
    /// model statistics per candidate).
    total_macs: u64,
    /// Eq. (6) solutions per physical macro count; `None` memoizes an
    /// infeasible solve.
    solves: FastMap<usize, Option<Arc<Vec<ComponentCounts>>>>,
    /// NoC-coupled `(merge, transfer)` terms keyed by `(layer, macros,
    /// n_macros)` — exact only without sharing (the key then pins every
    /// input of [`compute_layer_dynamic_with`]); sharing candidates always
    /// recompute.
    dyn_memo: FastMap<(usize, usize, usize), (f64, f64)>,
    /// Realized power per physical macro count — exact only for specialized
    /// macros without sharing (counts are then a function of `n_macros` and
    /// groups are all singleton); every other candidate recomputes.
    power_memo: FastMap<usize, Watts>,
    retained: FastMap<Vec<u32>, Arc<Retained>>,
    order: VecDeque<Vec<u32>>,
    scratch: Scratch,
}

impl PlanState {
    fn new(core: &EvalCore<'_>, df: &Dataflow, point: DesignPoint) -> Self {
        Self {
            plan: AllocPlan::prepare(
                core.model(),
                df,
                point,
                core.total_power(),
                core.hw(),
                core.macro_mode(),
            ),
            identical: core.macro_mode() == MacroMode::Identical,
            crossbar_count: df
                .programs()
                .iter()
                .map(|p| p.wt_dup * p.crossbar_set)
                .sum(),
            total_macs: core.model().stats().total_macs,
            solves: FastMap::default(),
            dyn_memo: FastMap::default(),
            power_memo: FastMap::default(),
            retained: FastMap::default(),
            order: VecDeque::new(),
            scratch: Scratch::default(),
        }
    }

    /// Inserts a breakdown the caller has verified is not yet retained
    /// (identical genes produce bit-identical breakdowns, so re-retaining a
    /// seen gene would only churn allocations).
    fn retain(&mut self, key: Vec<u32>, entry: Retained) {
        self.order.push_back(key.clone());
        self.retained.insert(key, Arc::new(entry));
        while self.order.len() > RETAIN_CAP {
            if let Some(old) = self.order.pop_front() {
                self.retained.remove(&old);
            }
        }
    }
}

/// What one session scoring produced, and how.
#[derive(Debug)]
pub struct DeltaOutcome {
    /// The slim score, bit-identical to [`EvalCore::score`].
    pub score: CandidateScore,
    /// Layers whose base costs were recomputed (0 for a pure reuse, the
    /// full layer count for a fallback).
    pub layers_recomputed: usize,
    /// The candidate was rescored from the parent's retained breakdown;
    /// otherwise the session recomputed everything (a fallback).
    pub used_delta: bool,
}

/// The candidate memo, delta-rescoring state and counters of one EA run:
/// one dataflow at one design point. Create one per run, score every
/// generation of the run through its crate-internal `score_batch` and
/// drop it when the run returns, which frees every score, breakdown and
/// memo it holds. The rescoring state is built on the first memo miss, so a
/// session that never scores costs nothing.
pub struct DeltaSession<'d> {
    df: &'d Dataflow,
    point: DesignPoint,
    /// The run's candidate memo: the score of every gene
    /// [`score_batch`](Self::score_batch) scored in this session.
    pub(crate) memo: FastMap<Vec<u32>, CandidateScore>,
    /// What [`score_batch`](Self::score_batch) scored in this session.
    stats: EvaluatorStats,
    state: Option<PlanState>,
}

impl std::fmt::Debug for DeltaSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let retained = self.state.as_ref().map_or(0, |ps| ps.retained.len());
        f.debug_struct("DeltaSession")
            .field("point", &self.point)
            .field("memo", &self.memo.len())
            .field("retained", &retained)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'d> DeltaSession<'d> {
    /// An empty session for the candidates of `df` at `point`.
    pub fn new(df: &'d Dataflow, point: DesignPoint) -> Self {
        Self {
            df,
            point,
            memo: FastMap::default(),
            stats: EvaluatorStats::default(),
            state: None,
        }
    }

    /// The counters of every candidate [`score_batch`](Self::score_batch)
    /// scored in this session.
    pub(crate) fn stats(&self) -> EvaluatorStats {
        self.stats
    }

    /// The dataflow every candidate of this session is scored under.
    #[cfg(test)]
    pub(crate) fn dataflow(&self) -> &'d Dataflow {
        self.df
    }

    /// The design point every candidate of this session is scored at.
    #[cfg(test)]
    pub(crate) fn point(&self) -> DesignPoint {
        self.point
    }

    /// Scores a generation of candidates in input order under `core`, which
    /// must be built for the run this session serves. `parents[i]` names
    /// the gene candidate `i` was mutated from; missing or `None` entries
    /// (a generation-0 population) have none.
    ///
    /// One serial pass in input order. Each candidate first checks `ctx`:
    /// once a stop (cancellation, deadline, exhausted budget) is observed,
    /// the rest come back as [`CandidateScore::INFEASIBLE`] placeholders,
    /// neither charged, counted nor stored. Otherwise it is charged to
    /// `ctx` and counted, then served from the memo, or scored by
    /// [`score`](Self::score) and stored in the memo at once, so a later
    /// duplicate in the same call is a hit too. Either way the score is
    /// bit-identical to [`EvalCore::score`].
    pub(crate) fn score_batch(
        &mut self,
        core: &EvalCore<'_>,
        genes: &[MacAllocGene],
        parents: &[Option<&MacAllocGene>],
        ctx: &ExploreContext<'_>,
    ) -> Vec<CandidateScore> {
        let mut out = vec![CandidateScore::INFEASIBLE; genes.len()];
        for (i, gene) in genes.iter().enumerate() {
            if ctx.should_stop() {
                break;
            }
            ctx.count_evaluations(1);
            self.stats.scored += 1;
            if let Some(&hit) = self.memo.get(gene.as_slice()) {
                self.stats.cache_hits += 1;
                out[i] = hit;
                continue;
            }
            ctx.count_unique_evaluations(1);
            self.stats.unique_evaluations += 1;
            let parent = parents.get(i).copied().flatten();
            let scored = self.score(core, gene, parent.map(MacAllocGene::as_slice));
            if scored.used_delta {
                self.stats.delta_hits += 1;
            } else {
                self.stats.delta_fallbacks += 1;
            }
            self.stats.layers_recomputed += scored.layers_recomputed;
            out[i] = scored.score;
            self.memo.insert(gene.as_slice().to_vec(), scored.score);
        }
        out
    }

    /// Scores one candidate, incrementally when `parent` has a retained
    /// breakdown, with a full (but still session-memoized) recomputation
    /// when it has none or is `None`. Bit-identical to [`EvalCore::score`]
    /// in every case. `core` must be built for the run this session serves.
    /// The candidate memo is neither consulted nor filled and nothing is
    /// charged or counted: that is the run's `score_batch`'s job, so a
    /// revisited gene scores here again.
    pub fn score(
        &mut self,
        core: &EvalCore<'_>,
        gene: &MacAllocGene,
        parent: Option<&[u32]>,
    ) -> DeltaOutcome {
        let (df, point) = (self.df, self.point);
        let ps = self
            .state
            .get_or_insert_with(|| PlanState::new(core, df, point));
        let raw = gene.as_slice();
        let hw = core.hw();
        let l = df.programs().len();

        // Cloned out of the map so `ps` stays mutably borrowable below.
        let parent_entry = parent.and_then(|p| ps.retained.get(p)).map(Arc::clone);
        let parent_ref = parent_entry.as_deref();
        let use_delta = parent_ref.is_some();
        let outcome = |score, layers_recomputed| DeltaOutcome {
            score,
            layers_recomputed,
            used_delta: use_delta,
        };

        gene.decode_into(&mut ps.scratch.macros, &mut ps.scratch.shares);
        let macros: &[usize] = &ps.scratch.macros;
        let shares: &[Option<usize>] = &ps.scratch.shares;
        // The macro groups, and the physical macro count the allocator pays
        // for, the NoC is sized by and the power model charges.
        MacroGroup::build_into(
            &mut ps.scratch.groups,
            (macros.iter().zip(shares).enumerate()).map(|(i, (&m, &s))| (i, m, s)),
        );
        let n_macros: usize = ps.scratch.groups.iter().map(|g| g.macros).sum();
        // Eq. (6) depends on the gene only through `n_macros`: memoize.
        let counts = match ps.solves.get(&n_macros) {
            Some(entry) => entry.clone(),
            None => {
                let solved = ps.plan.solve(n_macros).ok().map(Arc::new);
                ps.solves.insert(n_macros, solved.clone());
                solved
            }
        };
        let Some(counts) = counts else {
            // Allocation failure: the full pipeline returns INFEASIBLE too.
            return outcome(CandidateScore::INFEASIBLE, 0);
        };
        // Identical macros: the allocator's post-pass over this candidate's
        // own copy, since it reads the whole macro vector.
        let counts = if ps.identical {
            let mut own = counts.to_vec();
            let budget = ps.plan.periph_budget(n_macros);
            homogenize(&mut own, macros, n_macros, ps.plan.adcs(), hw, budget, df);
            Arc::new(own)
        } else {
            counts
        };
        let no_sharing = shares.iter().all(Option::is_none);

        // `Architecture::effective_adcs`: every layer sees the largest ADC
        // bank of its group (the allocator assigns `layer: i` in program
        // order, so groups are index-based on both paths).
        ps.scratch.eff_adcs.clear();
        ps.scratch.eff_adcs.resize(l, 0);
        for g in &ps.scratch.groups {
            let bank = g.members.iter().map(|&m| counts[m].adc).max().unwrap_or(0);
            for &m in &g.members {
                ps.scratch.eff_adcs[m] = bank;
            }
        }
        let eff_adcs: &[usize] = &ps.scratch.eff_adcs;

        // By value: homogenized counts are a fresh copy per candidate (the
        // `Arc` comparison still short-circuits on a shared solve).
        let same_counts = parent_ref.is_some_and(|p| counts == p.counts);

        // Base (NoC-independent) stage costs: reuse every layer whose
        // inputs are unchanged from the parent, recompute the rest.
        let mut recomputed = 0usize;
        ps.scratch.base.clear();
        for i in 0..l {
            if let Some(p) = parent_ref {
                let pl = &p.layers[i];
                let unchanged = macros[i] == pl.macros
                    && eff_adcs[i] == pl.eff_adcs
                    && (same_counts || counts[i] == p.counts[i]);
                if unchanged {
                    ps.scratch.base.push(pl.base);
                    continue;
                }
            }
            let inputs = LayerCostInputs {
                macros: macros[i],
                effective_adcs: eff_adcs[i],
                adc: ps.plan.adcs()[i],
                shift_add: counts[i].shift_add,
                pool: counts[i].pool,
                activation: counts[i].activation,
                eltwise: counts[i].eltwise,
            };
            match compute_layer_base_with(df, hw, i, &inputs) {
                Ok(b) => {
                    ps.scratch.base.push(b);
                    recomputed += 1;
                }
                // The full pipeline fails this candidate identically.
                Err(_) => return outcome(CandidateScore::INFEASIBLE, recomputed),
            }
        }

        // NoC-coupled terms: parent reuse per layer when the macro count and
        // sharing are unchanged; the `(layer, macros, n_macros)` memo
        // otherwise (exact without sharing); full recomputation when shared.
        let noc = NocConfig::for_macros(n_macros, hw);
        let root_of = |x: usize| shares[x].unwrap_or(x);
        let noc_same = parent_ref.is_some_and(|p| {
            n_macros == p.n_macros && p.layers.iter().zip(shares).all(|(pl, s)| pl.share == *s)
        });
        ps.scratch.dynamic.clear();
        for (i, &m) in macros.iter().enumerate() {
            if noc_same {
                let pl = &parent_ref.expect("noc_same implies a parent").layers[i];
                if m == pl.macros {
                    ps.scratch.dynamic.push(pl.dynamic);
                    continue;
                }
            }
            if no_sharing {
                let key = (i, m, n_macros);
                if let Some(&d) = ps.dyn_memo.get(&key) {
                    ps.scratch.dynamic.push(d);
                    continue;
                }
                let d = compute_layer_dynamic_with(df, hw, i, m, root_of, &noc);
                if ps.dyn_memo.len() < MEMO_CAP {
                    ps.dyn_memo.insert(key, d);
                }
                ps.scratch.dynamic.push(d);
            } else {
                ps.scratch
                    .dynamic
                    .push(compute_layer_dynamic_with(df, hw, i, m, root_of, &noc));
            }
        }

        ps.scratch.stages.clear();
        for i in 0..l {
            ps.scratch.stages.push(assemble_stages(
                ps.scratch.base[i],
                ps.scratch.dynamic[i].0,
                ps.scratch.dynamic[i].1,
            ));
        }
        solve_pipeline_into(
            df,
            &ps.scratch.stages,
            &ps.scratch.groups,
            &mut ps.scratch.solution,
        );

        // Realized power: counts, sharing and macro count fix it exactly —
        // reuse the parent's, else the per-`n_macros` memo (exact for
        // specialized macros without sharing), else recompute.
        let memo_power = no_sharing && !ps.identical;
        let power = match parent_ref {
            Some(p) if same_counts && noc_same => p.power,
            _ => match ps.power_memo.get(&n_macros).copied().filter(|_| memo_power) {
                Some(w) => w,
                None => {
                    let plan_adcs = ps.plan.adcs();
                    let w = power_breakdown_from(
                        hw,
                        point.crossbar,
                        df.dac(),
                        ps.crossbar_count,
                        &ps.scratch.groups,
                        n_macros,
                        |m| (counts[m], plan_adcs[m].bits()),
                    )
                    .total();
                    if memo_power && ps.power_memo.len() < MEMO_CAP {
                        ps.power_memo.insert(n_macros, w);
                    }
                    w
                }
            },
        };

        let summary = summarize_pipeline(df, &ps.scratch.solution, power, ps.total_macs);
        let fitness = core.objective().fitness_of_summary(&summary);
        let score = CandidateScore {
            fitness,
            feasible: true,
        };

        // Retention: identical genes rescore to bit-identical breakdowns,
        // so an already-retained gene is left untouched (no allocation).
        if !ps.retained.contains_key(raw) {
            let scratch = &ps.scratch;
            let layers: Vec<RetainedLayer> = (0..l)
                .map(|i| RetainedLayer {
                    macros: scratch.macros[i],
                    share: scratch.shares[i],
                    eff_adcs: scratch.eff_adcs[i],
                    base: scratch.base[i],
                    dynamic: scratch.dynamic[i],
                })
                .collect();
            ps.retain(
                raw.to_vec(),
                Retained {
                    layers,
                    n_macros,
                    counts,
                    power,
                },
            );
        }
        outcome(score, recomputed)
    }
}
