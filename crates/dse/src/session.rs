//! The scoring session of one EA run.
//!
//! Alg. 2 scores every EA child through components allocation and the
//! analytic model. A [`RunSession`] does that for the candidates of one EA
//! run — one dataflow at one design point — and keeps what those
//! candidates share:
//!
//! - The run's [`AllocPlan`], prepared on the first memo miss.
//! - The Eq. (6) water-filling solution per physical macro count: it
//!   depends on the gene only through that count ([`AllocPlan::solve`]).
//!   Under [`MacroMode::Identical`] the allocator's own `homogenize` pass
//!   then runs on a per-candidate copy, since it reads the whole macro
//!   vector.
//! - Working buffers that every candidate overwrites, so the hot loop
//!   allocates nothing per candidate.
//!
//! The solve memo holds what [`AllocPlan::solve`], the function the full
//! pipeline calls, returned for its one input that varies within the run.
//! Everything else — each layer's stages ([`compute_layer_stages`]), the
//! pipeline solve ([`solve_pipeline_into`]), realized power
//! ([`power_breakdown_from`]) and the summary ([`summarize_pipeline`]) — is
//! recomputed per candidate. So a session score replays the exact float
//! sequence of [`EvalCore::compute`] and is bit-identical to
//! [`EvalCore::score`] by construction, in either macro mode.
//!
//! The session memoizes only what pays. Measured one at a time on 2 vCPUs
//! (release build, alternating runs, every summary byte-identical),
//! golden-ledger CPU time rose 10–17% without the solve memo, 15–30%
//! without the reused buffers and 2–4% without `FxHasher`. Memos of each
//! layer's NoC-coupled `merge`/`transfer` terms and of realized power
//! moved nothing: ledger CPU medians were 0.818, 0.771 and 0.781 s with
//! them and 0.772, 0.821 and 0.787 s without, so the session keeps neither.
//!
//! A session lives for one EA run, and its memos are freed when the run
//! returns: each `(RatioRram, crossbar, DAC, WtDup)` combination is
//! explored by exactly one EA run, so nothing a run memoizes could serve
//! another. That holds for the run's candidate memo too, which the session
//! carries: the session pins the dataflow and design point, so the memo is
//! keyed by the gene alone, and a run scores at most `population +
//! generations x (population - 2)` candidates (352 at paper effort), so it
//! needs no lock and no capacity.
//!
//! The session is also the run's accounting: `RunSession::score_batch`
//! charges each candidate to the job's budget and counts it in the
//! session's own [`EvaluatorStats`], which the run hands back when it ends.
//!
//! [`MacroMode::Identical`]: pimsyn_arch::MacroMode::Identical

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pimsyn_arch::{power_breakdown_from, ComponentCounts, MacroGroup, MacroMode, NocConfig};
use pimsyn_ir::Dataflow;
use pimsyn_sim::{
    compute_layer_stages, solve_pipeline_into, summarize_pipeline, LayerCostInputs, LayerStages,
    PipelineSolution,
};

use crate::alloc::{homogenize, AllocPlan};
use crate::ctx::ExploreContext;
use crate::ea::MacAllocGene;
use crate::eval::{CandidateScore, EvalCore, EvaluatorStats};
use crate::space::DesignPoint;

/// Multiplicative word hasher (the rustc/FxHash scheme) for the hot-loop
/// maps: the session's candidate memo and its solve memo. Their keys are
/// a machine word or a short `u32` gene slice, and with the default
/// SipHash instead the golden ledger took 2–4% more CPU. Not DoS-resistant
/// — fine here, the keys come from the EA itself, not from untrusted input.
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
        // Integer slices (the candidate memo's gene keys) arrive here as
        // one raw byte slice; fold eight bytes per round.
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

/// Reusable per-candidate working buffers; contents are transient (each
/// `score` call overwrites them), kept only to avoid reallocating a dozen
/// short vectors per candidate in the hot loop.
#[derive(Default)]
struct Scratch {
    macros: Vec<usize>,
    shares: Vec<Option<usize>>,
    /// Identical macros: this candidate's homogenized copy of the solve.
    counts: Vec<ComponentCounts>,
    eff_adcs: Vec<usize>,
    stages: Vec<LayerStages>,
    groups: Vec<MacroGroup>,
    solution: PipelineSolution,
}

/// Everything one session keeps for its dataflow and design point.
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
    solves: FastMap<usize, Option<Vec<ComponentCounts>>>,
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
            scratch: Scratch::default(),
        }
    }
}

/// The candidate memo, solve memo and counters of one EA run: one
/// dataflow at one design point. Create one per run, score every
/// generation of the run through its crate-internal `score_batch` and
/// drop it when the run returns, which frees every score and memo it
/// holds. The solve memo and its plan are built on the first memo miss,
/// so a session that never scores costs nothing.
pub struct RunSession<'d> {
    df: &'d Dataflow,
    point: DesignPoint,
    /// The run's candidate memo: the score of every gene
    /// [`score_batch`](Self::score_batch) scored in this session.
    pub(crate) memo: FastMap<Vec<u32>, CandidateScore>,
    /// What [`score_batch`](Self::score_batch) scored in this session.
    stats: EvaluatorStats,
    state: Option<PlanState>,
}

impl std::fmt::Debug for RunSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSession")
            .field("point", &self.point)
            .field("memo", &self.memo.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'d> RunSession<'d> {
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
    /// must be built for the run this session serves.
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
            self.stats.unique_evaluations += 1;
            let score = self.score(core, gene);
            out[i] = score;
            self.memo.insert(gene.as_slice().to_vec(), score);
        }
        out
    }

    /// Scores one candidate through the session's solve memo,
    /// bit-identically to [`EvalCore::score`]. `core` must be built for
    /// the run this session serves. The candidate memo is neither consulted
    /// nor filled and nothing is charged or counted: that is the run's
    /// `score_batch`'s job, so a revisited gene scores here again.
    pub fn score(&mut self, core: &EvalCore<'_>, gene: &MacAllocGene) -> CandidateScore {
        let (df, point) = (self.df, self.point);
        let ps = self
            .state
            .get_or_insert_with(|| PlanState::new(core, df, point));
        let hw = core.hw();

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
        let plan = &ps.plan;
        let solved = ps
            .solves
            .entry(n_macros)
            .or_insert_with(|| plan.solve(n_macros).ok());
        let Some(solved) = solved else {
            // Allocation failure: the full pipeline returns INFEASIBLE too.
            return CandidateScore::INFEASIBLE;
        };
        // Identical macros: the allocator's post-pass over this candidate's
        // own copy, since it reads the whole macro vector.
        let counts: &[ComponentCounts] = if ps.identical {
            let own = &mut ps.scratch.counts;
            own.clone_from(solved);
            let budget = plan.periph_budget(n_macros);
            homogenize(own, macros, n_macros, plan.adcs(), hw, budget, df);
            own
        } else {
            solved
        };

        // `Architecture::effective_adcs`: every layer sees the largest ADC
        // bank of its group (the allocator assigns `layer: i` in program
        // order, so groups are index-based on both paths).
        let eff_adcs = &mut ps.scratch.eff_adcs;
        eff_adcs.clear();
        eff_adcs.resize(macros.len(), 0);
        for g in &ps.scratch.groups {
            let bank = g.members.iter().map(|&m| counts[m].adc).max().unwrap_or(0);
            for &m in &g.members {
                eff_adcs[m] = bank;
            }
        }

        let noc = NocConfig::for_macros(n_macros, hw);
        let root_of = |x: usize| shares[x].unwrap_or(x);
        ps.scratch.stages.clear();
        for (i, &m) in macros.iter().enumerate() {
            let inputs = LayerCostInputs {
                macros: m,
                effective_adcs: eff_adcs[i],
                adc: plan.adcs()[i],
                shift_add: counts[i].shift_add,
                pool: counts[i].pool,
                activation: counts[i].activation,
                eltwise: counts[i].eltwise,
            };
            let Ok(stages) = compute_layer_stages(df, hw, i, &inputs, root_of, &noc) else {
                // The full pipeline fails this candidate identically.
                return CandidateScore::INFEASIBLE;
            };
            ps.scratch.stages.push(stages);
        }
        solve_pipeline_into(
            df,
            &ps.scratch.stages,
            &ps.scratch.groups,
            &mut ps.scratch.solution,
        );

        let power = power_breakdown_from(
            hw,
            point.crossbar,
            df.dac(),
            ps.crossbar_count,
            &ps.scratch.groups,
            n_macros,
            |m| (counts[m], plan.adcs()[m].bits()),
        )
        .total();

        let summary = summarize_pipeline(df, &ps.scratch.solution, power, ps.total_macs);
        CandidateScore {
            fitness: core.objective().fitness_of_summary(&summary),
            feasible: true,
        }
    }
}
