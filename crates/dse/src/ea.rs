//! EA-based macro partitioning explorer (Sec. IV-C, Alg. 2).
//!
//! A gene encodes `MacAlloc` exactly as in the paper: layer `i`'s entry is
//! `i*1000 + #macros`, changed to `j*1000 + #macros` when layer `i` shares
//! layer `j`'s macros (`j < i`). Two mutation operators evolve the
//! population: `mutate_num` re-draws a layer's macro count and
//! `mutate_share` toggles macro sharing. Fitness is the accelerator's power
//! efficiency as evaluated by the analytic model after running components
//! allocation on each child — exactly the stage coupling of Fig. 3.

use pimsyn_arch::{Architecture, MacroMode, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::{AnalyticSummary, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ctx::ExploreContext;
use crate::delta::DeltaSession;
use crate::error::DseError;
use crate::eval::{CandidateEvaluator, CandidateScore, EvalCacheConfig};
use crate::space::DesignPoint;

/// The paper's gene encoding base: `MacAlloc_i = owner * 1000 + #macros`.
pub const GENE_BASE: u32 = 1000;

/// Upper bound on macros per layer, keeping rule (c) the binding constraint
/// for small layers while bounding NoC growth for huge ones.
const MAX_MACROS_PER_LAYER: usize = 64;

/// What the exploration maximizes.
///
/// The paper's primary objective is power efficiency (equivalent to
/// performance under a fixed power constraint, Sec. III); the Gibbon
/// comparison of Table V is EDP-based, so the explorer can optimize that
/// directly as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Maximize TOPS/W (the paper's default).
    #[default]
    PowerEfficiency,
    /// Minimize latency x energy (fitness is its reciprocal).
    EnergyDelayProduct,
}

impl Objective {
    /// Fitness (higher is better) of an evaluation under this objective.
    pub fn fitness(&self, report: &SimReport) -> f64 {
        match self {
            Objective::PowerEfficiency => report.efficiency_tops_per_watt(),
            Objective::EnergyDelayProduct => {
                let edp = report.edp_ms_mj();
                if edp > 0.0 {
                    1.0 / edp
                } else {
                    0.0
                }
            }
        }
    }

    /// [`fitness`](Self::fitness) from an [`AnalyticSummary`] instead of a
    /// full report. Both derive their metrics through the same shared
    /// expressions ([`pimsyn_sim`] metric helpers), so this is bit-identical
    /// to scoring the corresponding report — the delta evaluator depends on
    /// that.
    pub fn fitness_of_summary(&self, summary: &AnalyticSummary) -> f64 {
        match self {
            Objective::PowerEfficiency => summary.efficiency_tops_per_watt(),
            Objective::EnergyDelayProduct => {
                let edp = summary.edp_ms_mj();
                if edp > 0.0 {
                    1.0 / edp
                } else {
                    0.0
                }
            }
        }
    }
}

/// Configuration of the evolutionary explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct EaConfig {
    /// Population size.
    pub population: usize,
    /// Generations (`MaxEAIterations` in Alg. 2).
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of `mutate_num` per child.
    pub mutate_num_prob: f64,
    /// Probability of `mutate_share` per child.
    pub mutate_share_prob: f64,
    /// Whether inter-layer macro sharing is explored (Fig. 9 ablates this).
    pub allow_sharing: bool,
    /// What the fitness function maximizes.
    pub objective: Objective,
    /// RNG seed.
    pub seed: u64,
}

impl EaConfig {
    /// Paper-scale exploration.
    pub fn paper() -> Self {
        Self {
            population: 16,
            generations: 24,
            tournament: 3,
            mutate_num_prob: 0.6,
            mutate_share_prob: 0.3,
            allow_sharing: true,
            objective: Objective::default(),
            seed: 0xEA5E,
        }
    }

    /// Cheap smoke-test configuration.
    pub fn fast() -> Self {
        Self {
            population: 8,
            generations: 6,
            ..Self::paper()
        }
    }
}

impl Default for EaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A macro-partitioning candidate in the paper's integer-vector encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacAllocGene(Vec<u32>);

impl MacAllocGene {
    /// Encodes explicit macro counts and sharing into the paper's format.
    ///
    /// # Panics
    ///
    /// Panics if `macros` and `shares` lengths differ, a count is zero or
    /// `>= 1000`, or a share points forward.
    pub fn encode(macros: &[usize], shares: &[Option<usize>]) -> Self {
        assert_eq!(macros.len(), shares.len());
        let v = macros
            .iter()
            .zip(shares)
            .enumerate()
            .map(|(i, (&m, &s))| {
                assert!(
                    m >= 1 && m < GENE_BASE as usize,
                    "macro count {m} out of range"
                );
                let owner = match s {
                    None => i,
                    Some(j) => {
                        assert!(j < i, "sharing must point to an earlier layer");
                        j
                    }
                };
                owner as u32 * GENE_BASE + m as u32
            })
            .collect();
        Self(v)
    }

    /// Decodes into `(macros, shares)`.
    pub fn decode(&self) -> (Vec<usize>, Vec<Option<usize>>) {
        let mut macros = Vec::with_capacity(self.0.len());
        let mut shares = Vec::with_capacity(self.0.len());
        self.decode_into(&mut macros, &mut shares);
        (macros, shares)
    }

    /// [`Self::decode`] into caller-owned buffers (cleared first), so hot
    /// loops can reuse their allocations.
    pub fn decode_into(&self, macros: &mut Vec<usize>, shares: &mut Vec<Option<usize>>) {
        macros.clear();
        shares.clear();
        macros.reserve(self.0.len());
        shares.reserve(self.0.len());
        for (i, &g) in self.0.iter().enumerate() {
            let owner = (g / GENE_BASE) as usize;
            macros.push((g % GENE_BASE) as usize);
            shares.push(if owner == i { None } else { Some(owner) });
        }
    }

    /// Raw encoded vector (`i*1000 + #macros` per layer).
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Reconstructs a gene from its raw encoded vector (the wire and
    /// persistence format), validating the encoding invariants instead of
    /// panicking like [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// A human-readable message for zero macro counts or forward/self-
    /// inconsistent sharing.
    pub fn from_raw(raw: Vec<u32>) -> Result<Self, String> {
        for (i, &g) in raw.iter().enumerate() {
            let owner = (g / GENE_BASE) as usize;
            let macros = g % GENE_BASE;
            if macros == 0 {
                return Err(format!("layer {i}: macro count must be >= 1"));
            }
            if owner > i {
                return Err(format!(
                    "layer {i}: sharing must point to an earlier layer, got {owner}"
                ));
            }
        }
        Ok(Self(raw))
    }
}

/// Result of the EA exploration: the best macro partitioning found together
/// with its completed architecture and evaluation.
#[derive(Debug, Clone)]
pub struct EaOutcome {
    /// Best gene in the paper's encoding.
    pub gene: MacAllocGene,
    /// The completed architecture (components allocation included).
    pub architecture: Architecture,
    /// Analytic evaluation of the winner.
    pub report: SimReport,
    /// Fitness (TOPS/W) of the winner.
    pub fitness: f64,
    /// Candidate evaluations performed.
    pub evaluations: usize,
}

/// Rule (c) upper bound on macros for each layer: `WtDup_i x
/// ceil(WK²CI/XbSize)`, further clamped to [`MAX_MACROS_PER_LAYER`].
pub(crate) fn max_macros(df: &Dataflow) -> Vec<usize> {
    df.programs()
        .iter()
        .map(|p| (p.wt_dup * p.row_groups).clamp(1, MAX_MACROS_PER_LAYER))
        .collect()
}

/// One EA population member: its gene and its slim score.
type Individual = (MacAllocGene, CandidateScore);

/// Explores macro partitioning with the EA of Alg. 2 and returns the best
/// completed architecture.
///
/// # Errors
///
/// [`DseError::NoFeasibleSolution`] when no gene in the entire run produced
/// a working accelerator (budget far too small for the chosen design point).
#[allow(clippy::too_many_arguments)]
pub fn explore_macro_partitioning(
    model: &Model,
    df: &Dataflow,
    point: DesignPoint,
    total_power: Watts,
    hw: &pimsyn_arch::HardwareParams,
    macro_mode: MacroMode,
    cfg: &EaConfig,
) -> Result<EaOutcome, DseError> {
    let ctx = ExploreContext::unobserved();
    explore_macro_partitioning_observed(model, df, point, total_power, hw, macro_mode, cfg, &ctx)
}

/// [`explore_macro_partitioning_observed`] scoring through a caller-provided
/// [`CandidateEvaluator`] — the form [`run_dse_observed`](crate::run_dse_observed)
/// uses so one memo cache spans every EA invocation of a synthesis run. The
/// evaluator's objective must match `cfg.objective` (its cached fitness
/// values are what the EA ranks by).
///
/// # Errors
///
/// [`DseError::NoFeasibleSolution`] when no gene evaluated before the run
/// ended produced a working accelerator.
pub fn explore_macro_partitioning_evaluated(
    df: &Dataflow,
    point: DesignPoint,
    cfg: &EaConfig,
    ctx: &ExploreContext<'_>,
    evaluator: &CandidateEvaluator<'_>,
) -> Result<EaOutcome, DseError> {
    run_ea_counted(df, point, cfg, ctx, evaluator).1
}

/// [`explore_macro_partitioning`] under an [`ExploreContext`]: every
/// candidate evaluation is charged to the context's shared budget, and the
/// generational loop stops early (returning the best gene so far) when the
/// context says to stop.
///
/// # Errors
///
/// [`DseError::NoFeasibleSolution`] when no gene evaluated before the run
/// ended produced a working accelerator.
#[allow(clippy::too_many_arguments)]
pub fn explore_macro_partitioning_observed(
    model: &Model,
    df: &Dataflow,
    point: DesignPoint,
    total_power: Watts,
    hw: &pimsyn_arch::HardwareParams,
    macro_mode: MacroMode,
    cfg: &EaConfig,
    ctx: &ExploreContext<'_>,
) -> Result<EaOutcome, DseError> {
    let evaluator = CandidateEvaluator::new(
        model,
        total_power,
        hw,
        macro_mode,
        cfg.objective,
        EvalCacheConfig::default(),
    );
    run_ea_counted(df, point, cfg, ctx, &evaluator).1
}

/// The EA body, additionally returning the candidate evaluations performed
/// even when the run ends infeasible — so callers can keep their reported
/// counts consistent with the budget counter. All scoring goes through
/// `evaluator` (whose objective must match `cfg.objective`); generations are
/// scored as batches with deterministic reduction, parallelized by whichever
/// [`EvalBackend`](crate::backend::EvalBackend) the evaluator composes.
/// Children are rescored in one [`DeltaSession`] owned by the run, so
/// everything it retains is freed when the run returns.
pub(crate) fn run_ea_counted(
    df: &Dataflow,
    point: DesignPoint,
    cfg: &EaConfig,
    ctx: &ExploreContext<'_>,
    evaluator: &CandidateEvaluator<'_>,
) -> (usize, Result<EaOutcome, DseError>) {
    let l = df.programs().len();
    let caps = max_macros(df);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0usize;

    // Initialize: all-ones, a tile-proportional seed (one macro per ~96
    // crossbars, the ISAAC-class tiling — spreads communication-bound big
    // layers across macros from generation zero), plus random genes within
    // rule (c).
    let mut genes: Vec<MacAllocGene> = vec![MacAllocGene::encode(&vec![1; l], &vec![None; l])];
    if genes.len() < cfg.population {
        let tiled: Vec<usize> = df
            .programs()
            .iter()
            .enumerate()
            .map(|(i, p)| p.crossbars.div_ceil(96).clamp(1, caps[i]))
            .collect();
        genes.push(MacAllocGene::encode(&tiled, &vec![None; l]));
    }
    while genes.len() < cfg.population {
        if ctx.should_stop() {
            break;
        }
        let macros: Vec<usize> = (0..l).map(|i| rng.gen_range(1..=caps[i])).collect();
        genes.push(MacAllocGene::encode(&macros, &vec![None; l]));
    }
    let (scores, charged) = evaluator.score_batch(df, point, &genes, ctx);
    evaluations += charged;
    let mut session = DeltaSession::new(df, point);
    let mut population: Vec<Individual> = genes.into_iter().zip(scores).collect();
    sort_population(&mut population);

    for _gen in 0..cfg.generations {
        if ctx.should_stop() {
            break;
        }
        let elite = 2.min(population.len());
        let mut child_genes: Vec<MacAllocGene> = Vec::new();
        let mut parent_idx: Vec<usize> = Vec::new();
        while child_genes.len() + elite < cfg.population {
            // Tournament selection (Alg. 2 line 4).
            let mut best_idx = rng.gen_range(0..population.len());
            for _ in 1..cfg.tournament {
                let c = rng.gen_range(0..population.len());
                if population[c].1.fitness > population[best_idx].1.fitness {
                    best_idx = c;
                }
            }
            let (mut macros, mut shares) = population[best_idx].0.decode();

            // mutate_num (Alg. 2 line 5).
            if rng.gen_bool(cfg.mutate_num_prob) {
                let i = rng.gen_range(0..l);
                macros[i] = rng.gen_range(1..=caps[i]);
            }
            // mutate_share (Alg. 2 line 6).
            if cfg.allow_sharing && rng.gen_bool(cfg.mutate_share_prob) {
                mutate_share(&mut shares, &mut rng, l);
            }
            child_genes.push(MacAllocGene::encode(&macros, &shares));
            parent_idx.push(best_idx);
        }
        // Each child differs from its tournament parent by at most one
        // mutate_num and one mutate_share, so the session rescores it from
        // the parent's retained breakdown, touching only those layers.
        let parents: Vec<Option<&MacAllocGene>> =
            parent_idx.iter().map(|&i| Some(&population[i].0)).collect();
        let (child_scores, charged) =
            evaluator.score_batch_with_parents(&mut session, &child_genes, &parents, ctx);
        evaluations += charged;
        population.truncate(elite);
        population.extend(child_genes.into_iter().zip(child_scores));
        sort_population(&mut population);
    }

    let best = population
        .into_iter()
        .find(|(_, score)| score.fitness > 0.0 && score.feasible);
    let outcome = match best {
        Some((gene, score)) => {
            // Scores are slim (the memo holds no architectures); the single
            // winner is realized once — a pure recomputation, uncharged.
            match evaluator.realize(df, point, &gene) {
                Some((architecture, report)) => Ok(EaOutcome {
                    gene,
                    architecture,
                    report,
                    fitness: score.fitness,
                    evaluations,
                }),
                // Unreachable: realization recomputes a feasible score.
                None => Err(DseError::NoFeasibleSolution),
            }
        }
        None => Err(DseError::NoFeasibleSolution),
    };
    (evaluations, outcome)
}

/// Toggles sharing for a random layer, respecting the rules: the partner
/// must be an earlier layer that neither shares nor is shared (pairs only).
fn mutate_share(shares: &mut [Option<usize>], rng: &mut StdRng, l: usize) {
    if l < 2 {
        return;
    }
    let i = rng.gen_range(1..l);
    if shares[i].is_some() {
        shares[i] = None;
        return;
    }
    // Candidate partners: earlier roots that nobody shares with yet.
    let taken: Vec<usize> = shares.iter().flatten().copied().collect();
    let candidates: Vec<usize> = (0..i)
        .filter(|j| shares[*j].is_none() && !taken.contains(j))
        .collect();
    if candidates.is_empty() {
        return;
    }
    let j = candidates[rng.gen_range(0..candidates.len())];
    shares[i] = Some(j);
}

fn sort_population(pop: &mut [Individual]) {
    pop.sort_by(|a, b| b.1.fitness.total_cmp(&a.1.fitness));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams};
    use pimsyn_model::zoo;

    fn setup() -> (Model, Dataflow, DesignPoint, Watts, HardwareParams) {
        let model = zoo::alexnet_cifar(10);
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![1; model.weight_layer_count()];
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        (
            model,
            df,
            DesignPoint {
                ratio_rram: 0.3,
                crossbar: xb,
            },
            Watts(9.0),
            HardwareParams::date24(),
        )
    }

    #[test]
    fn gene_encoding_matches_paper_format() {
        let gene = MacAllocGene::encode(&[2, 3, 4], &[None, None, Some(0)]);
        // Layer 0: 0*1000+2; layer 1: 1*1000+3; layer 2 shares 0: 0*1000+4.
        assert_eq!(gene.as_slice(), &[2, 1003, 4]);
        let (m, s) = gene.decode();
        assert_eq!(m, vec![2, 3, 4]);
        assert_eq!(s, vec![None, None, Some(0)]);
    }

    #[test]
    #[should_panic(expected = "sharing must point to an earlier layer")]
    fn forward_sharing_panics() {
        let _ = MacAllocGene::encode(&[1, 1], &[Some(1), None]);
    }

    #[test]
    fn ea_finds_feasible_solution() {
        let (model, df, point, power, hw) = setup();
        let out = explore_macro_partitioning(
            &model,
            &df,
            point,
            power,
            &hw,
            MacroMode::Specialized,
            &EaConfig::fast(),
        )
        .unwrap();
        assert!(out.fitness > 0.0);
        assert!(out.evaluations >= EaConfig::fast().population);
        out.architecture.validate(&model).unwrap();
        // The winner's gene decodes consistently with its architecture.
        let (macros, shares) = out.gene.decode();
        for (i, lh) in out.architecture.layers.iter().enumerate() {
            assert_eq!(lh.macros, macros[i]);
            assert_eq!(lh.shares_macros_with, shares[i]);
        }
    }

    #[test]
    fn ea_is_deterministic() {
        let (model, df, point, power, hw) = setup();
        let cfg = EaConfig::fast();
        let a = explore_macro_partitioning(
            &model,
            &df,
            point,
            power,
            &hw,
            MacroMode::Specialized,
            &cfg,
        )
        .unwrap();
        let b = explore_macro_partitioning(
            &model,
            &df,
            point,
            power,
            &hw,
            MacroMode::Specialized,
            &cfg,
        )
        .unwrap();
        assert_eq!(a.gene, b.gene);
        assert_eq!(a.fitness, b.fitness);
    }

    #[test]
    fn sharing_disabled_produces_no_shares() {
        let (model, df, point, power, hw) = setup();
        let cfg = EaConfig {
            allow_sharing: false,
            ..EaConfig::fast()
        };
        let out = explore_macro_partitioning(
            &model,
            &df,
            point,
            power,
            &hw,
            MacroMode::Specialized,
            &cfg,
        )
        .unwrap();
        let (_, shares) = out.gene.decode();
        assert!(shares.iter().all(Option::is_none));
    }

    #[test]
    fn infeasible_budget_reports_no_solution() {
        let (model, df, point, _, hw) = setup();
        let r = explore_macro_partitioning(
            &model,
            &df,
            point,
            Watts(0.05),
            &hw,
            MacroMode::Specialized,
            &EaConfig::fast(),
        );
        assert!(matches!(r, Err(DseError::NoFeasibleSolution)));
    }

    /// Delta state lives for one EA run: runs that share an evaluator (two
    /// dataflows, then the first again) each match the same run on a fresh
    /// evaluator — outcome and that run's delta counters. The memo is off,
    /// so delta state is the only thing a run could inherit.
    #[test]
    fn no_delta_state_crosses_ea_runs() {
        let (model, df_a, point, power, hw) = setup();
        let dup_b = vec![2; model.weight_layer_count()];
        let df_b = Dataflow::compile(&model, point.crossbar, df_a.dac(), &dup_b).unwrap();
        let cfg = EaConfig::fast();
        let ctx = ExploreContext::unobserved();
        let new_evaluator = || {
            CandidateEvaluator::new(
                &model,
                power,
                &hw,
                MacroMode::Specialized,
                cfg.objective,
                EvalCacheConfig::disabled().with_delta(true),
            )
        };
        let counters = |e: &CandidateEvaluator<'_>| {
            let s = e.stats();
            [s.delta_hits, s.delta_fallbacks, s.layers_recomputed]
        };
        let shared = new_evaluator();
        for (run, df) in [&df_a, &df_b, &df_a].into_iter().enumerate() {
            let before = counters(&shared);
            let got = explore_macro_partitioning_evaluated(df, point, &cfg, &ctx, &shared).unwrap();
            let after = counters(&shared);
            let fresh = new_evaluator();
            let want = explore_macro_partitioning_evaluated(df, point, &cfg, &ctx, &fresh).unwrap();
            assert_eq!(got.gene, want.gene, "run {run}");
            assert_eq!(got.architecture, want.architecture, "run {run}");
            assert_eq!(got.report, want.report, "run {run}");
            assert_eq!(got.fitness.to_bits(), want.fitness.to_bits(), "run {run}");
            assert_eq!(got.evaluations, want.evaluations, "run {run}");
            let increments = [0, 1, 2].map(|k| after[k] - before[k]);
            assert_eq!(increments, counters(&fresh), "run {run}");
            assert!(increments[0] > 0, "run {run} never used the delta path");
        }
    }

    #[test]
    fn mutate_share_respects_pair_rule() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut shares: Vec<Option<usize>> = vec![None, Some(0), None, None];
            mutate_share(&mut shares, &mut rng, 4);
            // Layer 0 is taken (by 1); any new share must target 2 or be a
            // toggle-off; nobody may point at a non-root.
            for (i, s) in shares.iter().enumerate() {
                if let Some(j) = s {
                    assert!(*j < i);
                    assert!(shares[*j].is_none(), "partner must be a root");
                }
            }
        }
    }
}
