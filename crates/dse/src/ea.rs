//! EA-based macro partitioning explorer (Sec. IV-C, Alg. 2).
//!
//! A gene encodes `MacAlloc` exactly as in the paper: layer `i`'s entry is
//! `i*1000 + #macros`, changed to `j*1000 + #macros` when layer `i` shares
//! layer `j`'s macros (`j < i`). Two mutation operators evolve the
//! population: `mutate_num` re-draws a layer's macro count and
//! `mutate_share` toggles macro sharing. Fitness is the accelerator's power
//! efficiency as evaluated by the analytic model after running components
//! allocation on each child — exactly the stage coupling of Fig. 3.

use pimsyn_arch::{Architecture, MacroGroup, MacroMode, Watts};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::{AnalyticSummary, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ctx::ExploreContext;
use crate::error::DseError;
use crate::eval::{CandidateScore, EvalCore, EvaluatorStats};
use crate::session::RunSession;
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
    /// to scoring the corresponding report — the EA run's session depends
    /// on that.
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

/// Tournament size for parent selection (Alg. 2 line 4).
const TOURNAMENT: usize = 3;

/// Probability of `mutate_num` per child (Alg. 2 line 5).
const MUTATE_NUM_PROB: f64 = 0.6;

/// Probability of `mutate_share` per child (Alg. 2 line 6).
const MUTATE_SHARE_PROB: f64 = 0.3;

/// Configuration of the evolutionary explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct EaConfig {
    /// Population size.
    pub population: usize,
    /// Generations (`MaxEAIterations` in Alg. 2).
    pub generations: usize,
    /// Whether inter-layer macro sharing is explored (Fig. 9 ablates this).
    pub allow_sharing: bool,
    /// What the fitness function maximizes.
    pub objective: Objective,
}

impl EaConfig {
    /// Paper-scale exploration.
    pub fn paper() -> Self {
        Self {
            population: 16,
            generations: 24,
            allow_sharing: true,
            objective: Objective::default(),
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
    /// `>= 1000`, or sharing breaks [`MacroGroup::check_pairs`].
    pub fn encode(macros: &[usize], shares: &[Option<usize>]) -> Self {
        assert_eq!(macros.len(), shares.len());
        if let Err(e) = MacroGroup::check_pairs(shares.iter().copied()) {
            panic!("{e}");
        }
        let v = macros
            .iter()
            .zip(shares)
            .enumerate()
            .map(|(i, (&m, &s))| {
                assert!(
                    m >= 1 && m < GENE_BASE as usize,
                    "macro count {m} out of range"
                );
                s.unwrap_or(i) as u32 * GENE_BASE + m as u32
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

    /// Reconstructs a gene from its raw encoded vector, validating the
    /// encoding invariants instead of panicking like
    /// [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// A human-readable message for zero macro counts or sharing that
    /// breaks [`MacroGroup::check_pairs`].
    pub fn from_raw(raw: Vec<u32>) -> Result<Self, String> {
        if let Some(i) = raw.iter().position(|&g| g % GENE_BASE == 0) {
            return Err(format!("layer {i}: macro count must be >= 1"));
        }
        let gene = Self(raw);
        MacroGroup::check_pairs(gene.decode().1).map_err(|e| e.to_string())?;
        Ok(gene)
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
/// completed architecture. The run is fully deterministic given `seed`.
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
    seed: u64,
) -> Result<EaOutcome, DseError> {
    let core = EvalCore::new(model, total_power, hw, macro_mode, cfg.objective);
    run_ea_counted(df, point, cfg, seed, &ExploreContext::unobserved(), &core).1
}

/// The EA body, seeded with `seed`, additionally returning the run's
/// evaluator counters even when the run ends infeasible — so callers can
/// keep their reported counts consistent with the budget counter. Every
/// candidate is scored under `core` (whose objective must match
/// `cfg.objective`), a generation at a time, in one [`RunSession`] owned
/// by the run: it charges `ctx`, holds the run's memos and counts what it
/// scored, and everything it keeps is freed when the run returns.
pub(crate) fn run_ea_counted(
    df: &Dataflow,
    point: DesignPoint,
    cfg: &EaConfig,
    seed: u64,
    ctx: &ExploreContext<'_>,
    core: &EvalCore<'_>,
) -> (EvaluatorStats, Result<EaOutcome, DseError>) {
    let l = df.programs().len();
    let caps = max_macros(df);
    let mut rng = StdRng::seed_from_u64(seed);

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
    let mut session = RunSession::new(df, point);
    let scores = session.score_batch(core, &genes, ctx);
    let mut population: Vec<Individual> = genes.into_iter().zip(scores).collect();
    sort_population(&mut population);

    for _gen in 0..cfg.generations {
        if ctx.should_stop() {
            break;
        }
        let elite = 2.min(population.len());
        let mut child_genes: Vec<MacAllocGene> = Vec::new();
        while child_genes.len() + elite < cfg.population {
            // Tournament selection (Alg. 2 line 4).
            let mut best_idx = rng.gen_range(0..population.len());
            for _ in 1..TOURNAMENT {
                let c = rng.gen_range(0..population.len());
                if population[c].1.fitness > population[best_idx].1.fitness {
                    best_idx = c;
                }
            }
            let (mut macros, mut shares) = population[best_idx].0.decode();

            // mutate_num (Alg. 2 line 5).
            if rng.gen_bool(MUTATE_NUM_PROB) {
                let i = rng.gen_range(0..l);
                macros[i] = rng.gen_range(1..=caps[i]);
            }
            // mutate_share (Alg. 2 line 6).
            if cfg.allow_sharing && rng.gen_bool(MUTATE_SHARE_PROB) {
                mutate_share(&mut shares, &mut rng);
            }
            child_genes.push(MacAllocGene::encode(&macros, &shares));
        }
        let child_scores = session.score_batch(core, &child_genes, ctx);
        population.truncate(elite);
        population.extend(child_genes.into_iter().zip(child_scores));
        sort_population(&mut population);
    }
    #[cfg(test)]
    if let Some(hook) = ctx.session_hook {
        hook(&session);
    }
    let stats = session.stats();

    let best = population
        .into_iter()
        .find(|(_, score)| score.fitness > 0.0 && score.feasible);
    let outcome = match best {
        Some((gene, score)) => {
            // Scores are slim (the memo holds no architectures); the single
            // winner is realized once — a pure recomputation, uncharged.
            match core.compute(df, point, &gene).1 {
                Some((architecture, report)) => Ok(EaOutcome {
                    gene,
                    architecture,
                    report,
                    fitness: score.fitness,
                    evaluations: stats.scored,
                }),
                // Unreachable: realization recomputes a feasible score.
                None => Err(DseError::NoFeasibleSolution),
            }
        }
        None => Err(DseError::NoFeasibleSolution),
    };
    (stats, outcome)
}

/// Alg. 2's `mutate_share`: toggles sharing for a random layer `i > 0`
/// under the pair rule of [`MacroGroup::check_pairs`]. A sharer stops
/// sharing; a layer that already has a sharer stays as it is; any other
/// layer shares an earlier layer that neither shares nor has a sharer, drawn
/// at random, if there is one.
pub fn mutate_share(shares: &mut [Option<usize>], rng: &mut impl Rng) {
    let l = shares.len();
    if l < 2 {
        return;
    }
    let i = rng.gen_range(1..l);
    if shares[i].is_some() {
        shares[i] = None;
        return;
    }
    if shares.contains(&Some(i)) {
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

    /// The EA's seed in every test.
    const SEED: u64 = 0xEA5E;

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
    fn from_raw_rejects_chains_and_double_sharers() {
        // Layers 1 and 2 both share layer 0, then layer 3 shares layer 2.
        let err = MacAllocGene::from_raw(vec![5, 9, 3, 2007]).unwrap_err();
        assert!(err.contains("layer 2 cannot share layer 0"), "{err}");
        // Layer 2 shares layer 1, which shares layer 0.
        let err = MacAllocGene::from_raw(vec![1, 1, 1001, 3001, 4001, 5001]).unwrap_err();
        assert!(err.contains("layer 2 cannot share layer 1"), "{err}");
        let (_, shares) = MacAllocGene::from_raw(vec![1, 1, 2001, 2001])
            .unwrap()
            .decode();
        assert_eq!(shares, [None, Some(0), None, Some(2)]);
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
            SEED,
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
            SEED,
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
            SEED,
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
            SEED,
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
            SEED,
        );
        assert!(matches!(r, Err(DseError::NoFeasibleSolution)));
    }

    /// A run's session state lives for that EA run only: runs that share a
    /// core (two dataflows, then the first again) each match the same run on
    /// a fresh core — outcome and the run's memo counters, so the third run
    /// hits nothing the first one stored.
    #[test]
    fn no_delta_state_crosses_ea_runs() {
        let (model, df_a, point, power, hw) = setup();
        let dup_b = vec![2; model.weight_layer_count()];
        let df_b = Dataflow::compile(&model, point.crossbar, df_a.dac(), &dup_b).unwrap();
        let cfg = EaConfig::fast();
        let ctx = ExploreContext::unobserved();
        let new_core = || EvalCore::new(&model, power, &hw, MacroMode::Specialized, cfg.objective);
        let shared = new_core();
        for (run, df) in [&df_a, &df_b, &df_a].into_iter().enumerate() {
            let (got_stats, got) = run_ea_counted(df, point, &cfg, SEED, &ctx, &shared);
            let (want_stats, want) = run_ea_counted(df, point, &cfg, SEED, &ctx, &new_core());
            let (got, want) = (got.unwrap(), want.unwrap());
            assert_eq!(got.gene, want.gene, "run {run}");
            assert_eq!(got.architecture, want.architecture, "run {run}");
            assert_eq!(got.report, want.report, "run {run}");
            assert_eq!(got.fitness.to_bits(), want.fitness.to_bits(), "run {run}");
            assert_eq!(got.evaluations, want.evaluations, "run {run}");
            assert_eq!(got_stats, want_stats, "run {run}");
            assert_eq!(got.evaluations, got_stats.scored, "run {run}");
        }
    }

    /// Every share targets an earlier layer that shares nothing and has no
    /// other sharer: the gene is a set of disjoint pairs.
    fn assert_disjoint_pairs(shares: &[Option<usize>]) {
        for (i, s) in shares.iter().enumerate() {
            if let Some(j) = *s {
                assert!(j < i, "{shares:?}: layer {i} shares a later layer");
                assert!(
                    shares[j].is_none(),
                    "{shares:?}: layer {j} shares and is shared"
                );
                let sharers = shares.iter().filter(|s| **s == Some(j)).count();
                assert_eq!(sharers, 1, "{shares:?}: layer {j} has {sharers} sharers");
            }
        }
        MacroGroup::check_pairs(shares.iter().copied()).unwrap();
    }

    #[test]
    fn mutate_share_respects_pair_rule() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            // Layer 1 already has a sharer: drawing it must not chain it
            // onto layer 0.
            let mut shares: Vec<Option<usize>> = vec![None, None, Some(1), None];
            mutate_share(&mut shares, &mut rng);
            assert_disjoint_pairs(&shares);
        }
    }

    /// Mutation walks over every zoo model, in both macro modes: every gene
    /// stays a set of disjoint pairs, the allocator pays for the macro
    /// count the realized architecture reports (its counts are the Eq. (6)
    /// solve at `macro_count()`), and every layer's effective ADC bank is
    /// its group's largest.
    #[test]
    fn mutation_walks_keep_disjoint_pairs_and_one_macro_count() {
        let hw = HardwareParams::date24();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        let mut steps = 0;
        for (k, entry) in zoo::entries().iter().enumerate() {
            let model = (entry.build)();
            let l = model.weight_layer_count();
            let df =
                Dataflow::compile(&model, xb, DacConfig::new(1).unwrap(), &vec![1; l]).unwrap();
            let caps = max_macros(&df);
            let mut rng = StdRng::seed_from_u64(k as u64);
            let (mut macros, mut shares) = (vec![1usize; l], vec![None; l]);
            for mode in [MacroMode::Specialized, MacroMode::Identical] {
                let power = Watts(1000.0);
                let plan = crate::alloc::AllocPlan::prepare(&model, &df, point, power, &hw, mode);
                for step in 0..500 {
                    if rng.gen_bool(0.6) {
                        let i = rng.gen_range(0..l);
                        macros[i] = rng.gen_range(1..=caps[i]);
                    }
                    mutate_share(&mut shares, &mut rng);
                    assert_disjoint_pairs(&shares);
                    steps += 1;
                    let arch = crate::alloc::allocate_components(&crate::alloc::AllocRequest {
                        model: &model,
                        dataflow: &df,
                        point,
                        total_power: power,
                        hw: &hw,
                        macros: &macros,
                        shares: &shares,
                        macro_mode: mode,
                    })
                    .unwrap();
                    let n = arch.macro_count();
                    let mut want = plan.solve(n).unwrap();
                    if mode == MacroMode::Identical {
                        let budget = plan.periph_budget(n);
                        crate::alloc::homogenize(
                            &mut want,
                            &macros,
                            n,
                            plan.adcs(),
                            &hw,
                            budget,
                            &df,
                        );
                    }
                    let got: Vec<_> = arch.layers.iter().map(|lh| lh.components).collect();
                    assert_eq!(got, want, "{} {mode} step {step}", entry.name);
                    for g in arch.macro_groups() {
                        let bank = g.members.iter().map(|&m| arch.layers[m].components.adc);
                        let bank = bank.max().unwrap();
                        for &m in &g.members {
                            assert_eq!(arch.effective_adcs(m), bank, "{} step {step}", entry.name);
                        }
                    }
                }
            }
        }
        assert!(steps >= 10_000, "{steps} steps");
    }
}
