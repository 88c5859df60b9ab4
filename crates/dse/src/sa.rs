//! Weight-duplication stage (Sec. IV-A): the constrained optimization of
//! Eq. (2), pruned by the SA-based filter with the Eq. (4) energy function,
//! plus the two baseline strategies the paper compares against in Fig. 7
//! (WOHO-proportional heuristic and no duplication).

use pimsyn_arch::CrossbarConfig;
use pimsyn_model::Model;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ctx::ExploreContext;
use crate::error::DseError;

/// The empirical `alpha` weighting the data-access-balance term of
/// Eq. (4).
pub const SA_ALPHA: f64 = 0.5;

/// Initial Metropolis temperature, as a multiple of the walk's starting
/// energy (at least 1).
const INITIAL_TEMPERATURE: f64 = 1.0;

/// Multiplicative cooling per annealing step.
const COOLING: f64 = 0.9985;

/// Configuration of the SA-based weight-duplication filter.
#[derive(Debug, Clone, PartialEq)]
pub struct SaConfig {
    /// Annealing steps.
    pub iterations: usize,
    /// Number of top candidates to keep (the paper keeps 30).
    pub candidates: usize,
}

impl SaConfig {
    /// The paper-scale configuration: 30 candidates from a long anneal.
    pub fn paper() -> Self {
        Self {
            iterations: 4000,
            candidates: 30,
        }
    }

    /// A cheap configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            iterations: 400,
            candidates: 6,
        }
    }
}

/// Population standard deviation (the paper's `stdev`), computed in a
/// single pass with Welford's online algorithm — the evaluation hot path
/// calls this for every SA probe, so no cloning or re-iteration.
pub(crate) fn stdev(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    for v in values {
        n += 1;
        let delta = v - mean;
        mean += delta / n as f64;
        m2 += delta * (v - mean);
    }
    if n == 0 {
        0.0
    } else {
        (m2 / n as f64).sqrt()
    }
}

/// The Eq. (4) energy: `stdev_i(WO*HO / WtDup_i) + alpha *
/// stdev_i(AccessVolume_i)` with `AccessVolume_i = WtDup_i * (WK²CI + CO)`.
///
/// Lower is better: a good duplication balances every layer's computation
/// (first term) *and* its data-access volume (second term).
pub fn sa_energy(model: &Model, dup: &[usize], alpha: f64) -> f64 {
    let blocks = model
        .weight_layers()
        .zip(dup)
        .map(|(wl, &d)| wl.output_positions() as f64 / d.max(1) as f64);
    let access = model
        .weight_layers()
        .zip(dup)
        .map(|(wl, &d)| wl.access_volume(d) as f64);
    stdev(blocks) + alpha * stdev(access)
}

/// Per-layer static factors of [`sa_energy`], precomputed once per SA walk
/// so each probe skips the weight-layer walk: `WO*HO` and the unit access
/// volume `WK²CI + CO`. [`SaTable::energy`] performs the exact integer and
/// float operations of [`sa_energy`], so the two are bit-identical.
struct SaTable {
    positions: Vec<usize>,
    access_base: Vec<u64>,
}

impl SaTable {
    fn new(model: &Model) -> Self {
        Self {
            positions: model
                .weight_layers()
                .map(|wl| wl.output_positions())
                .collect(),
            access_base: model
                .weight_layers()
                .map(|wl| wl.access_volume(1))
                .collect(),
        }
    }

    /// [`sa_energy`] from the precomputed tables.
    fn energy(&self, dup: &[usize], alpha: f64) -> f64 {
        let blocks = self
            .positions
            .iter()
            .zip(dup)
            .map(|(&p, &d)| p as f64 / d.max(1) as f64);
        let access = self
            .access_base
            .iter()
            .zip(dup)
            .map(|(&b, &d)| (d as u64 * b) as f64);
        stdev(blocks) + alpha * stdev(access)
    }
}

/// Crossbars consumed by a duplication vector: `sum WtDup_i x set_i` — the
/// constraint side of Eq. (2).
pub fn crossbars_used(model: &Model, crossbar: CrossbarConfig, dup: &[usize]) -> usize {
    model
        .weight_layers()
        .zip(dup)
        .map(|(wl, &d)| d * crossbar.crossbar_set(wl, model.precision().weight_bits()))
        .sum()
}

/// The WOHO-proportional heuristic used by ISAAC/PipeLayer (Fig. 7's
/// comparison point): duplication factors proportional to each layer's
/// `WO x HO`, scaled to fill the crossbar budget.
///
/// # Errors
///
/// [`DseError::BudgetTooSmall`] if even one copy per layer does not fit.
pub fn woho_proportional(
    model: &Model,
    crossbar: CrossbarConfig,
    budget: usize,
) -> Result<Vec<usize>, DseError> {
    // Fails when the budget cannot hold one copy per layer.
    no_duplication(model, crossbar, budget)?;
    let caps: Vec<usize> = model
        .weight_layers()
        .map(|wl| wl.output_positions())
        .collect();
    let woho: Vec<f64> = caps.iter().map(|&p| p as f64).collect();

    // Binary search the proportionality constant.
    let mut lo = 0.0f64;
    let mut hi = budget as f64;
    let clamp = |t: f64| -> Vec<usize> {
        woho.iter()
            .zip(&caps)
            .map(|(&w, &cap)| ((t * w).round() as usize).clamp(1, cap))
            .collect()
    };
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if crossbars_used(model, crossbar, &clamp(mid)) <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let dup = clamp(lo);
    debug_assert!(crossbars_used(model, crossbar, &dup) <= budget);
    Ok(dup)
}

/// The no-duplication strategy of prior exploration works \[6\]\[7\]: one weight
/// copy per layer.
///
/// # Errors
///
/// [`DseError::BudgetTooSmall`] if the budget cannot hold one copy per layer.
pub fn no_duplication(
    model: &Model,
    crossbar: CrossbarConfig,
    budget: usize,
) -> Result<Vec<usize>, DseError> {
    let dup = vec![1usize; model.weight_layer_count()];
    let needed = crossbars_used(model, crossbar, &dup);
    if needed > budget {
        return Err(DseError::BudgetTooSmall {
            needed,
            available: budget,
        });
    }
    Ok(dup)
}

/// The SA-based filter (Alg. 1 line 6): anneals over feasible duplication
/// vectors and returns up to `cfg.candidates` distinct low-energy candidates,
/// best first. The walk is fully deterministic given `seed`.
///
/// # Errors
///
/// [`DseError::BudgetTooSmall`] if the budget cannot hold one copy per layer.
pub fn wt_dup_candidates(
    model: &Model,
    crossbar: CrossbarConfig,
    budget: usize,
    cfg: &SaConfig,
    seed: u64,
) -> Result<Vec<Vec<usize>>, DseError> {
    let ctx = ExploreContext::unobserved();
    wt_dup_candidates_counted(model, crossbar, budget, cfg, seed, &ctx)
        .map(|(candidates, _)| candidates)
}

/// [`wt_dup_candidates`] under an [`ExploreContext`] (the annealing loop
/// checks for cancellation / exhausted budgets every few iterations and, if
/// told to stop, returns the candidates collected so far), also returning
/// how many Eq. (4) probes the walk made. Probes read a per-layer table
/// built once per walk, bit-identical to [`sa_energy`].
pub(crate) fn wt_dup_candidates_counted(
    model: &Model,
    crossbar: CrossbarConfig,
    budget: usize,
    cfg: &SaConfig,
    seed: u64,
    ctx: &ExploreContext<'_>,
) -> Result<(Vec<Vec<usize>>, usize), DseError> {
    let table = SaTable::new(model);
    let mut probes = 0usize;
    let mut energy_fn = |dup: &[usize]| {
        probes += 1;
        table.energy(dup, SA_ALPHA)
    };

    let sets: Vec<usize> = model
        .weight_layers()
        .map(|wl| crossbar.crossbar_set(wl, model.precision().weight_bits()))
        .collect();
    let caps: Vec<usize> = model
        .weight_layers()
        .map(|wl| wl.output_positions())
        .collect();
    let l = sets.len();

    let ones = no_duplication(model, crossbar, budget)?;
    let mut state = ones.clone();
    let mut used: usize = state.iter().zip(&sets).map(|(&d, &s)| d * s).sum();

    // Greedy warm start: repeatedly duplicate the layer with the most
    // blocks-per-copy until the budget is spent (compute balancing).
    loop {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..l {
            if state[i] < caps[i] && used + sets[i] <= budget {
                let blocks = caps[i] as f64 / state[i] as f64;
                if best.is_none_or(|(_, b)| blocks > b) {
                    best = Some((i, blocks));
                }
            }
        }
        match best {
            Some((i, _)) => {
                state[i] += 1;
                used += sets[i];
            }
            None => break,
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut energy = energy_fn(&state);
    let mut temperature = INITIAL_TEMPERATURE * energy.max(1.0);

    // Top-K distinct candidates, kept sorted by energy. Besides the states
    // the SA walk accepts, deterministic seeds are offered: the greedy
    // budget fill (the walk's start), the single-copy vector and
    // WOHO-proportional fills of half and a quarter of the budget — under
    // tight peripheral power the downstream stages may legitimately prefer
    // a lighter duplication than the budget-filling optimum. Seeds are not
    // kept for certain: the list is trimmed to `cfg.candidates` after each
    // state the walk accepts and once more at the end, which can evict any
    // seed.
    let mut top: Vec<(f64, Vec<usize>)> = vec![(energy, state.clone())];
    let mut seed_candidate = |s: Vec<usize>, top: &mut Vec<(f64, Vec<usize>)>| {
        if top.iter().any(|(_, existing)| *existing == s) {
            return;
        }
        let e = energy_fn(&s);
        let pos = top.partition_point(|(te, _)| *te <= e);
        top.insert(pos, (e, s));
    };
    seed_candidate(ones, &mut top);
    for denom in [2usize, 4] {
        if let Ok(w) = woho_proportional(model, crossbar, (budget / denom).max(1)) {
            seed_candidate(w, &mut top);
        }
    }
    let consider = |e: f64, s: &[usize], top: &mut Vec<(f64, Vec<usize>)>| {
        if top.iter().any(|(_, existing)| existing == s) {
            return;
        }
        let pos = top.partition_point(|(te, _)| *te <= e);
        top.insert(pos, (e, s.to_vec()));
        top.truncate(cfg.candidates);
    };

    for iter in 0..cfg.iterations {
        // Cooperative stop: cheap enough to check periodically without
        // perturbing the (deterministic) annealing walk itself.
        if iter % 32 == 0 && ctx.should_stop() {
            break;
        }
        let i = rng.gen_range(0..l);
        let step = (state[i] / 8).max(1);
        let delta: isize = if rng.gen_bool(0.5) {
            step as isize
        } else {
            -(step as isize)
        };
        let proposed = state[i] as isize + delta;
        if proposed < 1 || proposed as usize > caps[i] {
            continue;
        }
        let proposed = proposed as usize;
        let new_used = (used as isize + delta * sets[i] as isize) as usize;
        if new_used > budget {
            continue;
        }
        let old = state[i];
        state[i] = proposed;
        let new_energy = energy_fn(&state);
        let accept = new_energy <= energy
            || rng.gen::<f64>() < ((energy - new_energy) / temperature.max(1e-12)).exp();
        if accept {
            energy = new_energy;
            used = new_used;
            consider(new_energy, &state, &mut top);
        } else {
            state[i] = old;
        }
        temperature *= COOLING;
    }

    // Seeds go in untrimmed, so a walk that accepts no state would
    // otherwise return them all.
    top.truncate(cfg.candidates);
    let candidates = top.into_iter().map(|(_, s)| s).collect();
    Ok((candidates, probes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_model::zoo;

    /// The walk's seed in every test.
    const SEED: u64 = 0xD1CE;

    fn xb() -> CrossbarConfig {
        CrossbarConfig::new(128, 2).unwrap()
    }

    #[test]
    fn energy_prefers_balanced_blocks() {
        let model = zoo::alexnet_cifar(10);
        let l = model.weight_layer_count();
        let balanced: Vec<usize> = model
            .weight_layers()
            .map(|wl| wl.output_positions().max(1))
            .collect();
        let skewed = vec![1usize; l];
        // Fully-duplicated layers all have exactly one block: zero stdev in
        // the first term.
        assert!(
            sa_energy(&model, &balanced, 0.0) < sa_energy(&model, &skewed, 0.0),
            "balanced blocks must have lower energy"
        );
    }

    /// The walk's table is transparent: its energy equals the model walk of
    /// [`sa_energy`] bit for bit, with and without the access term.
    #[test]
    fn sa_table_matches_the_model_walk() {
        let model = zoo::alexnet_cifar(10);
        let l = model.weight_layer_count();
        let table = SaTable::new(&model);
        let ramp: Vec<usize> = (1..=l).collect();
        for dup in [vec![1; l], vec![2; l], ramp] {
            for alpha in [0.0, 0.5] {
                let direct = sa_energy(&model, &dup, alpha);
                assert_eq!(
                    table.energy(&dup, alpha).to_bits(),
                    direct.to_bits(),
                    "{dup:?} alpha {alpha}"
                );
            }
        }
    }

    #[test]
    fn budget_too_small_is_detected() {
        let model = zoo::vgg16();
        assert!(matches!(
            no_duplication(&model, xb(), 10),
            Err(DseError::BudgetTooSmall { .. })
        ));
        assert!(wt_dup_candidates(&model, xb(), 10, &SaConfig::fast(), SEED).is_err());
    }

    #[test]
    fn candidates_are_feasible_and_distinct() {
        let model = zoo::alexnet_cifar(10);
        let budget = 8000;
        let cands = wt_dup_candidates(&model, xb(), budget, &SaConfig::fast(), SEED).unwrap();
        assert!(!cands.is_empty());
        assert!(cands.len() <= SaConfig::fast().candidates);
        for c in &cands {
            assert_eq!(c.len(), model.weight_layer_count());
            assert!(c.iter().all(|&d| d >= 1));
            assert!(
                crossbars_used(&model, xb(), c) <= budget,
                "candidate exceeds budget"
            );
        }
        for (i, a) in cands.iter().enumerate() {
            for b in &cands[i + 1..] {
                assert_ne!(a, b, "candidates must be distinct");
            }
        }
    }

    /// The seeds alone can outnumber `cfg.candidates`: a walk that takes
    /// no step must still return at most that many vectors.
    #[test]
    fn seeds_are_trimmed_to_the_candidate_count() {
        let model = zoo::alexnet_cifar(10);
        let cfg = SaConfig {
            candidates: 1,
            iterations: 0,
        };
        let cands = wt_dup_candidates(&model, xb(), 4000, &cfg, SEED).unwrap();
        assert_eq!(cands.len(), 1, "{cands:?}");
    }

    #[test]
    fn candidates_sorted_by_energy() {
        let model = zoo::alexnet_cifar(10);
        let cfg = SaConfig::fast();
        let cands = wt_dup_candidates(&model, xb(), 8000, &cfg, SEED).unwrap();
        let energies: Vec<f64> = cands
            .iter()
            .map(|c| sa_energy(&model, c, SA_ALPHA))
            .collect();
        for w in energies.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "energies not sorted: {energies:?}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let model = zoo::alexnet_cifar(10);
        let a = wt_dup_candidates(&model, xb(), 8000, &SaConfig::fast(), SEED).unwrap();
        let b = wt_dup_candidates(&model, xb(), 8000, &SaConfig::fast(), SEED).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn woho_proportional_tracks_workload() {
        let model = zoo::alexnet_cifar(10);
        let dup = woho_proportional(&model, xb(), 4000).unwrap();
        // conv1 (32x32 outputs) must get more copies than fc8 (1 output).
        let conv1 = 0;
        let fc8 = model.weight_layer_count() - 1;
        assert!(dup[conv1] > dup[fc8], "{dup:?}");
        assert_eq!(dup[fc8], 1);
        assert!(crossbars_used(&model, xb(), &dup) <= 4000);
    }

    #[test]
    fn sa_uses_budget_meaningfully() {
        // With a roomy budget the SA warm start should duplicate heavily.
        let model = zoo::alexnet_cifar(10);
        let cands = wt_dup_candidates(&model, xb(), 20_000, &SaConfig::fast(), SEED).unwrap();
        let best = &cands[0];
        assert!(
            best.iter().sum::<usize>() > model.weight_layer_count(),
            "{best:?}"
        );
    }
}
