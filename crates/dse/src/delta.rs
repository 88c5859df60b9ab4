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
//! construction — however wide the gene diff, in either macro mode. The only
//! fallback is a parent with no retained breakdown, which costs a full
//! recomputation through the same functions (still retaining the result so
//! the next generation can delta against it).
//!
//! A session lives for one EA run — one dataflow at one design point — and
//! its retained breakdowns and memos are freed when the run returns: each
//! `(RatioRram, crossbar, DAC, WtDup)` combination is explored by exactly
//! one EA run, so nothing a run retains could serve another.
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

use crate::alloc::{homogenize, physical_macros, AllocPlan};
use crate::ea::MacAllocGene;
use crate::eval::{CandidateScore, EvalCore};
use crate::space::DesignPoint;

/// Retained breakdowns kept per session (FIFO eviction). A paper-effort EA
/// run retains at most 336 (24 generations of 14 children), so the cap only
/// bounds callers that drive one session far longer.
const RETAIN_CAP: usize = 4096;

/// Entry bound of each per-session memo; once full, further values are
/// computed without being stored (no eviction, bounded memory).
const MEMO_CAP: usize = 1 << 16;

/// Multiplicative word hasher (the rustc/FxHash scheme) for the hot-loop
/// maps: the session memos and the evaluator's in-batch duplicate index.
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
    macro_count: usize,
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
    root_adc: Vec<usize>,
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
    /// macro_count)` — exact only without sharing (the key then pins every
    /// input of [`compute_layer_dynamic_with`]); sharing candidates always
    /// recompute.
    dyn_memo: FastMap<(usize, usize, usize), (f64, f64)>,
    /// Realized power per physical macro count — exact only for specialized
    /// macros without sharing (counts are then a function of `n_macros`,
    /// groups are all singleton and `macro_count == n_macros`); every other
    /// candidate recomputes.
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

/// Rebuilds `groups` in place with [`MacroGroup::build_from`]'s exact
/// first-seen-root ordering and contents, reusing the member vectors'
/// allocations across candidates.
fn rebuild_groups(groups: &mut Vec<MacroGroup>, macros: &[usize], shares: &[Option<usize>]) {
    let mut used = 0usize;
    fn start_group(groups: &mut Vec<MacroGroup>, used: &mut usize, root: usize, macros: usize) {
        if *used < groups.len() {
            let g = &mut groups[*used];
            g.root = root;
            g.macros = macros;
            g.members.clear();
            g.members.push(root);
        } else {
            groups.push(MacroGroup {
                root,
                members: vec![root],
                macros,
            });
        }
        *used += 1;
    }
    for (i, (&m, &share)) in macros.iter().zip(shares).enumerate() {
        match share {
            None => start_group(groups, &mut used, i, m),
            Some(root) => {
                if let Some(g) = groups[..used].iter_mut().find(|g| g.root == root) {
                    g.members.push(i);
                    g.macros = g.macros.max(m);
                } else {
                    // Root not seen (defensive): its own group, as in
                    // `build_from`.
                    start_group(groups, &mut used, i, m);
                }
            }
        }
    }
    groups.truncate(used);
}

/// What one session scoring produced, and how.
pub(crate) struct DeltaOutcome {
    /// The slim score, bit-identical to [`EvalCore::score`].
    pub score: CandidateScore,
    /// Layers whose base costs were recomputed (0 for a pure reuse, the
    /// full layer count for a fallback).
    pub layers_recomputed: usize,
    /// The candidate was rescored from the parent's retained breakdown;
    /// otherwise the session recomputed everything (a fallback).
    pub used_delta: bool,
}

/// The delta-rescoring state of one EA run: one dataflow at one design
/// point. Create one per run, pass it to every
/// [`score_batch_with_parents`] call of the run and drop it when the run
/// returns, which frees every breakdown and memo it holds. The state is
/// built on the first parent-aware memo miss, so a session that never
/// rescores costs nothing.
///
/// [`score_batch_with_parents`]: crate::CandidateEvaluator::score_batch_with_parents
pub struct DeltaSession<'d> {
    df: &'d Dataflow,
    point: DesignPoint,
    state: Option<PlanState>,
}

impl std::fmt::Debug for DeltaSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let retained = self.state.as_ref().map_or(0, |ps| ps.retained.len());
        f.debug_struct("DeltaSession")
            .field("point", &self.point)
            .field("retained", &retained)
            .finish_non_exhaustive()
    }
}

impl<'d> DeltaSession<'d> {
    /// An empty session for the candidates of `df` at `point`.
    pub fn new(df: &'d Dataflow, point: DesignPoint) -> Self {
        Self {
            df,
            point,
            state: None,
        }
    }

    /// The dataflow every candidate of this session is scored under.
    pub(crate) fn dataflow(&self) -> &'d Dataflow {
        self.df
    }

    /// The design point every candidate of this session is scored at.
    pub(crate) fn point(&self) -> DesignPoint {
        self.point
    }

    /// Scores one candidate, incrementally when `parent` has a retained
    /// breakdown, with a full (but still session-memoized) recomputation
    /// otherwise. Bit-identical to [`EvalCore::score`] in every case.
    pub(crate) fn score(
        &mut self,
        core: &EvalCore<'_>,
        gene: &MacAllocGene,
        parent: &[u32],
    ) -> DeltaOutcome {
        let (df, point) = (self.df, self.point);
        let ps = self
            .state
            .get_or_insert_with(|| PlanState::new(core, df, point));
        let raw = gene.as_slice();
        let hw = core.hw();
        let l = df.programs().len();

        // Cloned out of the map so `ps` stays mutably borrowable below.
        let parent_entry = ps.retained.get(parent).map(Arc::clone);
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
        let n_macros = physical_macros(macros, shares);
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

        // Macro groups and the quantities the full pipeline derives from the
        // completed architecture — replicated from the gene decoding (the
        // allocator assigns `layer: i` in program order, so group roots and
        // sharing lookups are index-based on both paths).
        rebuild_groups(&mut ps.scratch.groups, macros, shares);
        let macro_count: usize = ps.scratch.groups.iter().map(|g| g.macros).sum();

        // `Architecture::effective_adcs`: every layer sees the largest ADC
        // bank among its root and the root's sharers (its own bank when
        // nothing is shared).
        ps.scratch.eff_adcs.clear();
        if no_sharing {
            ps.scratch.eff_adcs.extend(counts.iter().map(|c| c.adc));
        } else {
            ps.scratch.root_adc.clear();
            ps.scratch.root_adc.extend(counts.iter().map(|c| c.adc));
            for j in 0..l {
                if let Some(r) = shares[j] {
                    ps.scratch.root_adc[r] = ps.scratch.root_adc[r].max(counts[j].adc);
                }
            }
            let root_adc = &ps.scratch.root_adc;
            ps.scratch
                .eff_adcs
                .extend((0..l).map(|i| root_adc[shares[i].unwrap_or(i)]));
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
        // sharing are unchanged; the `(layer, macros, macro_count)` memo
        // otherwise (exact without sharing); full recomputation when shared.
        let noc = NocConfig::for_macros(macro_count, hw);
        let root_of = |x: usize| shares[x].unwrap_or(x);
        let noc_same = parent_ref.is_some_and(|p| {
            macro_count == p.macro_count
                && p.layers.iter().zip(shares).all(|(pl, s)| pl.share == *s)
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
                let key = (i, m, macro_count);
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
                        macro_count,
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
                    macro_count,
                    counts,
                    power,
                },
            );
        }
        outcome(score, recomputed)
    }
}

#[cfg(test)]
mod profile {
    use super::*;
    use crate::ea::Objective;
    use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams, MacroMode};
    use pimsyn_model::zoo;
    use std::time::Instant;

    /// Rough single-threaded throughput check for the delta session; run with
    /// `cargo test -p pimsyn-dse --release delta_throughput -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn delta_throughput() {
        let model = zoo::alexnet_cifar(10);
        let hw = HardwareParams::date24();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![1usize; model.weight_layer_count()];
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        let core = EvalCore::new(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
        );
        let l = model.weight_layer_count();
        let caps: Vec<usize> = df
            .programs()
            .iter()
            .map(|p| (p.wt_dup * p.row_groups).clamp(1, 4))
            .collect();
        let mut macros_w = vec![1usize; l];
        let mut chain = Vec::new();
        chain.push(MacAllocGene::encode(&macros_w, &vec![None; l]));
        for k in 0..256 {
            let i = k % l;
            macros_w[i] = 1 + (macros_w[i] + k * 13) % caps[i];
            chain.push(MacAllocGene::encode(&macros_w, &vec![None; l]));
        }
        let mut session = DeltaSession::new(&df, point);
        // Warm up memos and retention.
        let mut prev: Option<&MacAllocGene> = None;
        for g in &chain {
            session.score(&core, g, prev.unwrap_or(g).as_slice());
            prev = Some(g);
        }
        let rounds = 400;
        let wall = Instant::now();
        for _ in 0..rounds {
            let mut prev: Option<&MacAllocGene> = None;
            for g in &chain {
                let parent = prev.unwrap_or(g).as_slice();
                let out = session.score(&core, g, parent);
                std::hint::black_box(out.score.fitness);
                prev = Some(g);
            }
        }
        let total = wall.elapsed().as_secs_f64();
        let n = (rounds * chain.len()) as f64;
        eprintln!(
            "candidates: {n}, {:.0} cand/s, {:.3} us/cand",
            n / total,
            total / n * 1e6
        );
    }
}
