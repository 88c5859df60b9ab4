//! Evaluator-throughput benchmark: candidates scored per second through the
//! memoized [`CandidateEvaluator`] (every miss scored in full in a delta
//! session, no parents offered) vs a plain [`EvalCore::score`] loop, on a
//! repeated-gene workload (the shape EA generations actually produce —
//! tournament winners resurface unmutated, and mutations frequently
//! recreate previously seen genes).
//!
//! Besides the criterion timings, the bench computes each arm's throughput
//! directly and prints one JSON summary per comparison on stdout. Pass
//! `--quick` (the CI smoke mode) to run a single small round that merely
//! proves the hot paths compile and execute.
//!
//! The delta case scores a mutation *chain* — every gene differs from its
//! predecessor in exactly one position, the per-child diff the EA hot loop
//! produces — once through a plain `EvalCore::score` loop and once through
//! the evaluator's delta rescoring, each gene offered its predecessor as
//! parent.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams, MacroMode, Watts};
use pimsyn_dse::{
    CandidateEvaluator, DeltaSession, DesignPoint, EvalCore, ExploreContext, MacAllocGene,
    Objective,
};
use pimsyn_ir::Dataflow;
use pimsyn_model::{zoo, Model};

const POWER: Watts = Watts(9.0);

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

struct Workload {
    model: Model,
    hw: HardwareParams,
    df: Dataflow,
    point: DesignPoint,
    genes: Vec<MacAllocGene>,
}

/// A deterministic repeated-gene workload: `distinct` feasible genes, the
/// whole set scored `repeats` times (so a perfect memo converges to a
/// `(repeats - 1) / repeats` hit rate).
fn workload(distinct: usize, repeats: usize) -> Workload {
    workload_for(zoo::alexnet_cifar(10), distinct, repeats)
}

fn workload_for(model: Model, distinct: usize, repeats: usize) -> Workload {
    let hw = HardwareParams::date24();
    let xb = CrossbarConfig::new(128, 2).expect("legal");
    let dac = DacConfig::new(1).expect("legal");
    let dup = vec![1usize; model.weight_layer_count()];
    let df = Dataflow::compile(&model, xb, dac, &dup).expect("compiles");
    let point = DesignPoint {
        ratio_rram: 0.3,
        crossbar: xb,
    };
    let l = model.weight_layer_count();
    let caps: Vec<usize> = df
        .programs()
        .iter()
        .map(|p| (p.wt_dup * p.row_groups).clamp(1, 4))
        .collect();
    let mut genes = Vec::with_capacity(distinct * repeats);
    let distinct_genes: Vec<MacAllocGene> = (0..distinct)
        .map(|g| {
            // A cheap deterministic spread over small macro counts (no RNG
            // so the workload is identical across runs and machines).
            let macros: Vec<usize> = (0..l).map(|i| 1 + (g * 13 + i * 7) % caps[i]).collect();
            MacAllocGene::encode(&macros, &vec![None; l])
        })
        .collect();
    for _ in 0..repeats {
        genes.extend(distinct_genes.iter().cloned());
    }
    Workload {
        model,
        hw,
        df,
        point,
        genes,
    }
}

fn evaluator(w: &Workload) -> CandidateEvaluator<'_> {
    CandidateEvaluator::new(
        &w.model,
        POWER,
        &w.hw,
        MacroMode::Specialized,
        Objective::PowerEfficiency,
    )
}

fn core(w: &Workload) -> EvalCore<'_> {
    EvalCore::new(
        &w.model,
        POWER,
        &w.hw,
        MacroMode::Specialized,
        Objective::PowerEfficiency,
    )
}

/// Scores the whole workload once, as one batch through a fresh memoized
/// evaluator (`memo`) or a plain core loop; candidates/second.
fn throughput(w: &Workload, memo: bool) -> f64 {
    let (eval, core) = (evaluator(w), core(w));
    let ctx = ExploreContext::unobserved();
    let start = Instant::now();
    if memo {
        let mut session = DeltaSession::new(&w.df, w.point);
        black_box(eval.score_batch(&mut session, &w.genes, &[], &ctx));
    } else {
        for gene in &w.genes {
            black_box(core.score(&w.df, w.point, gene));
        }
    }
    w.genes.len() as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

fn bench_eval_throughput(c: &mut Criterion) {
    let quick = quick_mode();
    let (distinct, repeats, samples) = if quick { (4, 2, 1) } else { (16, 8, 10) };
    let w = workload(distinct, repeats);

    let mut group = c.benchmark_group("eval_throughput");
    group.sample_size(samples);
    group.bench_function("memo", |b| b.iter(|| throughput(&w, true)));
    group.bench_function("core", |b| b.iter(|| throughput(&w, false)));
    group.finish();

    // Direct throughput comparison (best of a few rounds per arm, so the
    // summary is stable against scheduler noise).
    let rounds = if quick { 1 } else { 3 };
    let best = |memo: bool| {
        (0..rounds)
            .map(|_| throughput(&w, memo))
            .fold(0.0f64, f64::max)
    };
    let memo = best(true);
    let core = best(false);
    let speedup = memo / core.max(1e-12);
    println!(
        "{{\n  \"bench\": \"eval_throughput\",\n  \"model\": \"alexnet-cifar\",\n  \
         \"distinct_genes\": {distinct},\n  \"repeats\": {repeats},\n  \
         \"memo_candidates_per_sec\": {memo:.1},\n  \
         \"core_candidates_per_sec\": {core:.1},\n  \"speedup\": {speedup:.2}\n}}"
    );
}

/// A deterministic mutation chain: gene `k+1` differs from gene `k` in
/// exactly one position, and no gene repeats, so every candidate misses
/// the memo and the delta arm measures incremental rescoring alone (no
/// RNG, so the workload is identical across runs and machines).
fn mutation_chain(w: &Workload, steps: usize) -> Vec<MacAllocGene> {
    let l = w.model.weight_layer_count();
    let caps: Vec<usize> =
        w.df.programs()
            .iter()
            .map(|p| (p.wt_dup * p.row_groups).clamp(1, 4))
            .collect();
    let mut macros = vec![1usize; l];
    let mut up = vec![true; l];
    let mut chain = Vec::with_capacity(steps + 1);
    chain.push(MacAllocGene::encode(&macros, &vec![None; l]));
    for _ in 0..steps {
        // Reflected mixed-radix Gray code: step the lowest position that
        // can still move in its direction, reversing every position below.
        let mut i = 0;
        loop {
            assert!(i < l, "chain longer than the gene space");
            let next = if up[i] { macros[i] + 1 } else { macros[i] - 1 };
            if (1..=caps[i]).contains(&next) {
                macros[i] = next;
                break;
            }
            up[i] = !up[i];
            i += 1;
        }
        chain.push(MacAllocGene::encode(&macros, &vec![None; l]));
    }
    chain
}

/// Scores the chain with `delta` on in EA-generation-sized batches through
/// one delta session (the evaluator's actual hot path: one session per EA
/// run), each candidate against its predecessor (the first has no parent
/// and seeds retention); with `delta` off, through a plain core loop.
/// Candidates/second and the delta fallback rate.
fn chain_throughput(w: &Workload, chain: &[MacAllocGene], delta: bool) -> (f64, f64) {
    const GENERATION: usize = 32;
    let (eval, core) = (evaluator(w), core(w));
    let ctx = ExploreContext::unobserved();
    let start = Instant::now();
    if delta {
        let mut session = DeltaSession::new(&w.df, w.point);
        for (k, batch) in chain.chunks(GENERATION).enumerate() {
            let done = k * GENERATION;
            let parents: Vec<Option<&MacAllocGene>> = (done..done + batch.len())
                .map(|i| i.checked_sub(1).map(|p| &chain[p]))
                .collect();
            black_box(eval.score_batch(&mut session, batch, &parents, &ctx));
        }
    } else {
        for gene in chain {
            black_box(core.score(&w.df, w.point, gene));
        }
    }
    let per_sec = chain.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);
    let stats = eval.stats();
    let attempts = stats.delta_hits + stats.delta_fallbacks;
    let fallback_rate = if attempts == 0 {
        0.0
    } else {
        stats.delta_fallbacks as f64 / attempts as f64
    };
    (per_sec, fallback_rate)
}

fn bench_delta_rescoring(c: &mut Criterion) {
    let quick = quick_mode();
    let (steps, samples) = if quick { (8, 1) } else { (256, 10) };
    let w = workload(1, 1);
    let chain = mutation_chain(&w, steps);

    let mut group = c.benchmark_group("eval_delta");
    group.sample_size(samples);
    group.bench_function("full_chain", |b| {
        b.iter(|| chain_throughput(&w, &chain, false))
    });
    group.bench_function("delta_chain", |b| {
        b.iter(|| chain_throughput(&w, &chain, true))
    });
    group.finish();

    let rounds = if quick { 1 } else { 3 };
    let best = |delta: bool| {
        (0..rounds)
            .map(|_| chain_throughput(&w, &chain, delta))
            .fold((0.0f64, 0.0f64), |acc, r| if r.0 > acc.0 { r } else { acc })
    };
    let (full, _) = best(false);
    let (delta, fallback_rate) = best(true);
    let speedup = delta / full.max(1e-12);
    println!(
        "{{\n  \"bench\": \"eval_delta\",\n  \"model\": \"alexnet-cifar\",\n  \
         \"chain_length\": {},\n  \
         \"full_candidates_per_sec\": {full:.1},\n  \
         \"delta_candidates_per_sec\": {delta:.1},\n  \
         \"speedup\": {speedup:.2},\n  \"delta_fallback_rate\": {fallback_rate:.4}\n}}",
        chain.len()
    );
}

criterion_group!(benches, bench_eval_throughput, bench_delta_rescoring);
criterion_main!(benches);
