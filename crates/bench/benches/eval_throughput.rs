//! Evaluator-throughput benchmark: candidates scored per second with the
//! memo cache on vs off, on a repeated-gene workload (the shape EA
//! generations actually produce — tournament winners resurface unmutated,
//! and mutations frequently recreate previously seen genes).
//!
//! Besides the criterion timings, the bench computes each arm's throughput
//! directly and prints `BENCH_eval` / `BENCH_delta` JSON summaries; set
//! `PIMSYN_BENCH_SAVE=<path>` / `PIMSYN_BENCH_SAVE_DELTA=<path>` to also
//! write them to files (the committed `BENCH_eval.json` /
//! `BENCH_delta.json` baselines were recorded this way). Pass `--quick`
//! (the CI smoke mode) to run a single small round that merely proves the
//! hot paths compile and execute.
//!
//! The delta case scores a mutation *chain* — every gene differs from its
//! predecessor in exactly one position, the per-child diff the EA hot loop
//! produces — once through plain full scoring and once through
//! parent-aware delta rescoring, with the memo cache off in both arms so
//! the comparison isolates the incremental-recomputation win.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams, MacroMode, Watts};
use pimsyn_dse::{
    CandidateEvaluator, DeltaSession, DesignPoint, EvalCacheConfig, ExploreContext, MacAllocGene,
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

fn evaluator<'a>(w: &'a Workload, config: EvalCacheConfig) -> CandidateEvaluator<'a> {
    CandidateEvaluator::new(
        &w.model,
        POWER,
        &w.hw,
        MacroMode::Specialized,
        Objective::PowerEfficiency,
        config,
    )
}

/// Scores the whole workload once on a fresh evaluator; candidates/second.
fn throughput(w: &Workload, config: EvalCacheConfig) -> f64 {
    let eval = evaluator(w, config);
    let ctx = ExploreContext::unobserved();
    let start = Instant::now();
    for gene in &w.genes {
        black_box(eval.score(&w.df, w.point, gene, &ctx));
    }
    w.genes.len() as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

fn bench_eval_throughput(c: &mut Criterion) {
    let quick = quick_mode();
    let (distinct, repeats, samples) = if quick { (4, 2, 1) } else { (16, 8, 10) };
    let w = workload(distinct, repeats);

    let mut group = c.benchmark_group("eval_throughput");
    group.sample_size(samples);
    group.bench_function("cache_on", |b| {
        b.iter(|| throughput(&w, EvalCacheConfig::enabled()))
    });
    group.bench_function("cache_off", |b| {
        b.iter(|| throughput(&w, EvalCacheConfig::disabled()))
    });
    group.finish();

    // Direct throughput comparison (best of a few rounds per arm, so the
    // JSON baseline is stable against scheduler noise).
    let rounds = if quick { 1 } else { 3 };
    let best = |config: EvalCacheConfig| {
        (0..rounds)
            .map(|_| throughput(&w, config))
            .fold(0.0f64, f64::max)
    };
    let on = best(EvalCacheConfig::enabled());
    let off = best(EvalCacheConfig::disabled());
    let speedup = on / off.max(1e-12);
    let json = format!(
        "{{\n  \"bench\": \"eval_throughput\",\n  \"model\": \"alexnet-cifar\",\n  \
         \"distinct_genes\": {distinct},\n  \"repeats\": {repeats},\n  \
         \"cache_on_candidates_per_sec\": {on:.1},\n  \
         \"cache_off_candidates_per_sec\": {off:.1},\n  \"speedup\": {speedup:.2}\n}}"
    );
    println!("{json}");
    if let Ok(path) = std::env::var("PIMSYN_BENCH_SAVE") {
        std::fs::write(&path, format!("{json}\n")).expect("write bench baseline");
        println!("(baseline written to {path})");
    }
}

/// A deterministic mutation chain: gene `k+1` differs from gene `k` in
/// exactly one position (no RNG, so the workload is identical across runs
/// and machines).
fn mutation_chain(w: &Workload, steps: usize) -> Vec<MacAllocGene> {
    let l = w.model.weight_layer_count();
    let caps: Vec<usize> =
        w.df.programs()
            .iter()
            .map(|p| (p.wt_dup * p.row_groups).clamp(1, 4))
            .collect();
    let mut macros = vec![1usize; l];
    let mut chain = Vec::with_capacity(steps + 1);
    chain.push(MacAllocGene::encode(&macros, &vec![None; l]));
    for k in 0..steps {
        let i = k % l;
        macros[i] = 1 + (macros[i] + k * 13) % caps[i];
        chain.push(MacAllocGene::encode(&macros, &vec![None; l]));
    }
    chain
}

/// Scores the chain in EA-generation-sized batches through one delta
/// session (the evaluator's actual hot path: one session per EA run), each
/// candidate against its predecessor when `delta` is on (the first is
/// self-parented, seeding retention); candidates/second. The memo cache
/// stays off in both arms.
fn chain_throughput(w: &Workload, chain: &[MacAllocGene], delta: bool) -> (f64, f64) {
    const GENERATION: usize = 32;
    let config = if delta {
        EvalCacheConfig::disabled().with_delta(true)
    } else {
        EvalCacheConfig::disabled()
    };
    let eval = evaluator(w, config);
    let ctx = ExploreContext::unobserved();
    let mut session = DeltaSession::new(&w.df, w.point);
    let start = Instant::now();
    let mut done = 0usize;
    while done < chain.len() {
        let batch = &chain[done..chain.len().min(done + GENERATION)];
        if delta {
            let parents: Vec<Option<&MacAllocGene>> = (0..batch.len())
                .map(|i| Some(&chain[(done + i).saturating_sub(1)]))
                .collect();
            black_box(eval.score_batch_with_parents(&mut session, batch, &parents, &ctx));
        } else {
            black_box(eval.score_batch(&w.df, w.point, batch, &ctx));
        }
        done += batch.len();
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
    let json = format!(
        "{{\n  \"bench\": \"eval_delta\",\n  \"model\": \"alexnet-cifar\",\n  \
         \"chain_length\": {},\n  \
         \"full_candidates_per_sec\": {full:.1},\n  \
         \"delta_candidates_per_sec\": {delta:.1},\n  \
         \"speedup\": {speedup:.2},\n  \"delta_fallback_rate\": {fallback_rate:.4}\n}}",
        chain.len()
    );
    println!("{json}");
    if let Ok(path) = std::env::var("PIMSYN_BENCH_SAVE_DELTA") {
        std::fs::write(&path, format!("{json}\n")).expect("write delta baseline");
        println!("(baseline written to {path})");
    }
}

criterion_group!(benches, bench_eval_throughput, bench_delta_rescoring);
criterion_main!(benches);
