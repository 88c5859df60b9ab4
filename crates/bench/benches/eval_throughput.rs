//! Evaluator-throughput benchmark: candidates scored per second with the
//! memo cache on vs off, on a repeated-gene workload (the shape EA
//! generations actually produce — tournament winners resurface unmutated,
//! and mutations frequently recreate previously seen genes), plus a
//! backend-comparison case scoring the same batches through the inline,
//! thread-pool and (when `PIMSYN_WORKER_BIN` points at a built `pimsyn`
//! binary) subprocess backends.
//!
//! Besides the criterion timings, the bench computes each arm's throughput
//! directly and prints `BENCH_eval` / `BENCH_backend` / `BENCH_delta` JSON
//! summaries; set `PIMSYN_BENCH_SAVE=<path>` /
//! `PIMSYN_BENCH_SAVE_BACKEND=<path>` / `PIMSYN_BENCH_SAVE_DELTA=<path>` to
//! also write them to files (the committed `BENCH_eval.json` /
//! `BENCH_backend.json` / `BENCH_delta.json` baselines were recorded this
//! way). Pass `--quick` (the CI smoke mode) to run a single small round
//! that merely proves the hot paths compile and execute.
//!
//! The delta case scores a mutation *chain* — every gene differs from its
//! predecessor in exactly one position, the per-child diff the EA hot loop
//! produces — once through plain full scoring and once through
//! parent-aware delta rescoring, with the memo cache off in both arms so
//! the comparison isolates the incremental-recomputation win.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams, MacroMode, Watts};
use pimsyn_dse::{
    BackendKind, CandidateEvaluator, ChunkPolicy, DeltaSession, DesignPoint, EvalBackend,
    EvalBackendConfig, EvalCacheConfig, EvalCore, EvalJob, ExploreContext, MacAllocGene, Objective,
    RemoteBackend, RemotePool,
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

/// The wire-microbenchmark workload for the v1-vs-v2 framing comparison:
/// a minimal single-weight-layer model at an unbuildable design point
/// (`ratio_rram = 0`, no RRAM capacity to allocate), so the worker's
/// component allocation early-outs and every candidate answers INFEASIBLE
/// in nanoseconds. The request/response bytes still cross the wire in
/// full; what the arms measure is serialization and framing — the thing
/// that differs between the protocols — not the evaluator work that is
/// identical on both.
fn micro_workload(distinct: usize, repeats: usize) -> Workload {
    let mut b = pimsyn_model::ModelBuilder::new("micro", pimsyn_model::TensorShape::new(3, 8, 8));
    b.conv("conv1", None, 4, 3, 1, 1);
    let mut w = workload_for(
        b.build().expect("static micro definition is valid"),
        distinct,
        repeats,
    );
    w.point.ratio_rram = 0.0;
    w
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

/// Scores the workload in EA-generation-sized batches through the given
/// backend with the candidate memo off (every request computes), measuring
/// the raw scoring path each backend parallelizes; candidates/second.
fn backend_throughput(w: &Workload, backend: &EvalBackendConfig) -> f64 {
    backend_throughput_batched(w, backend, 16)
}

/// Like [`backend_throughput`] with a caller-chosen `score_batch` size,
/// measuring *steady-state* throughput over a warm session. The remote
/// arms use this: the pool sends one count-balanced chunk per connection,
/// so batch size is exchange size, and comparing wire framings requires
/// excluding the dial/handshake/init setup — byte-identical JSON lines on
/// both wires — that a cross-job persistent connection pays once.
fn backend_throughput_batched(w: &Workload, backend: &EvalBackendConfig, batch: usize) -> f64 {
    let eval = CandidateEvaluator::with_backend(
        &w.model,
        POWER,
        &w.hw,
        MacroMode::Specialized,
        Objective::PowerEfficiency,
        EvalCacheConfig::disabled(),
        backend,
    );
    let ctx = ExploreContext::unobserved();
    // Warm-up exchange: dials, negotiates and opens the session.
    black_box(eval.score_batch(&w.df, w.point, &w.genes[..batch.min(w.genes.len())], &ctx));
    let start = Instant::now();
    for batch in w.genes.chunks(batch) {
        black_box(eval.score_batch(&w.df, w.point, batch, &ctx));
    }
    w.genes.len() as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

/// Starts a loopback worker daemon capped at the given wire-protocol
/// ceiling and returns the remote backend config dialing it plus the
/// daemon handle (kept alive for the arm's lifetime).
fn remote_arm(protocol_max: Option<u32>) -> (EvalBackendConfig, pimsyn::WorkerServeHandle, String) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let daemon = pimsyn::serve_workers_in_background(
        listener,
        pimsyn::WorkerServeConfig {
            slots: 1,
            quiet: true,
            protocol_max,
            ..Default::default()
        },
    )
    .expect("start worker daemon");
    let addr = daemon.addr().to_string();
    let cfg = EvalBackendConfig::new(BackendKind::Remote {
        endpoints: vec![addr.clone()],
    });
    (cfg, daemon, addr)
}

/// One loopback daemon for the straggler case, whose only significant
/// per-candidate cost is the injected `job_delay` — so the fleet imbalance
/// is a controlled constant instead of scheduler luck.
fn straggler_daemon(job_delay: Duration) -> (pimsyn::WorkerServeHandle, String) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let daemon = pimsyn::serve_workers_in_background(
        listener,
        pimsyn::WorkerServeConfig {
            slots: 1,
            quiet: true,
            faults: pimsyn::FaultInjection {
                job_delay: Some(job_delay),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("start worker daemon");
    let addr = daemon.addr().to_string();
    (daemon, addr)
}

/// Average wall-clock seconds per batch over a warm fleet under the given
/// chunk policy, plus the straggler pieces requeued while measuring. A
/// fresh private pool per call so the two policies never share throughput
/// estimates; the warm-up batch (excluded from timing) dials, opens
/// sessions and seeds the EWMA.
fn straggler_seconds_per_batch(
    w: &Workload,
    endpoints: &[String],
    policy: ChunkPolicy,
    batch: usize,
    rounds: usize,
) -> (f64, usize) {
    let pool = RemotePool::new(endpoints.to_vec(), None);
    let backend = RemoteBackend::with_pool_policy(std::sync::Arc::clone(&pool), policy);
    let core = EvalCore::new(
        &w.model,
        POWER,
        &w.hw,
        MacroMode::Specialized,
        Objective::PowerEfficiency,
        EvalCacheConfig::disabled(),
    );
    let jobs: Vec<EvalJob<'_>> = w.genes[..batch.min(w.genes.len())]
        .iter()
        .map(|gene| EvalJob {
            df: &w.df,
            point: w.point,
            gene,
        })
        .collect();
    black_box(backend.score_batch(&core, &jobs, &|| false));
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(backend.score_batch(&core, &jobs, &|| false));
    }
    let per_batch = start.elapsed().as_secs_f64() / rounds.max(1) as f64;
    let requeues = pool.fleet_snapshot().requeued_pieces;
    backend.flush();
    (per_batch, requeues)
}

fn bench_backend_comparison(c: &mut Criterion) {
    let quick = quick_mode();
    let (distinct, repeats, samples) = if quick { (4, 2, 1) } else { (16, 4, 10) };
    let w = workload(distinct, repeats);
    let inline_cfg = EvalBackendConfig::inline();
    let threads_cfg = EvalBackendConfig::new(BackendKind::ThreadPool { workers: 0 });
    // The subprocess arm needs a real worker binary; benches have no
    // CARGO_BIN_EXE, so it only runs when the caller points at one.
    let subprocess_cfg = std::env::var("PIMSYN_WORKER_BIN").ok().map(|bin| {
        EvalBackendConfig::new(BackendKind::Subprocess { workers: 2 }).with_worker_command(bin)
    });
    // The remote arms compare the two wire framings over loopback against
    // in-process daemons: v1 (JSON text both ways) vs v2 (binary frames).
    // Single-slot daemons so every `score_batch` is exactly one exchange,
    // a near-free micro model in large batches so the dial/session setup,
    // the per-exchange round trip and the evaluator work — all identical
    // for both framings — amortize away, and the measured difference is
    // the framing itself.
    let (remote_batch, remote_repeats) = if quick { (8, 4) } else { (256, 256) };
    let rw = micro_workload(distinct, remote_repeats);
    let (remote_v1_cfg, v1_daemon, v1_addr) = remote_arm(Some(1));
    let (remote_v2_cfg, v2_daemon, v2_addr) = remote_arm(None);

    let mut group = c.benchmark_group("eval_backend");
    group.sample_size(samples);
    group.bench_function("inline", |b| b.iter(|| backend_throughput(&w, &inline_cfg)));
    group.bench_function("threads", |b| {
        b.iter(|| backend_throughput(&w, &threads_cfg))
    });
    if let Some(cfg) = &subprocess_cfg {
        group.bench_function("subprocess", |b| b.iter(|| backend_throughput(&w, cfg)));
    }
    group.bench_function("remote_v1", |b| {
        b.iter(|| backend_throughput_batched(&rw, &remote_v1_cfg, remote_batch))
    });
    group.bench_function("remote_v2", |b| {
        b.iter(|| backend_throughput_batched(&rw, &remote_v2_cfg, remote_batch))
    });
    group.finish();

    let rounds = if quick { 1 } else { 3 };
    let best = |cfg: &EvalBackendConfig| {
        (0..rounds)
            .map(|_| backend_throughput(&w, cfg))
            .fold(0.0f64, f64::max)
    };
    // Median of more rounds than the local arms: loopback throughput on a
    // one-core box is bimodal (whether the kernel coalesces the v1
    // server's per-response packets is scheduler luck), so a best-of
    // statistic would let a single lucky round define the baseline. The
    // median is the steady-state number.
    let remote_rounds = if quick { 1 } else { 7 };
    let best_remote = |cfg: &EvalBackendConfig| {
        let mut rates: Vec<f64> = (0..remote_rounds)
            .map(|_| backend_throughput_batched(&rw, cfg, remote_batch))
            .collect();
        rates.sort_by(|a, b| a.total_cmp(b));
        rates[rates.len() / 2]
    };
    let inline = best(&inline_cfg);
    let threads = best(&threads_cfg);
    let subprocess = subprocess_cfg.as_ref().map(&best);
    let remote_inline = best_remote(&inline_cfg);
    let remote_v1 = best_remote(&remote_v1_cfg);
    let remote_v2 = best_remote(&remote_v2_cfg);

    // Straggler case: a two-worker fleet where one endpoint answers each
    // candidate 10× slower (injected per-job delay, so the imbalance is a
    // controlled constant). Count-balanced chunking hands both workers half
    // the batch and wall-clock tracks the slow half; adaptive weighting
    // shrinks the slow worker's chunk to its EWMA share and piece requeue
    // lets the fast connection drain whatever tail is still queued behind
    // the straggler.
    let (fast_daemon, fast_addr) = straggler_daemon(Duration::from_micros(50));
    let (slow_daemon, slow_addr) = straggler_daemon(Duration::from_micros(500));
    let fleet = vec![fast_addr.clone(), slow_addr.clone()];
    let (sbatch, srounds) = if quick { (16, 2) } else { (64, 8) };
    let sbatch = sbatch.min(rw.genes.len());
    let (balanced_s, _) =
        straggler_seconds_per_batch(&rw, &fleet, ChunkPolicy::CountBalanced, sbatch, srounds);
    let (adaptive_s, straggler_requeues) =
        straggler_seconds_per_batch(&rw, &fleet, ChunkPolicy::Adaptive, sbatch, srounds);
    let straggler_speedup = balanced_s / adaptive_s.max(1e-12);
    let subprocess_json = subprocess
        .map(|t| format!("{t:.1}"))
        .unwrap_or_else(|| "null".to_string());
    // Parallel backends only pay off with cores to spread over; record the
    // machine width so the baseline is interpretable (on a 1-core box the
    // thread/subprocess arms measure pure coordination overhead).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"eval_backend\",\n  \"model\": \"alexnet-cifar\",\n  \
         \"cores\": {cores},\n  \"batch_size\": 16,\n  \"candidates\": {},\n  \
         \"inline_candidates_per_sec\": {inline:.1},\n  \
         \"threads_candidates_per_sec\": {threads:.1},\n  \
         \"subprocess_candidates_per_sec\": {subprocess_json},\n  \
         \"remote_model\": \"micro\",\n  \
         \"remote_batch_size\": {remote_batch},\n  \"remote_candidates\": {},\n  \
         \"remote_inline_candidates_per_sec\": {remote_inline:.1},\n  \
         \"remote_v1_candidates_per_sec\": {remote_v1:.1},\n  \
         \"remote_v2_candidates_per_sec\": {remote_v2:.1},\n  \
         \"straggler_batch_size\": {sbatch},\n  \
         \"straggler_count_balanced_ms_per_batch\": {:.2},\n  \
         \"straggler_adaptive_ms_per_batch\": {:.2},\n  \
         \"straggler_requeued_pieces\": {straggler_requeues},\n  \
         \"straggler_speedup\": {straggler_speedup:.2},\n  \
         \"threads_speedup\": {:.2},\n  \"remote_v2_speedup\": {:.2}\n}}",
        w.genes.len(),
        rw.genes.len(),
        balanced_s * 1e3,
        adaptive_s * 1e3,
        threads / inline.max(1e-12),
        remote_v2 / remote_v1.max(1e-12)
    );
    println!("{json}");
    if let Ok(path) = std::env::var("PIMSYN_BENCH_SAVE_BACKEND") {
        std::fs::write(&path, format!("{json}\n")).expect("write backend baseline");
        println!("(baseline written to {path})");
    }
    let _ = pimsyn::stop_worker_server(&v1_addr, None);
    let _ = pimsyn::stop_worker_server(&v2_addr, None);
    let _ = pimsyn::stop_worker_server(&fast_addr, None);
    let _ = pimsyn::stop_worker_server(&slow_addr, None);
    let _ = v1_daemon.join();
    let _ = v2_daemon.join();
    let _ = fast_daemon.join();
    let _ = slow_daemon.join();
}

criterion_group!(
    benches,
    bench_eval_throughput,
    bench_delta_rescoring,
    bench_backend_comparison
);
criterion_main!(benches);
