//! The PIMSYN command-line tool: one-click transformation of a CNN
//! description into a PIM accelerator implementation report.
//!
//! ```text
//! pimsyn --model vgg16 --power 65 --effort fast
//! pimsyn --model-file net.json --power 9 --seed 7 --cycle 2
//! pimsyn --model alexnet-cifar --power 9 --strategy woho --no-sharing
//! pimsyn --model resnet18-cifar --power 15 --objective edp --macros identical
//! pimsyn --model alexnet-cifar --power 9 --output json
//! pimsyn --model vgg16 --power 65 --effort paper --timeout 120 --max-evals 20000
//! pimsyn --batch jobs.json --output json
//! pimsyn zoo --describe mobilenet
//! pimsyn export pimsim --model transformer-tiny --power 6 --pretty
//! ```
//!
//! `--model` accepts any zoo name (`pimsyn zoo` lists them all, classic
//! CNNs and the modern depthwise/SE/attention additions alike);
//! `--model-file` reads the ONNX-style JSON format of `pimsyn_model::onnx`.
//!
//! While a job runs, live progress (design points explored, new bests)
//! streams to stderr; stdout carries only the final report, so both output
//! formats pipe cleanly.

use std::process::ExitCode;
use std::time::Duration;

use pimsyn::{
    BackendKind, CancelToken, ChannelSink, Effort, EvalCacheConfig, EvaluatorStats, MacroMode,
    Objective, ServiceClient, ServiceConfig, SynthesisEngine, SynthesisError, SynthesisEvent,
    SynthesisOptions, SynthesisRequest, SynthesisResult, SynthesisService, SynthesisSummary,
};
use pimsyn_arch::Watts;
use pimsyn_model::json::JsonValue;
use pimsyn_model::{onnx, zoo, Model};

/// `println!` for the report on stdout, through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// Writes one line to stdout. A reader that closed the pipe early
/// (`pimsyn zoo | head -1`) wants no more output, so a broken pipe ends
/// the process quietly with exit 0; any other write error exits 1.
fn write_stdout(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = writeln!(stdout, "{line}").and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

#[derive(Debug, Clone, PartialEq)]
enum OutputFormat {
    Text,
    Json,
}

#[derive(Debug, Clone)]
struct Args {
    model: Option<String>,
    model_file: Option<String>,
    hw_file: Option<String>,
    batch_file: Option<String>,
    power: f64,
    effort: Effort,
    strategy: WtDupStrategyArg,
    objective: Objective,
    macro_mode: MacroMode,
    sharing: bool,
    seed: u64,
    cycle_images: usize,
    timeout: Option<Duration>,
    max_evals: Option<usize>,
    max_unique_evals: Option<usize>,
    eval_cache: bool,
    eval_cache_capacity: Option<usize>,
    eval_cache_file: Option<String>,
    eval_cache_max_entries: Option<usize>,
    backend: BackendKind,
    remote_token_file: Option<String>,
    output: OutputFormat,
    quiet: bool,
    help: bool,
}

/// CLI-level strategy selector (the library type carries vectors for the
/// `Fixed` variant, which the CLI does not expose).
#[derive(Debug, Clone, PartialEq)]
enum WtDupStrategyArg {
    Sa,
    Woho,
    None,
}

impl WtDupStrategyArg {
    fn to_strategy(&self) -> pimsyn::WtDupStrategy {
        match self {
            WtDupStrategyArg::Sa => pimsyn::WtDupStrategy::SimulatedAnnealing,
            WtDupStrategyArg::Woho => pimsyn::WtDupStrategy::WohoProportional,
            WtDupStrategyArg::None => pimsyn::WtDupStrategy::NoDuplication,
        }
    }
}

const USAGE: &str = "\
pimsyn — synthesize a processing-in-memory CNN accelerator

USAGE:
  pimsyn --model <zoo-name> --power <watts> [options]
  pimsyn --model-file <net.json> --power <watts> [options]
  pimsyn --batch <jobs.json> [options]
  pimsyn zoo [--describe <name>] [--validate [<name>]] [--output <text|json>]
  pimsyn export pimsim (--model <name> | --model-file <path>) --power <watts>
                [--pretty] [--out <path>] [synthesis options]
  pimsyn serve --listen <host:port> [--job-slots N] [--queue-depth N]
               [--backend <spec>] [--worker-registry <host:port>]
               [--remote-token-file <path>]
               [--eval-cache-file <path>] [--eval-cache-max-entries <n>]
               [--auth-token-file <path>] [--quiet]
  pimsyn gateway --listen <host:port> [--keys <tenants.json>]
                 [--scheduler <fifo|fair>] [--job-slots N] [--queue-depth N]
                 [--backend <spec>] [--worker-registry <host:port>]
                 [--remote-token-file <path>]
                 [--eval-cache-file <path>] [--eval-cache-max-entries <n>]
                 [--quiet]
  pimsyn submit --connect <host:port> --model <name> --power <watts> [options]
  pimsyn status|result|cancel --connect <host:port> --id <job-id>
  pimsyn shutdown|drain --connect <host:port>
  pimsyn worker-serve --listen <host:port> [--slots N]
                      [--announce <host:port>] [--protocol-max <n>]
                      [--auth-token-file <path>] [--quiet]
  pimsyn worker-stop --connect <host:port> [--auth-token-file <path>]

OPTIONS:
  --model <name>        bundled zoo model; `pimsyn zoo` lists every name
                        (classic CNNs plus mobilenet, resnet18-se,
                        transformer-tiny)
  --model-file <path>   ONNX-style JSON model description
  --batch <path>        JSON array of jobs, e.g.
                        [{\"model\": \"alexnet-cifar\", \"power\": 9}, ...];
                        each job may override effort/seed/strategy/objective/
                        macros/sharing/cycle/timeout/max-evals and carry a label
  --hw-file <path>      hardware setup parameters (JSON; Table III defaults)
  --power <watts>       total power constraint (required outside --batch;
                        with --batch, the default for jobs without `power`)
  --effort <fast|paper> search effort (default: fast)
  --strategy <sa|woho|none>  weight-duplication strategy (default: sa)
  --objective <eff|edp> optimization objective (default: eff)
  --macros <specialized|identical>  macro mode (default: specialized)
  --no-sharing          disable inter-layer macro sharing
  --seed <u64>          RNG seed (default: the library default; the flow is
                        fully deterministic given the seed)
  --cycle <images>      validate with the cycle-accurate engine
  --timeout <secs>      stop exploring after this long, keeping the best
                        implementation found so far
  --max-evals <n>       bound candidate-architecture evaluations
  --max-unique-evals <n>  bound unique evaluations (memo misses; with a warm
                        cache, far fewer than scored candidates)
  --eval-cache <on|off> memoize candidate evaluations (default: on; results
                        are bit-identical either way, off recomputes all)
  --eval-cache-capacity <n>  bound memo-cache entries (default: 65536)
  --eval-cache-file <path>  persist the evaluation memo across runs: loaded
                        before the search when its fingerprint (model, hw,
                        power, objective) matches, rewritten afterwards
  --eval-cache-max-entries <n>  cap candidate-score entries written per run
                        section of the cache file (oldest trimmed first), so
                        long sweeps stop growing the file without bound
  --backend <spec>      where candidate scoring runs: inline (default),
                        threads[:N] (scoped thread pool), subprocess[:N]
                        (pimsyn --worker child processes), or
                        remote:host:port[,host:port...] (pimsyn worker-serve
                        daemons over TCP); results are bit-identical across
                        backends
  --remote-token-file <path>  shared auth token presented to the remote
                        worker daemons (requires --backend remote:...)
  --output <text|json>  report format on stdout (default: text)
  --quiet               suppress live progress on stderr
  --help                print this message

`pimsyn serve` runs a long-lived synthesis daemon: submitted jobs queue
behind a bounded FIFO, share one subprocess worker pool and one warm
evaluation cache, and are addressed by id through the submit/status/
result/cancel/shutdown subcommands (a versioned JSON-lines TCP protocol).
The daemon's --backend / --eval-cache-file flags decide where every
submitted job's scoring runs; submit-side flags describe the job itself.
With --auth-token-file, every request must carry the shared token (clients
pass the same flag); `pimsyn drain` stops intake, finishes queued and
running jobs, and exits the daemon cleanly.

`pimsyn gateway` runs the same daemon behind a plain HTTP/1.1 REST API
(POST /v1/jobs, GET /v1/jobs/<id>[/result|/events], DELETE /v1/jobs/<id>,
GET /metrics for Prometheus, POST /v1/drain) — see docs/PROTOCOLS.md.
--keys installs per-tenant API keys (Authorization: Bearer), quotas and
scheduling weights; the scheduler then defaults to weighted-fair
round-robin across tenants instead of global FIFO (--scheduler overrides
either way; results are bit-identical under both policies). The keys file
is re-read whenever it changes on disk, so keys rotate on a live gateway:
added keys authenticate the very next request, removed keys get 401.

Both daemons accept --worker-registry <host:port>: a second listener where
`pimsyn worker-serve --announce` daemons register, heartbeat and
deregister. Registered workers join the remote scoring fleet dynamically
(connections persist across jobs); workers that miss heartbeats are
evicted and their in-flight chunks recomputed inline, never changing
results. Registry messages authenticate with the --remote-token-file
shared secret — the same token file the workers' --auth-token-file names.

`pimsyn worker-serve` runs a long-lived evaluation-worker daemon: each
accepted TCP connection (version-checked, optionally token-authenticated,
up to --slots concurrently) serves one worker session for a `--backend
remote:...` run on another machine. The actually-bound address — including
the resolved port for --listen HOST:0 — prints to stderr on startup;
`pimsyn worker-stop` asks the daemon to exit. With --announce the daemon
registers itself with a `pimsyn serve`/`pimsyn gateway` started with
--worker-registry, heartbeats to stay listed, and deregisters on exit —
the serving daemon then discovers workers dynamically instead of needing a
static remote:host:port roster (with --worker-registry and no explicit
--backend, the daemon's backend is the announced fleet). --protocol-max
caps the negotiated worker-protocol version (for mixed-version fleets and
downgrade testing); results are bit-identical across protocol versions.

`pimsyn zoo` inspects the bundled model zoo: with no flags it lists every
model with a one-line description; --describe prints one model's layer
stats; --validate rebuilds each model (or just the named one) and checks
its ONNX-JSON round trip, exiting nonzero on any failure (the CI smoke
step); --output json emits the listing machine-readably.

`pimsyn export pimsim` synthesizes an accelerator exactly like the plain
single-job flow (same --model/--model-file/--power and search options,
bit-identical results) and then emits a PIMSIM-NN configuration document
on stdout (or --out <path>) instead of a report: the workload, the
synthesized per-layer mapping and PIMSYN's expected metrics, ready for
cross-simulator validation. --pretty indents the JSON for humans; the
field-by-field schema is documented in docs/ARCHITECTURE.md.

`pimsyn --worker` (no other flags) runs the evaluation-worker protocol on
stdin/stdout; it is spawned by `--backend subprocess` and not meant for
interactive use.";

fn parse_args_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        model: None,
        model_file: None,
        hw_file: None,
        batch_file: None,
        power: 0.0,
        effort: Effort::Fast,
        strategy: WtDupStrategyArg::Sa,
        objective: Objective::PowerEfficiency,
        macro_mode: MacroMode::Specialized,
        sharing: true,
        seed: SynthesisOptions::DEFAULT_SEED,
        cycle_images: 0,
        timeout: None,
        max_evals: None,
        max_unique_evals: None,
        eval_cache: true,
        eval_cache_capacity: None,
        eval_cache_file: None,
        eval_cache_max_entries: None,
        backend: BackendKind::Inline,
        remote_token_file: None,
        output: OutputFormat::Text,
        quiet: false,
        help: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--model" => args.model = Some(value("--model")?),
            "--model-file" => args.model_file = Some(value("--model-file")?),
            "--hw-file" => args.hw_file = Some(value("--hw-file")?),
            "--batch" => args.batch_file = Some(value("--batch")?),
            "--power" => {
                args.power = value("--power")?
                    .parse()
                    .map_err(|e| format!("bad --power: {e}"))?
            }
            "--effort" => args.effort = parse_effort(&value("--effort")?)?,
            "--strategy" => args.strategy = parse_strategy(&value("--strategy")?)?,
            "--objective" => args.objective = parse_objective(&value("--objective")?)?,
            "--macros" => args.macro_mode = parse_macro_mode(&value("--macros")?)?,
            "--no-sharing" => args.sharing = false,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--cycle" => {
                args.cycle_images = value("--cycle")?
                    .parse()
                    .map_err(|e| format!("bad --cycle: {e}"))?
            }
            "--timeout" => {
                let secs: f64 = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                args.timeout = Some(timeout_duration(secs).map_err(|e| format!("--timeout {e}"))?);
            }
            "--max-evals" => {
                let n: usize = value("--max-evals")?
                    .parse()
                    .map_err(|e| format!("bad --max-evals: {e}"))?;
                if n == 0 {
                    return Err("--max-evals must be at least 1".to_string());
                }
                args.max_evals = Some(n);
            }
            "--max-unique-evals" => {
                let n: usize = value("--max-unique-evals")?
                    .parse()
                    .map_err(|e| format!("bad --max-unique-evals: {e}"))?;
                if n == 0 {
                    return Err("--max-unique-evals must be at least 1".to_string());
                }
                args.max_unique_evals = Some(n);
            }
            "--eval-cache-file" => args.eval_cache_file = Some(value("--eval-cache-file")?),
            "--eval-cache-max-entries" => {
                let n: usize = value("--eval-cache-max-entries")?
                    .parse()
                    .map_err(|e| format!("bad --eval-cache-max-entries: {e}"))?;
                if n == 0 {
                    return Err("--eval-cache-max-entries must be at least 1".to_string());
                }
                args.eval_cache_max_entries = Some(n);
            }
            "--backend" => {
                args.backend = BackendKind::parse(&value("--backend")?)
                    .map_err(|e| format!("bad --backend: {e}"))?
            }
            "--remote-token-file" => args.remote_token_file = Some(value("--remote-token-file")?),
            "--eval-cache" => {
                args.eval_cache = match value("--eval-cache")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("unknown --eval-cache value `{other}`")),
                }
            }
            "--eval-cache-capacity" => {
                let n: usize = value("--eval-cache-capacity")?
                    .parse()
                    .map_err(|e| format!("bad --eval-cache-capacity: {e}"))?;
                if n == 0 {
                    return Err("--eval-cache-capacity must be at least 1".to_string());
                }
                args.eval_cache_capacity = Some(n);
            }
            "--output" => {
                args.output = match value("--output")?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => return Err(format!("unknown output format `{other}`")),
                }
            }
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                args.help = true;
                return Ok(args);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // Persistence serializes the memo; with the memo off there is nothing
    // to load or save, so the combination is a mistake, not a no-op.
    if !args.eval_cache && args.eval_cache_file.is_some() {
        return Err(
            "--eval-cache-file requires the evaluation cache (drop `--eval-cache off`)".to_string(),
        );
    }
    // The entry cap trims what is written to the cache file; without a file
    // it caps nothing.
    if args.eval_cache_max_entries.is_some() && args.eval_cache_file.is_none() {
        return Err("--eval-cache-max-entries requires --eval-cache-file".to_string());
    }
    // The token authenticates remote worker connections; without a remote
    // roster there is nothing to authenticate. In batch mode individual
    // jobs may select a remote backend through their `backend` field, so
    // the flag is accepted there regardless of the top-level backend.
    if args.remote_token_file.is_some()
        && args.batch_file.is_none()
        && !matches!(args.backend, BackendKind::Remote { .. })
    {
        return Err("--remote-token-file requires --backend remote:host:port[,...]".to_string());
    }
    if args.batch_file.is_some() {
        if args.model.is_some() || args.model_file.is_some() {
            return Err("--batch cannot be combined with --model / --model-file".to_string());
        }
        // In batch mode --power is optional; when given it becomes the
        // default for jobs without their own `power` field.
        if args.power != 0.0 && !positive(args.power) {
            return Err("--power must be positive".to_string());
        }
        return Ok(args);
    }
    if !positive(args.power) {
        return Err("--power <watts> is required and must be positive".to_string());
    }
    if args.model.is_some() == args.model_file.is_some() {
        return Err("exactly one of --model / --model-file is required".to_string());
    }
    Ok(args)
}

/// Strictly positive and comparable — rejects NaN alongside zero/negatives.
fn positive(x: f64) -> bool {
    x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
}

/// Validates a timeout in seconds into a `Duration`, rejecting NaN, zero,
/// negatives, and values `Duration::from_secs_f64` would panic on
/// (infinity / overflow). A year bounds any meaningful synthesis run.
fn timeout_duration(secs: f64) -> Result<Duration, String> {
    const MAX_TIMEOUT_SECS: f64 = 365.0 * 24.0 * 3600.0;
    if !positive(secs) {
        return Err("must be positive".to_string());
    }
    if !secs.is_finite() || secs > MAX_TIMEOUT_SECS {
        return Err(format!("must be at most {MAX_TIMEOUT_SECS} seconds"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse_effort(s: &str) -> Result<Effort, String> {
    match s {
        "fast" => Ok(Effort::Fast),
        "paper" => Ok(Effort::Paper),
        other => Err(format!("unknown effort `{other}`")),
    }
}

fn parse_strategy(s: &str) -> Result<WtDupStrategyArg, String> {
    match s {
        "sa" => Ok(WtDupStrategyArg::Sa),
        "woho" => Ok(WtDupStrategyArg::Woho),
        "none" => Ok(WtDupStrategyArg::None),
        other => Err(format!("unknown strategy `{other}`")),
    }
}

fn parse_objective(s: &str) -> Result<Objective, String> {
    match s {
        "eff" => Ok(Objective::PowerEfficiency),
        "edp" => Ok(Objective::EnergyDelayProduct),
        other => Err(format!("unknown objective `{other}`")),
    }
}

fn parse_macro_mode(s: &str) -> Result<MacroMode, String> {
    match s {
        "specialized" => Ok(MacroMode::Specialized),
        "identical" => Ok(MacroMode::Identical),
        other => Err(format!("unknown macro mode `{other}`")),
    }
}

fn load_named_model(name: &str) -> Result<Model, String> {
    zoo::by_name(name).ok_or_else(|| {
        format!(
            "unknown zoo model `{name}` (available: {})",
            zoo::names().join(", ")
        )
    })
}

fn load_model_file(path: &str) -> Result<Model, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    onnx::parse_model(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Builds the synthesis options a set of CLI-level args describes.
fn options_from_args(args: &Args, power: f64) -> Result<SynthesisOptions, String> {
    let mut options = SynthesisOptions::new(Watts(power))
        .with_effort(args.effort)
        .with_strategy(args.strategy.to_strategy())
        .with_objective(args.objective)
        .with_macro_mode(args.macro_mode)
        .with_seed(args.seed);
    if !args.sharing {
        options = options.without_macro_sharing();
    }
    if args.cycle_images > 0 {
        options = options.with_cycle_validation(args.cycle_images);
    }
    if let Some(limit) = args.timeout {
        options = options.with_time_budget(limit);
    }
    if let Some(n) = args.max_evals {
        options = options.with_max_evaluations(n);
    }
    if let Some(n) = args.max_unique_evals {
        options = options.with_max_unique_evaluations(n);
    }
    let mut cache = if args.eval_cache {
        EvalCacheConfig::enabled()
    } else {
        EvalCacheConfig::disabled()
    };
    if let Some(capacity) = args.eval_cache_capacity {
        cache = cache.with_capacity(capacity);
    }
    options = options.with_eval_cache(cache);
    options = options.with_backend(args.backend.clone());
    if let Some(path) = &args.remote_token_file {
        options = options.with_remote_token_file(path);
    }
    if let Some(path) = &args.eval_cache_file {
        options = options.with_eval_cache_file(path);
    }
    if let Some(cap) = args.eval_cache_max_entries {
        options.backend.cache_max_entries = Some(cap);
    }
    if let Some(path) = &args.hw_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let hw =
            pimsyn_arch::hardware_config::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        options = options.with_hardware(hw);
    }
    Ok(options)
}

/// Parses one job object of a `--batch` file into a request, with the
/// CLI-level args as defaults.
fn batch_job_request(
    job: &JsonValue,
    args: &Args,
    index: usize,
) -> Result<SynthesisRequest, String> {
    let at = |detail: String| format!("batch job {index}: {detail}");
    let obj = job
        .as_object()
        .ok_or_else(|| at("expected a JSON object".to_string()))?;
    for (key, _) in obj {
        match key.as_str() {
            "model" | "model-file" | "power" | "effort" | "strategy" | "objective" | "macros"
            | "sharing" | "seed" | "cycle" | "timeout" | "max-evals" | "max-unique-evals"
            | "backend" | "label" => {}
            other => return Err(at(format!("unknown field `{other}`"))),
        }
    }
    let get_str = |key: &str| -> Result<Option<&str>, String> {
        match job.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| at(format!("field `{key}` must be a string"))),
        }
    };
    let get_num = |key: &str| -> Result<Option<f64>, String> {
        match job.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| at(format!("field `{key}` must be a number"))),
        }
    };

    let model = match (get_str("model")?, get_str("model-file")?) {
        (Some(name), None) => load_named_model(name).map_err(at)?,
        (None, Some(path)) => load_model_file(path).map_err(at)?,
        _ => {
            return Err(at(
                "exactly one of `model` / `model-file` is required".to_string()
            ))
        }
    };
    let power = match get_num("power")? {
        Some(p) => p,
        // Fall back to the CLI-level --power, like every other flag.
        None if positive(args.power) => args.power,
        None => {
            return Err(at(
                "field `power` is required (or pass a default via --power)".to_string(),
            ))
        }
    };
    if !positive(power) {
        return Err(at("field `power` must be positive".to_string()));
    }

    let mut job_args = args.clone();
    if let Some(s) = get_str("effort")? {
        job_args.effort = parse_effort(s).map_err(at)?;
    }
    if let Some(s) = get_str("strategy")? {
        job_args.strategy = parse_strategy(s).map_err(at)?;
    }
    if let Some(s) = get_str("objective")? {
        job_args.objective = parse_objective(s).map_err(at)?;
    }
    if let Some(s) = get_str("macros")? {
        job_args.macro_mode = parse_macro_mode(s).map_err(at)?;
    }
    if let Some(v) = job.get("sharing") {
        job_args.sharing = v
            .as_bool()
            .ok_or_else(|| at("field `sharing` must be a boolean".to_string()))?;
    }
    if let Some(n) = get_num("seed")? {
        if n < 0.0 || n.fract() != 0.0 {
            return Err(at("field `seed` must be a non-negative integer".to_string()));
        }
        job_args.seed = n as u64;
    }
    if let Some(n) = get_num("cycle")? {
        if n < 0.0 || n.fract() != 0.0 {
            return Err(at(
                "field `cycle` must be a non-negative integer".to_string()
            ));
        }
        job_args.cycle_images = n as usize;
    }
    if let Some(n) = get_num("timeout")? {
        job_args.timeout =
            Some(timeout_duration(n).map_err(|e| at(format!("field `timeout` {e}")))?);
    }
    if let Some(n) = get_num("max-evals")? {
        // Same rule as the --max-evals flag: a positive integer.
        if n < 1.0 || n.fract() != 0.0 {
            return Err(at(
                "field `max-evals` must be a positive integer".to_string()
            ));
        }
        job_args.max_evals = Some(n as usize);
    }
    if let Some(n) = get_num("max-unique-evals")? {
        if n < 1.0 || n.fract() != 0.0 {
            return Err(at(
                "field `max-unique-evals` must be a positive integer".to_string()
            ));
        }
        job_args.max_unique_evals = Some(n as usize);
    }
    if let Some(s) = get_str("backend")? {
        job_args.backend =
            BackendKind::parse(s).map_err(|e| at(format!("field `backend`: {e}")))?;
    }

    let options = options_from_args(&job_args, power).map_err(at)?;
    let mut request = SynthesisRequest::new(model, options);
    if let Some(label) = get_str("label")? {
        request = request.with_label(label);
    }
    Ok(request)
}

fn load_batch(args: &Args) -> Result<Vec<SynthesisRequest>, String> {
    let path = args.batch_file.as_ref().expect("validated by parse_args");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let jobs = doc
        .as_array()
        .ok_or_else(|| format!("{path}: expected a JSON array of jobs"))?;
    if jobs.is_empty() {
        return Err(format!("{path}: batch is empty"));
    }
    jobs.iter()
        .enumerate()
        .map(|(i, job)| batch_job_request(job, args, i))
        .collect()
}

/// Renders one progress event as a human line for stderr. Returns `None`
/// for events that stay silent at CLI verbosity (per-stage ticks).
///
/// Point/best values are the *objective fitness*, so their unit follows
/// what is optimized (TOPS/W by default, reciprocal EDP under `--objective
/// edp`); the `done:` line always reports TOPS/W.
fn progress_line(event: &SynthesisEvent, objective: Objective) -> Option<String> {
    let unit = match objective {
        Objective::PowerEfficiency => "TOPS/W",
        Objective::EnergyDelayProduct => "1/(ms*mJ)",
    };
    match event {
        SynthesisEvent::JobStarted { job, label } => {
            Some(format!("[job {job}] {label}: started"))
        }
        SynthesisEvent::DesignPointEvaluated {
            job, point, point_index, best_efficiency, evaluations,
        } => Some(format!(
            "  [job {job}] point {point_index} ({point}): {best_efficiency:.3} {unit} after {evaluations} evaluations"
        )),
        SynthesisEvent::ImprovedBest { job, point_index, fitness } => {
            Some(format!("  [job {job}] new best {fitness:.3} {unit} (point {point_index})"))
        }
        SynthesisEvent::Finished { job, efficiency, evaluations, stop_reason, elapsed, error } => {
            Some(match (efficiency, error) {
                (Some(eff), _) => {
                    let reason = stop_reason
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| "completed".to_string());
                    format!(
                        "[job {job}] done: {eff:.3} TOPS/W, {evaluations} evaluations in {:.2} s ({reason})",
                        elapsed.as_secs_f64()
                    )
                }
                (None, Some(msg)) => format!("[job {job}] failed: {msg}"),
                (None, None) => format!("[job {job}] failed"),
            })
        }
        // Per-point cumulative snapshots are too chatty for the CLI; the
        // final snapshot is summarized after the job (see `stats_line`).
        SynthesisEvent::EvaluatorStats { .. } => None,
        SynthesisEvent::StageStarted { .. } | SynthesisEvent::StageFinished { .. } => None,
    }
}

/// Renders the job's final evaluator snapshot for stderr. Printed only
/// without `--quiet`, like every other progress line.
fn stats_line(stats: &EvaluatorStats) -> String {
    let mut line = format!(
        "evaluator: {} candidates scored, {} unique evaluations, {} cache hits ({:.0}% hit rate)",
        stats.scored,
        stats.unique_evaluations,
        stats.cache_hits,
        stats.hit_rate() * 100.0
    );
    if stats.preloaded > 0 {
        line.push_str(&format!(
            ", {} entries warm-started from the cache file",
            stats.preloaded
        ));
    }
    if stats.delta_hits > 0 || stats.delta_fallbacks > 0 {
        line.push_str(&format!(
            "; delta rescoring: {} incremental, {} fallbacks, {} layers recomputed",
            stats.delta_hits, stats.delta_fallbacks, stats.layers_recomputed
        ));
    }
    line
}

/// The job index an event belongs to.
fn event_job(event: &SynthesisEvent) -> usize {
    match event {
        SynthesisEvent::JobStarted { job, .. }
        | SynthesisEvent::StageStarted { job, .. }
        | SynthesisEvent::StageFinished { job, .. }
        | SynthesisEvent::DesignPointEvaluated { job, .. }
        | SynthesisEvent::ImprovedBest { job, .. }
        | SynthesisEvent::EvaluatorStats { job, .. }
        | SynthesisEvent::Finished { job, .. } => *job,
    }
}

fn emit_single(result: &SynthesisResult, output: &OutputFormat) {
    match output {
        OutputFormat::Text => outln!("{}", result.report_text()),
        OutputFormat::Json => outln!("{}", SynthesisSummary::from_result(result).to_json()),
    }
}

fn emit_batch(
    requests: &[SynthesisRequest],
    results: &[Result<SynthesisResult, SynthesisError>],
    output: &OutputFormat,
) {
    match output {
        OutputFormat::Text => {
            for (request, result) in requests.iter().zip(results) {
                outln!("=== job: {} ===", request.display_label());
                match result {
                    Ok(r) => outln!("{}", r.report_text()),
                    Err(e) => outln!("failed: {e}\n"),
                }
            }
        }
        OutputFormat::Json => {
            let jobs: Vec<JsonValue> = requests
                .iter()
                .zip(results)
                .map(|(request, result)| {
                    let mut fields: Vec<(String, JsonValue)> = vec![
                        ("label".into(), JsonValue::String(request.display_label())),
                        ("ok".into(), JsonValue::Bool(result.is_ok())),
                    ];
                    match result {
                        Ok(r) => fields
                            .push(("summary".into(), SynthesisSummary::from_result(r).to_json())),
                        Err(e) => fields.push(("error".into(), JsonValue::String(e.to_string()))),
                    }
                    JsonValue::Object(fields)
                })
                .collect();
            outln!("{}", JsonValue::Array(jobs));
        }
    }
}

fn run_single(args: &Args) -> ExitCode {
    let model = match &args.model {
        Some(name) => load_named_model(name),
        None => load_model_file(args.model_file.as_ref().expect("validated by parse_args")),
    };
    let model = match model {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = match options_from_args(args, args.power) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!("synthesizing {model} under {} W ...", args.power);
    }

    let engine = SynthesisEngine::new();
    let job = engine.spawn(SynthesisRequest::new(model, options));
    let mut last_stats: Option<EvaluatorStats> = None;
    for event in job.events() {
        if let SynthesisEvent::EvaluatorStats { stats, .. } = &event {
            last_stats = Some(*stats);
        }
        if !args.quiet {
            if let Some(line) = progress_line(&event, args.objective) {
                eprintln!("{line}");
            }
        }
    }
    if !args.quiet {
        if let Some(stats) = &last_stats {
            eprintln!("{}", stats_line(stats));
        }
    }
    match job.join() {
        Ok(result) => {
            emit_single(&result, &args.output);
            ExitCode::SUCCESS
        }
        Err(e) => {
            // With progress on, the Finished event already reported the
            // failure; don't print it twice.
            if args.quiet {
                eprintln!("synthesis failed: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run_batch(args: &Args) -> ExitCode {
    let requests = match load_batch(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!("synthesizing batch of {} jobs ...", requests.len());
    }

    let engine = SynthesisEngine::new();
    let cancel = CancelToken::new();
    let (sink, events) = ChannelSink::pair();
    let mut results = Vec::new();
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let out = engine.synthesize_batch_observed(&requests, &sink, &cancel);
            drop(sink); // close the event stream so the printer loop ends
            out
        });
        for event in events {
            if !args.quiet {
                // Jobs can override the objective, so label each line with
                // the objective of the job it belongs to.
                let objective = requests
                    .get(event_job(&event))
                    .map(|r| r.options.objective)
                    .unwrap_or(args.objective);
                if let Some(line) = progress_line(&event, objective) {
                    eprintln!("{line}");
                }
            }
        }
        results = worker.join().expect("batch worker panicked");
    });

    emit_batch(&requests, &results, &args.output);
    if results.iter().all(Result::is_ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Flags of the `serve` subcommand: where to listen, queue sizing, and the
/// server-side evaluation policy overlaid onto every submitted job.
#[derive(Debug, Clone)]
struct ServeArgs {
    listen: String,
    job_slots: Option<usize>,
    queue_depth: Option<usize>,
    backend: BackendKind,
    worker_registry: Option<String>,
    remote_token_file: Option<String>,
    eval_cache_file: Option<String>,
    eval_cache_max_entries: Option<usize>,
    auth_token_file: Option<String>,
    quiet: bool,
}

fn parse_serve_args<I: IntoIterator<Item = String>>(argv: I) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        listen: String::new(),
        job_slots: None,
        queue_depth: None,
        backend: BackendKind::Inline,
        worker_registry: None,
        remote_token_file: None,
        eval_cache_file: None,
        eval_cache_max_entries: None,
        auth_token_file: None,
        quiet: false,
    };
    let mut backend_set = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let positive = |name: &str, raw: String| -> Result<usize, String> {
            match raw.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("{name} must be a positive integer")),
            }
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--job-slots" => args.job_slots = Some(positive("--job-slots", value("--job-slots")?)?),
            "--queue-depth" => {
                args.queue_depth = Some(positive("--queue-depth", value("--queue-depth")?)?)
            }
            "--backend" => {
                args.backend = BackendKind::parse(&value("--backend")?)
                    .map_err(|e| format!("bad --backend: {e}"))?;
                backend_set = true;
            }
            "--worker-registry" => args.worker_registry = Some(value("--worker-registry")?),
            "--remote-token-file" => args.remote_token_file = Some(value("--remote-token-file")?),
            "--eval-cache-file" => args.eval_cache_file = Some(value("--eval-cache-file")?),
            "--eval-cache-max-entries" => {
                args.eval_cache_max_entries = Some(positive(
                    "--eval-cache-max-entries",
                    value("--eval-cache-max-entries")?,
                )?)
            }
            "--auth-token-file" => args.auth_token_file = Some(value("--auth-token-file")?),
            "--quiet" | "-q" => args.quiet = true,
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    if args.listen.is_empty() {
        return Err("serve requires --listen <host:port>".to_string());
    }
    if args.eval_cache_max_entries.is_some() && args.eval_cache_file.is_none() {
        return Err("--eval-cache-max-entries requires --eval-cache-file".to_string());
    }
    resolve_registry_backend(
        &mut args.backend,
        backend_set,
        args.worker_registry.as_deref(),
    )?;
    if args.remote_token_file.is_some() && !matches!(args.backend, BackendKind::Remote { .. }) {
        return Err("--remote-token-file requires --backend remote:host:port[,...]".to_string());
    }
    Ok(args)
}

/// Folds `--worker-registry` into the backend choice: a registry implies
/// scoring on the announced fleet, so an unset backend becomes a remote
/// backend with an (initially) empty roster, an explicit remote backend
/// keeps its static seed endpoints, and an explicitly non-remote backend
/// is a contradiction worth rejecting loudly.
fn resolve_registry_backend(
    backend: &mut BackendKind,
    backend_set: bool,
    worker_registry: Option<&str>,
) -> Result<(), String> {
    let Some(registry) = worker_registry else {
        return Ok(());
    };
    if !registry.contains(':') {
        return Err("--worker-registry must be a HOST:PORT listen address".to_string());
    }
    match backend {
        _ if !backend_set => {
            *backend = BackendKind::Remote {
                endpoints: Vec::new(),
            }
        }
        BackendKind::Remote { .. } => {}
        other => {
            return Err(format!(
                "--worker-registry feeds a remote backend; it cannot be combined \
                 with --backend {other}"
            ))
        }
    }
    Ok(())
}

/// Binds and starts the worker-registry listener a `--worker-registry`
/// daemon exposes, returning the registry handle to attach as the shared
/// evaluation resources' worker directory (and, for the gateway, to render
/// in `/metrics`). Registry messages authenticate with the same fleet-wide
/// shared secret the remote backend presents to workers
/// (`--remote-token-file`), so one token file covers the whole fleet.
fn start_worker_registry(
    listen: &str,
    remote_token_file: Option<&str>,
    quiet: bool,
) -> Result<std::sync::Arc<pimsyn::WorkerRegistry>, String> {
    let token = match remote_token_file {
        Some(path) => Some(read_token_file(path)?),
        None => None,
    };
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot listen on {listen} for worker registry: {e}"))?;
    let registry = pimsyn::WorkerRegistry::new(pimsyn::DEFAULT_HEARTBEAT_INTERVAL, token, quiet);
    pimsyn::serve_registry_in_background(listener, registry.clone())
        .map_err(|e| format!("worker registry failed to start: {e}"))?;
    Ok(registry)
}

fn run_serve(argv: &[String]) -> ExitCode {
    let args = match parse_serve_args(argv.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let listener = match std::net::TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let mut config = ServiceConfig::default();
    if let Some(slots) = args.job_slots {
        config = config.with_job_slots(slots);
    }
    if let Some(depth) = args.queue_depth {
        config = config.with_queue_depth(depth);
    }
    let service = std::sync::Arc::new(SynthesisService::new(config));
    if let Some(registry_listen) = &args.worker_registry {
        match start_worker_registry(
            registry_listen,
            args.remote_token_file.as_deref(),
            args.quiet,
        ) {
            Ok(registry) => service.shared_resources().set_worker_directory(registry),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let overlay_args = args.clone();
    // Server-side policy: the daemon decides where scoring runs and which
    // cache file (if any) persists it; clients describe only the job. The
    // cache policy only applies to jobs that kept the eval cache on: a job
    // that disabled it has nothing to persist, and forcing a file onto it
    // would reject an otherwise valid submission.
    let overlay = move |request: &mut SynthesisRequest| {
        request.options.backend.kind = overlay_args.backend.clone();
        request.options.backend.remote_token_file =
            overlay_args.remote_token_file.as_ref().map(Into::into);
        if request.options.eval_cache.enabled {
            if let Some(path) = &overlay_args.eval_cache_file {
                request.options.backend.cache_file = Some(path.into());
            }
            request.options.backend.cache_max_entries = overlay_args.eval_cache_max_entries;
        }
    };
    let mut options = pimsyn::ServeOptions::new().with_quiet(args.quiet);
    if let Some(path) = &args.auth_token_file {
        match read_token_file(path) {
            Ok(token) => options = options.with_token(token),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match pimsyn::serve(listener, service, overlay, options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags of the `gateway` subcommand: the serve-side policy flags plus the
/// tenant keys file and the scheduling policy.
#[derive(Debug, Clone)]
struct GatewayArgs {
    listen: String,
    keys: Option<String>,
    scheduler: Option<pimsyn::SchedulingPolicy>,
    job_slots: Option<usize>,
    queue_depth: Option<usize>,
    backend: BackendKind,
    worker_registry: Option<String>,
    remote_token_file: Option<String>,
    eval_cache_file: Option<String>,
    eval_cache_max_entries: Option<usize>,
    quiet: bool,
}

fn parse_gateway_args<I: IntoIterator<Item = String>>(argv: I) -> Result<GatewayArgs, String> {
    let mut args = GatewayArgs {
        listen: String::new(),
        keys: None,
        scheduler: None,
        job_slots: None,
        queue_depth: None,
        backend: BackendKind::Inline,
        worker_registry: None,
        remote_token_file: None,
        eval_cache_file: None,
        eval_cache_max_entries: None,
        quiet: false,
    };
    let mut backend_set = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let positive = |name: &str, raw: String| -> Result<usize, String> {
            match raw.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("{name} must be a positive integer")),
            }
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--keys" => args.keys = Some(value("--keys")?),
            "--scheduler" => {
                args.scheduler = Some(match value("--scheduler")?.as_str() {
                    "fifo" => pimsyn::SchedulingPolicy::Fifo,
                    "fair" => pimsyn::SchedulingPolicy::WeightedFair,
                    other => return Err(format!("bad --scheduler `{other}` (fifo|fair)")),
                })
            }
            "--job-slots" => args.job_slots = Some(positive("--job-slots", value("--job-slots")?)?),
            "--queue-depth" => {
                args.queue_depth = Some(positive("--queue-depth", value("--queue-depth")?)?)
            }
            "--backend" => {
                args.backend = BackendKind::parse(&value("--backend")?)
                    .map_err(|e| format!("bad --backend: {e}"))?;
                backend_set = true;
            }
            "--worker-registry" => args.worker_registry = Some(value("--worker-registry")?),
            "--remote-token-file" => args.remote_token_file = Some(value("--remote-token-file")?),
            "--eval-cache-file" => args.eval_cache_file = Some(value("--eval-cache-file")?),
            "--eval-cache-max-entries" => {
                args.eval_cache_max_entries = Some(positive(
                    "--eval-cache-max-entries",
                    value("--eval-cache-max-entries")?,
                )?)
            }
            "--quiet" | "-q" => args.quiet = true,
            other => return Err(format!("unknown gateway flag `{other}`")),
        }
    }
    if args.listen.is_empty() {
        return Err("gateway requires --listen <host:port>".to_string());
    }
    if args.eval_cache_max_entries.is_some() && args.eval_cache_file.is_none() {
        return Err("--eval-cache-max-entries requires --eval-cache-file".to_string());
    }
    resolve_registry_backend(
        &mut args.backend,
        backend_set,
        args.worker_registry.as_deref(),
    )?;
    if args.remote_token_file.is_some() && !matches!(args.backend, BackendKind::Remote { .. }) {
        return Err("--remote-token-file requires --backend remote:host:port[,...]".to_string());
    }
    Ok(args)
}

fn run_gateway(argv: &[String]) -> ExitCode {
    let args = match parse_gateway_args(argv.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tenants = match &args.keys {
        Some(path) => match pimsyn_gateway::TenantRegistry::load(path) {
            Ok(registry) => registry,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => pimsyn_gateway::TenantRegistry::open(),
    };
    let listener = match std::net::TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    // Multi-tenant gateways default to fair scheduling; a keyless (single
    // anonymous lane) gateway keeps service-identical FIFO order.
    let scheduling = args.scheduler.unwrap_or(if tenants.requires_auth() {
        pimsyn::SchedulingPolicy::WeightedFair
    } else {
        pimsyn::SchedulingPolicy::Fifo
    });
    let mut config = ServiceConfig::default().with_scheduling(scheduling);
    if let Some(slots) = args.job_slots {
        config = config.with_job_slots(slots);
    }
    if let Some(depth) = args.queue_depth {
        config = config.with_queue_depth(depth);
    }
    let service = std::sync::Arc::new(SynthesisService::new(config));
    let mut registry = None;
    if let Some(registry_listen) = &args.worker_registry {
        match start_worker_registry(
            registry_listen,
            args.remote_token_file.as_deref(),
            args.quiet,
        ) {
            Ok(r) => {
                service.shared_resources().set_worker_directory(r.clone());
                registry = Some(r);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let overlay_args = args.clone();
    // The same server-side policy overlay as `pimsyn serve`: the daemon
    // decides where scoring runs and which cache file persists it.
    let overlay = move |request: &mut SynthesisRequest| {
        request.options.backend.kind = overlay_args.backend.clone();
        request.options.backend.remote_token_file =
            overlay_args.remote_token_file.as_ref().map(Into::into);
        if request.options.eval_cache.enabled {
            if let Some(path) = &overlay_args.eval_cache_file {
                request.options.backend.cache_file = Some(path.into());
            }
            request.options.backend.cache_max_entries = overlay_args.eval_cache_max_entries;
        }
    };
    let mut gateway_config = pimsyn_gateway::GatewayConfig::new()
        .with_tenants(tenants)
        .with_quiet(args.quiet);
    if let Some(path) = &args.keys {
        gateway_config = gateway_config.with_keys_file(path);
    }
    if let Some(registry) = registry {
        gateway_config = gateway_config.with_worker_registry(registry);
    }
    match pimsyn_gateway::serve_gateway(listener, service, overlay, gateway_config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: gateway failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags of the `worker-serve` subcommand: where to listen, how many
/// concurrent worker sessions to serve, the optional shared auth token,
/// the registry to announce to, and the protocol-version cap.
#[derive(Debug, Clone)]
struct WorkerServeArgs {
    listen: String,
    slots: usize,
    announce: Option<String>,
    protocol_max: Option<u32>,
    auth_token_file: Option<String>,
    quiet: bool,
}

fn parse_worker_serve_args<I: IntoIterator<Item = String>>(
    argv: I,
) -> Result<WorkerServeArgs, String> {
    let mut args = WorkerServeArgs {
        listen: String::new(),
        slots: 0,
        announce: None,
        protocol_max: None,
        auth_token_file: None,
        quiet: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--slots" => {
                args.slots = match value("--slots")?.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--slots must be a positive integer".to_string()),
                }
            }
            "--announce" => args.announce = Some(value("--announce")?),
            "--protocol-max" => {
                args.protocol_max = match value("--protocol-max")?.parse::<u32>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => return Err("--protocol-max must be a positive integer".to_string()),
                }
            }
            "--auth-token-file" => args.auth_token_file = Some(value("--auth-token-file")?),
            "--quiet" | "-q" => args.quiet = true,
            other => return Err(format!("unknown worker-serve flag `{other}`")),
        }
    }
    if args.listen.is_empty() {
        return Err("worker-serve requires --listen <host:port>".to_string());
    }
    if let Some(announce) = &args.announce {
        if !announce.contains(':') {
            return Err("--announce must be a HOST:PORT registry address".to_string());
        }
    }
    Ok(args)
}

/// Reads a shared-token file through the library's single normalizing
/// reader, so the daemon and every client trim tokens identically.
fn read_token_file(path: &str) -> Result<String, String> {
    pimsyn::read_token_file(std::path::Path::new(path))
}

fn run_worker_serve(argv: &[String]) -> ExitCode {
    let args = match parse_worker_serve_args(argv.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let token = match &args.auth_token_file {
        Some(path) => match read_token_file(path) {
            Ok(token) => Some(token),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let listener = match std::net::TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let config = pimsyn::WorkerServeConfig {
        slots: args.slots,
        token,
        quiet: args.quiet,
        protocol_max: args.protocol_max,
        announce: args.announce.clone(),
        // Test-harness hook: chaos suites and CI smokes misconfigure a
        // stock binary through PIMSYN_FAULT_* without extra flags. All
        // unset (the overwhelmingly common case) injects nothing.
        faults: pimsyn::FaultInjection::from_env(),
    };
    match pimsyn::serve_workers(listener, config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: worker-serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_worker_stop(argv: &[String]) -> ExitCode {
    let mut connect = None;
    let mut token_file = None;
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parsed = match flag.as_str() {
            "--connect" => value("--connect").map(|v| connect = Some(v)),
            "--auth-token-file" => value("--auth-token-file").map(|v| token_file = Some(v)),
            other => Err(format!("unknown worker-stop flag `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(connect) = connect else {
        eprintln!("error: worker-stop requires --connect <host:port>\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let token = match &token_file {
        Some(path) => match read_token_file(path) {
            Ok(token) => Some(token),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    match pimsyn::stop_worker_server(&connect, token.as_deref()) {
        Ok(()) => {
            outln!("worker daemon at {connect} is stopping");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What `split_client_args` extracts: the `--connect` address, the `--id`
/// value, the `--auth-token-file` path, and the untouched remaining flags.
type ClientArgs = (String, Option<u64>, Option<String>, Vec<String>);

/// Splits `--connect <addr>` (required) and `--id <n>` (when `with_id`) out
/// of a client subcommand's argv, returning the remaining flags untouched.
fn split_client_args(argv: &[String], with_id: bool) -> Result<ClientArgs, String> {
    let mut connect = None;
    let mut id = None;
    let mut token_file = None;
    let mut rest = Vec::new();
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => {
                connect = Some(
                    it.next()
                        .ok_or_else(|| "missing value for --connect".to_string())?,
                )
            }
            "--id" if with_id => {
                let raw = it
                    .next()
                    .ok_or_else(|| "missing value for --id".to_string())?;
                id = Some(raw.parse().map_err(|e| format!("bad --id: {e}"))?);
            }
            "--auth-token-file" => {
                token_file = Some(
                    it.next()
                        .ok_or_else(|| "missing value for --auth-token-file".to_string())?,
                )
            }
            _ => rest.push(flag),
        }
    }
    let connect = connect.ok_or_else(|| "missing --connect <host:port>".to_string())?;
    if with_id && id.is_none() {
        return Err("missing --id <job-id>".to_string());
    }
    Ok((connect, id, token_file, rest))
}

/// Prints a protocol reply and maps it to an exit code (`ok: false` replies
/// — queue full, unknown job, failed job — are structured JSON on stdout
/// with a non-zero exit).
fn finish_client(reply: Result<JsonValue, String>) -> ExitCode {
    match reply {
        Ok(doc) => {
            outln!("{doc}");
            if doc.get("ok").and_then(JsonValue::as_bool) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_client(command: &str, argv: &[String]) -> ExitCode {
    let with_id = matches!(command, "status" | "result" | "cancel");
    let (connect, id, token_file, rest) = match split_client_args(argv, with_id) {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut client = ServiceClient::new(connect);
    if let Some(path) = &token_file {
        match read_token_file(path) {
            Ok(token) => client = client.with_token(token),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match command {
        "submit" => {
            let args = match parse_args_from(rest) {
                Ok(a) if a.batch_file.is_none() => a,
                Ok(_) => {
                    eprintln!("error: submit sends one job; --batch is not supported\n\n{USAGE}");
                    return ExitCode::from(2);
                }
                Err(e) => {
                    eprintln!("error: {e}\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            // Where scoring runs and which cache file persists it are the
            // daemon's policy (its own serve flags); rejecting these beats
            // silently dropping them from the wire format.
            if args.backend != BackendKind::Inline
                || args.eval_cache_file.is_some()
                || args.eval_cache_max_entries.is_some()
            {
                eprintln!(
                    "error: --backend / --eval-cache-file / --eval-cache-max-entries are \
                     daemon policy; set them on `pimsyn serve`, not `pimsyn submit`\n\n{USAGE}"
                );
                return ExitCode::from(2);
            }
            let model = match &args.model {
                Some(name) => load_named_model(name),
                None => load_model_file(args.model_file.as_ref().expect("validated")),
            };
            let request = model
                .and_then(|model| {
                    options_from_args(&args, args.power)
                        .map(|options| SynthesisRequest::new(model, options))
                })
                .map_err(|e| e.to_string());
            match request {
                Ok(request) => finish_client(client.submit(&request)),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "status" => finish_client(client.status(id.expect("validated"))),
        "cancel" => finish_client(client.cancel(id.expect("validated"))),
        "result" => {
            // On success print only the summary document, so a socket-fetched
            // result diffs cleanly against a direct `pimsyn --output json` run.
            match client.result(id.expect("validated")) {
                Ok(doc) if doc.get("ok").and_then(JsonValue::as_bool) == Some(true) => {
                    match doc.get("summary") {
                        Some(summary) => {
                            outln!("{summary}");
                            ExitCode::SUCCESS
                        }
                        None => {
                            eprintln!("error: reply lacks a summary: {doc}");
                            ExitCode::FAILURE
                        }
                    }
                }
                other => finish_client(other),
            }
        }
        "shutdown" => finish_client(client.shutdown()),
        "drain" => finish_client(client.drain()),
        other => {
            eprintln!("error: unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `pimsyn zoo` arguments.
#[derive(Debug, Clone, Default, PartialEq)]
struct ZooArgs {
    describe: Option<String>,
    validate: bool,
    /// With `--validate`, restricts the check to one model.
    validate_model: Option<String>,
    json: bool,
    help: bool,
}

fn parse_zoo_args<I: IntoIterator<Item = String>>(argv: I) -> Result<ZooArgs, String> {
    let mut args = ZooArgs::default();
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--describe" => {
                args.describe = Some(it.next().ok_or("missing value for --describe")?);
            }
            "--validate" => {
                args.validate = true;
                // An optional positional model name may follow.
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        args.validate_model = it.next();
                    }
                }
            }
            "--output" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("text") => args.json = false,
                Some(other) => return Err(format!("unknown output format `{other}`")),
                None => return Err("missing value for --output".to_string()),
            },
            "--help" => args.help = true,
            other => return Err(format!("unknown zoo flag `{other}`")),
        }
    }
    if args.describe.is_some() && args.validate {
        return Err("--describe and --validate are mutually exclusive".to_string());
    }
    Ok(args)
}

/// Builds a zoo model and checks its structural invariants plus the
/// ONNX-JSON round trip. Returns a human-readable failure description.
fn validate_zoo_entry(entry: &zoo::ZooEntry) -> Result<(), String> {
    let model = (entry.build)();
    if model.name() != entry.name {
        return Err(format!(
            "registry name `{}` != model name `{}`",
            entry.name,
            model.name()
        ));
    }
    if model.weight_layer_count() == 0 {
        return Err("model has no weight layers".to_string());
    }
    let text = onnx::to_json(&model);
    let reparsed = onnx::parse_model(&text).map_err(|e| format!("ONNX round trip failed: {e}"))?;
    if reparsed != model {
        return Err("ONNX round trip is not the identity".to_string());
    }
    Ok(())
}

fn zoo_listing_json() -> JsonValue {
    JsonValue::Array(
        zoo::entries()
            .iter()
            .map(|entry| {
                let model = (entry.build)();
                let stats = model.stats();
                let shape = model.input_shape();
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(entry.name.to_string())),
                    (
                        "description".into(),
                        JsonValue::String(entry.description.to_string()),
                    ),
                    (
                        "input_shape".into(),
                        JsonValue::Array(vec![
                            JsonValue::Number(shape.channels as f64),
                            JsonValue::Number(shape.height as f64),
                            JsonValue::Number(shape.width as f64),
                        ]),
                    ),
                    (
                        "weight_layers".into(),
                        JsonValue::Number(stats.weight_layer_count as f64),
                    ),
                    (
                        "total_macs".into(),
                        JsonValue::Number(stats.total_macs as f64),
                    ),
                    (
                        "total_weights".into(),
                        JsonValue::Number(stats.total_weights as f64),
                    ),
                ])
            })
            .collect(),
    )
}

fn run_zoo(argv: &[String]) -> ExitCode {
    let args = match parse_zoo_args(argv.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        outln!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if let Some(name) = &args.describe {
        let model = match load_named_model(name) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stats = model.stats();
        let shape = model.input_shape();
        let entry = zoo::entries()
            .iter()
            .find(|e| e.name == name.as_str())
            .expect("load_named_model succeeded");
        outln!("{}: {}", entry.name, entry.description);
        outln!(
            "  input {}x{}x{}, {} layers ({} weight layers)",
            shape.channels,
            shape.height,
            shape.width,
            stats.layer_count,
            stats.weight_layer_count
        );
        outln!(
            "  {:.3} GMACs, {:.2} M weights, peak activation {} elems",
            stats.total_macs as f64 / 1e9,
            stats.total_weights as f64 / 1e6,
            stats.peak_activation
        );
        outln!("  weight layers:");
        for wl in model.weight_layers() {
            let pool = wl
                .pool
                .map(|(kind, size)| format!(" pool {kind}{size}"))
                .unwrap_or_default();
            outln!(
                "    {:>3} {:<14} {}x{} k{} s{} g{} -> {}x{}x{}{}{}{}",
                wl.index,
                wl.name,
                wl.in_channels,
                wl.out_channels,
                wl.kernel,
                wl.stride,
                wl.groups,
                wl.out_channels,
                wl.out_height,
                wl.out_width,
                if wl.relu { " relu" } else { "" },
                pool,
                if wl.feeds_add { " eltwise" } else { "" },
            );
        }
        return ExitCode::SUCCESS;
    }

    if args.validate {
        let entries: Vec<&zoo::ZooEntry> = match &args.validate_model {
            Some(name) => match zoo::entries().iter().find(|e| e.name == name.as_str()) {
                Some(entry) => vec![entry],
                None => {
                    eprintln!(
                        "error: unknown zoo model `{name}` (available: {})",
                        zoo::names().join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            },
            None => zoo::entries().iter().collect(),
        };
        let mut failures = 0usize;
        for entry in &entries {
            match validate_zoo_entry(entry) {
                Ok(()) => eprintln!("{:<18} ok", entry.name),
                Err(e) => {
                    failures += 1;
                    eprintln!("{:<18} FAILED: {e}", entry.name);
                }
            }
        }
        if failures > 0 {
            eprintln!(
                "error: {failures}/{} zoo models failed validation",
                entries.len()
            );
            return ExitCode::FAILURE;
        }
        outln!("all {} zoo models validate", entries.len());
        return ExitCode::SUCCESS;
    }

    if args.json {
        outln!("{}", zoo_listing_json());
    } else {
        for entry in zoo::entries() {
            outln!("{:<18} {}", entry.name, entry.description);
        }
    }
    ExitCode::SUCCESS
}

/// `pimsyn export` flags that are not part of the shared synthesis arg set.
#[derive(Debug, Clone, Default, PartialEq)]
struct ExportArgs {
    pretty: bool,
    out: Option<String>,
}

/// Splits export-specific flags from the shared synthesis flags.
fn split_export_args(argv: &[String]) -> Result<(ExportArgs, Vec<String>), String> {
    let mut export = ExportArgs::default();
    let mut rest = Vec::new();
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--pretty" => export.pretty = true,
            "--out" => export.out = Some(it.next().ok_or("missing value for --out")?),
            _ => rest.push(flag),
        }
    }
    Ok((export, rest))
}

fn run_export(argv: &[String]) -> ExitCode {
    let fail = |e: String| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::from(2)
    };
    match argv.first().map(String::as_str) {
        Some("pimsim") => {}
        Some(other) => return fail(format!("unknown export format `{other}` (try `pimsim`)")),
        None => return fail("export needs a format, e.g. `pimsyn export pimsim ...`".into()),
    }
    let (export, rest) = match split_export_args(&argv[1..]) {
        Ok(split) => split,
        Err(e) => return fail(e),
    };
    let args = match parse_args_from(rest) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    if args.help {
        outln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.batch_file.is_some() {
        return fail("`pimsyn export` synthesizes a single model; --batch is not supported".into());
    }

    let result = (|| -> Result<SynthesisResult, String> {
        let model = match &args.model {
            Some(name) => load_named_model(name)?,
            None => load_model_file(args.model_file.as_ref().expect("validated"))?,
        };
        let options = options_from_args(&args, args.power)?;
        pimsyn::Synthesizer::new(options)
            .synthesize(&model)
            .map_err(|e| e.to_string())
    })();
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !args.quiet {
        eprintln!(
            "synthesized {} in {:.1}s ({} evaluations); exporting PIMSIM-NN config",
            result.model.name(),
            result.elapsed.as_secs_f64(),
            result.evaluations
        );
    }
    let text = if export.pretty {
        pimsyn_export::to_pimsim_config_pretty(&result)
    } else {
        pimsyn_export::to_pimsim_config(&result)
    };
    match &export.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => outln!("{text}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Worker mode short-circuits everything else: the process is a child of
    // `--backend subprocess` speaking the JSON-lines protocol on stdio.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return pimsyn::run_worker_stdio();
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("gateway") => return run_gateway(&argv[1..]),
        Some("worker-serve") => return run_worker_serve(&argv[1..]),
        Some("worker-stop") => return run_worker_stop(&argv[1..]),
        Some("zoo") => return run_zoo(&argv[1..]),
        Some("export") => return run_export(&argv[1..]),
        Some(cmd @ ("submit" | "status" | "result" | "cancel" | "shutdown" | "drain")) => {
            return run_client(cmd, &argv[1..]);
        }
        _ => {}
    }
    let args = match parse_args_from(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        outln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.batch_file.is_some() {
        run_batch(&args)
    } else {
        run_single(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn minimal_invocation_parses_with_library_defaults() {
        let args = parse(&["--model", "alexnet-cifar", "--power", "9"]).unwrap();
        assert_eq!(args.model.as_deref(), Some("alexnet-cifar"));
        assert_eq!(args.power, 9.0);
        // The CLI seed default is the library default (the flow is
        // deterministic given the seed, so CLI and API runs agree).
        assert_eq!(args.seed, SynthesisOptions::DEFAULT_SEED);
        assert_eq!(args.effort, Effort::Fast);
        assert_eq!(args.output, OutputFormat::Text);
        assert!(args.timeout.is_none());
        assert!(args.max_evals.is_none());
        assert!(!args.quiet);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["--model", "vgg16", "--power", "9", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn missing_power_is_rejected() {
        let err = parse(&["--model", "vgg16"]).unwrap_err();
        assert!(err.contains("--power"), "{err}");
        let err = parse(&["--model", "vgg16", "--power", "-3"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn model_and_model_file_are_mutually_exclusive() {
        let err = parse(&[
            "--model",
            "vgg16",
            "--model-file",
            "net.json",
            "--power",
            "9",
        ])
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = parse(&["--power", "9"]).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn bad_timeout_is_rejected() {
        let err = parse(&["--model", "vgg16", "--power", "9", "--timeout", "soon"]).unwrap_err();
        assert!(err.contains("bad --timeout"), "{err}");
        let err = parse(&["--model", "vgg16", "--power", "9", "--timeout", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse(&["--model", "vgg16", "--power", "9", "--timeout"]).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        // Values Duration::from_secs_f64 would panic on must error cleanly.
        for huge in ["inf", "1e300", "nan"] {
            let err = parse(&["--model", "vgg16", "--power", "9", "--timeout", huge]).unwrap_err();
            assert!(err.contains("--timeout"), "{err}");
        }
    }

    #[test]
    fn budget_flags_parse() {
        let args = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--timeout",
            "1.5",
            "--max-evals",
            "100",
        ])
        .unwrap();
        assert_eq!(args.timeout, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(args.max_evals, Some(100));
        let err = parse(&["--model", "vgg16", "--power", "9", "--max-evals", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn batch_conflicts_with_model_flags() {
        let err = parse(&["--batch", "jobs.json", "--model", "vgg16"]).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        // Batch mode needs neither --power nor --model.
        let args = parse(&["--batch", "jobs.json"]).unwrap();
        assert_eq!(args.batch_file.as_deref(), Some("jobs.json"));
        // ... but an explicit --power must still be sane.
        let err = parse(&["--batch", "jobs.json", "--power", "-1"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn batch_power_flag_is_the_job_default() {
        let cli = parse(&["--batch", "jobs.json", "--power", "9"]).unwrap();
        let job = JsonValue::parse(r#"{"model": "alexnet-cifar"}"#).unwrap();
        let request = batch_job_request(&job, &cli, 0).unwrap();
        assert_eq!(request.options.power_budget, Watts(9.0));
        // A job-level field still wins over the CLI default.
        let job = JsonValue::parse(r#"{"model": "alexnet-cifar", "power": 12}"#).unwrap();
        let request = batch_job_request(&job, &cli, 1).unwrap();
        assert_eq!(request.options.power_budget, Watts(12.0));
        // Without either, the error points at both spellings.
        let bare = parse(&["--batch", "jobs.json"]).unwrap();
        let job = JsonValue::parse(r#"{"model": "alexnet-cifar"}"#).unwrap();
        let err = batch_job_request(&job, &bare, 0).unwrap_err();
        assert!(err.contains("--power"), "{err}");
    }

    #[test]
    fn eval_cache_flags_parse() {
        let args = parse(&["--model", "vgg16", "--power", "9"]).unwrap();
        assert!(args.eval_cache, "cache must default on");
        assert_eq!(args.eval_cache_capacity, None);
        let args = parse(&["--model", "vgg16", "--power", "9", "--eval-cache", "off"]).unwrap();
        assert!(!args.eval_cache);
        let args = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--eval-cache-capacity",
            "1024",
        ])
        .unwrap();
        assert_eq!(args.eval_cache_capacity, Some(1024));
        let err =
            parse(&["--model", "vgg16", "--power", "9", "--eval-cache", "maybe"]).unwrap_err();
        assert!(err.contains("--eval-cache"), "{err}");
        let err = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--eval-cache-capacity",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn eval_cache_flags_reach_options() {
        let args = parse(&["--model", "vgg16", "--power", "9", "--eval-cache", "off"]).unwrap();
        let options = options_from_args(&args, args.power).unwrap();
        assert!(!options.eval_cache.enabled);
        let args = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--eval-cache-capacity",
            "77",
        ])
        .unwrap();
        let options = options_from_args(&args, args.power).unwrap();
        assert!(options.eval_cache.enabled);
        assert_eq!(options.eval_cache.capacity, 77);
    }

    #[test]
    fn backend_flags_parse_and_reach_options() {
        let args = parse(&["--model", "vgg16", "--power", "9"]).unwrap();
        assert_eq!(args.backend, BackendKind::Inline);
        assert!(args.eval_cache_file.is_none());
        assert!(args.max_unique_evals.is_none());
        let args = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--backend",
            "subprocess:2",
            "--eval-cache-file",
            "/tmp/c.json",
            "--max-unique-evals",
            "40",
        ])
        .unwrap();
        assert_eq!(args.backend, BackendKind::Subprocess { workers: 2 });
        assert_eq!(args.eval_cache_file.as_deref(), Some("/tmp/c.json"));
        assert_eq!(args.max_unique_evals, Some(40));
        let options = options_from_args(&args, args.power).unwrap();
        assert_eq!(options.backend.kind, BackendKind::Subprocess { workers: 2 });
        assert_eq!(
            options.backend.cache_file.as_deref(),
            Some(std::path::Path::new("/tmp/c.json"))
        );
        assert_eq!(options.max_unique_evaluations, Some(40));

        let err = parse(&["--model", "vgg16", "--power", "9", "--backend", "gpu"]).unwrap_err();
        assert!(err.contains("--backend"), "{err}");
        let err = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--max-unique-evals",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // Persistence without a memo to persist is rejected, not ignored.
        let err = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--eval-cache",
            "off",
            "--eval-cache-file",
            "/tmp/c.json",
        ])
        .unwrap_err();
        assert!(err.contains("--eval-cache-file"), "{err}");
    }

    #[test]
    fn eval_cache_max_entries_parses_and_requires_a_file() {
        let args = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--eval-cache-file",
            "/tmp/c.json",
            "--eval-cache-max-entries",
            "100",
        ])
        .unwrap();
        assert_eq!(args.eval_cache_max_entries, Some(100));
        let options = options_from_args(&args, args.power).unwrap();
        assert_eq!(options.backend.cache_max_entries, Some(100));
        let err = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--eval-cache-max-entries",
            "100",
        ])
        .unwrap_err();
        assert!(err.contains("--eval-cache-file"), "{err}");
        let err = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--eval-cache-file",
            "/tmp/c.json",
            "--eval-cache-max-entries",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn remote_token_file_needs_a_remote_roster_except_in_batch_mode() {
        // Single-job mode: pointless without a remote backend.
        let err = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--remote-token-file",
            "/tmp/tok",
        ])
        .unwrap_err();
        assert!(err.contains("--remote-token-file"), "{err}");
        // With a roster it parses and reaches the options.
        let args = parse(&[
            "--model",
            "vgg16",
            "--power",
            "9",
            "--backend",
            "remote:h:1",
            "--remote-token-file",
            "/tmp/tok",
        ])
        .unwrap();
        let options = options_from_args(&args, args.power).unwrap();
        assert_eq!(
            options.backend.remote_token_file.as_deref(),
            Some(std::path::Path::new("/tmp/tok"))
        );
        // Batch mode: individual jobs may select remote via their
        // `backend` field, so the flag is accepted up front...
        let cli = parse(&["--batch", "jobs.json", "--remote-token-file", "/tmp/tok"]).unwrap();
        // ... and flows into a job that does.
        let job =
            JsonValue::parse(r#"{"model": "alexnet-cifar", "power": 9, "backend": "remote:h:1"}"#)
                .unwrap();
        let request = batch_job_request(&job, &cli, 0).unwrap();
        assert_eq!(
            request.options.backend.kind,
            BackendKind::Remote {
                endpoints: vec!["h:1".to_string()]
            }
        );
        assert_eq!(
            request.options.backend.remote_token_file.as_deref(),
            Some(std::path::Path::new("/tmp/tok"))
        );
        // A malformed per-job backend is named in the error.
        let bad = JsonValue::parse(r#"{"model": "alexnet-cifar", "power": 9, "backend": "gpu"}"#)
            .unwrap();
        let err = batch_job_request(&bad, &cli, 2).unwrap_err();
        assert!(
            err.contains("batch job 2") && err.contains("backend"),
            "{err}"
        );
    }

    fn parse_serve(args: &[&str]) -> Result<ServeArgs, String> {
        parse_serve_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let args = parse_serve(&[
            "--listen",
            "127.0.0.1:7741",
            "--job-slots",
            "2",
            "--queue-depth",
            "8",
            "--backend",
            "subprocess:2",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(args.listen, "127.0.0.1:7741");
        assert_eq!(args.job_slots, Some(2));
        assert_eq!(args.queue_depth, Some(8));
        assert_eq!(args.backend, BackendKind::Subprocess { workers: 2 });
        assert!(args.quiet);

        let err = parse_serve(&[]).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        let err = parse_serve(&["--listen", "x", "--job-slots", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse_serve(&["--listen", "x", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown serve flag"), "{err}");
        let err = parse_serve(&["--listen", "x", "--eval-cache-max-entries", "5"]).unwrap_err();
        assert!(err.contains("--eval-cache-file"), "{err}");
        let args = parse_serve(&["--listen", "x", "--auth-token-file", "tok.txt"]).unwrap();
        assert_eq!(args.auth_token_file.as_deref(), Some("tok.txt"));
    }

    #[test]
    fn serve_worker_registry_implies_a_remote_backend() {
        // No explicit backend: the registry fleet is the backend, with an
        // initially empty roster that announcing workers will grow.
        let args = parse_serve(&["--listen", "x", "--worker-registry", "127.0.0.1:0"]).unwrap();
        assert_eq!(args.worker_registry.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            args.backend,
            BackendKind::Remote {
                endpoints: Vec::new()
            }
        );
        // An explicit remote backend keeps its static seed endpoints.
        let args = parse_serve(&[
            "--listen",
            "x",
            "--worker-registry",
            "127.0.0.1:0",
            "--backend",
            "remote:h:1",
        ])
        .unwrap();
        assert_eq!(
            args.backend,
            BackendKind::Remote {
                endpoints: vec!["h:1".to_string()]
            }
        );
        // The auto-remote backend makes --remote-token-file coherent too.
        let args = parse_serve(&[
            "--listen",
            "x",
            "--worker-registry",
            "127.0.0.1:0",
            "--remote-token-file",
            "/tmp/tok",
        ])
        .unwrap();
        assert_eq!(args.remote_token_file.as_deref(), Some("/tmp/tok"));
        // An explicitly non-remote backend contradicts the registry.
        let err = parse_serve(&[
            "--listen",
            "x",
            "--worker-registry",
            "127.0.0.1:0",
            "--backend",
            "subprocess:2",
        ])
        .unwrap_err();
        assert!(err.contains("--worker-registry"), "{err}");
        // The registry address must look dialable.
        let err = parse_serve(&["--listen", "x", "--worker-registry", "noport"]).unwrap_err();
        assert!(err.contains("HOST:PORT"), "{err}");
    }

    fn parse_gateway(args: &[&str]) -> Result<GatewayArgs, String> {
        parse_gateway_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn gateway_args_parse_and_validate() {
        let args = parse_gateway(&[
            "--listen",
            "127.0.0.1:0",
            "--keys",
            "tenants.json",
            "--job-slots",
            "2",
            "--queue-depth",
            "8",
            "--scheduler",
            "fair",
        ])
        .unwrap();
        assert_eq!(args.listen, "127.0.0.1:0");
        assert_eq!(args.keys.as_deref(), Some("tenants.json"));
        assert_eq!(args.job_slots, Some(2));
        assert_eq!(args.queue_depth, Some(8));
        assert_eq!(args.scheduler, Some(pimsyn::SchedulingPolicy::WeightedFair));

        // The scheduler default is decided later, from --keys presence.
        let args = parse_gateway(&["--listen", "h:0"]).unwrap();
        assert_eq!(args.scheduler, None);

        let err = parse_gateway(&[]).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        let err = parse_gateway(&["--listen", "x", "--scheduler", "lifo"]).unwrap_err();
        assert!(err.contains("fifo|fair"), "{err}");
        let err = parse_gateway(&["--listen", "x", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown gateway flag"), "{err}");
        let err = parse_gateway(&["--listen", "x", "--eval-cache-max-entries", "5"]).unwrap_err();
        assert!(err.contains("--eval-cache-file"), "{err}");

        // --worker-registry works exactly like on `serve`.
        let args = parse_gateway(&["--listen", "x", "--worker-registry", "127.0.0.1:0"]).unwrap();
        assert_eq!(args.worker_registry.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            args.backend,
            BackendKind::Remote {
                endpoints: Vec::new()
            }
        );
        let err = parse_gateway(&[
            "--listen",
            "x",
            "--worker-registry",
            "127.0.0.1:0",
            "--backend",
            "inline",
        ])
        .unwrap_err();
        assert!(err.contains("--worker-registry"), "{err}");
    }

    fn parse_worker_serve(args: &[&str]) -> Result<WorkerServeArgs, String> {
        parse_worker_serve_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn worker_serve_args_parse_and_validate() {
        let args = parse_worker_serve(&["--listen", "127.0.0.1:0", "--slots", "2"]).unwrap();
        assert_eq!(args.listen, "127.0.0.1:0");
        assert_eq!(args.slots, 2);
        assert_eq!(args.announce, None);
        assert_eq!(args.protocol_max, None);

        let args = parse_worker_serve(&[
            "--listen",
            "127.0.0.1:0",
            "--announce",
            "127.0.0.1:7742",
            "--protocol-max",
            "1",
        ])
        .unwrap();
        assert_eq!(args.announce.as_deref(), Some("127.0.0.1:7742"));
        assert_eq!(args.protocol_max, Some(1));

        let err = parse_worker_serve(&[]).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        let err = parse_worker_serve(&["--listen", "x", "--protocol-max", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse_worker_serve(&["--listen", "x", "--announce", "noport"]).unwrap_err();
        assert!(err.contains("HOST:PORT"), "{err}");
        let err = parse_worker_serve(&["--listen", "x", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown worker-serve flag"), "{err}");
    }

    #[test]
    fn client_args_split_connect_and_id() {
        let argv: Vec<String> = ["--connect", "127.0.0.1:7741", "--id", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (connect, id, token_file, rest) = split_client_args(&argv, true).unwrap();
        assert_eq!(connect, "127.0.0.1:7741");
        assert_eq!(id, Some(3));
        assert_eq!(token_file, None);
        assert!(rest.is_empty());

        let argv: Vec<String> = [
            "--connect",
            "h:1",
            "--auth-token-file",
            "tok.txt",
            "--model",
            "vgg16",
            "--power",
            "9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (connect, id, token_file, rest) = split_client_args(&argv, false).unwrap();
        assert_eq!(connect, "h:1");
        assert_eq!(id, None);
        assert_eq!(token_file.as_deref(), Some("tok.txt"));
        assert_eq!(rest, vec!["--model", "vgg16", "--power", "9"]);

        let err = split_client_args(&[], true).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let argv: Vec<String> = vec!["--connect".into(), "h:1".into()];
        let err = split_client_args(&argv, true).unwrap_err();
        assert!(err.contains("--id"), "{err}");
    }

    #[test]
    fn stats_line_summarizes_hit_rate() {
        let line = stats_line(&EvaluatorStats {
            scored: 200,
            unique_evaluations: 150,
            cache_hits: 50,
            ..EvaluatorStats::default()
        });
        assert!(line.contains("200 candidates scored"), "{line}");
        assert!(line.contains("150 unique"), "{line}");
        assert!(line.contains("25% hit rate"), "{line}");
    }

    #[test]
    fn output_format_parses() {
        let args = parse(&["--model", "vgg16", "--power", "9", "--output", "json"]).unwrap();
        assert_eq!(args.output, OutputFormat::Json);
        let err = parse(&["--model", "vgg16", "--power", "9", "--output", "xml"]).unwrap_err();
        assert!(err.contains("unknown output format"), "{err}");
    }

    #[test]
    fn help_short_circuits_validation() {
        let args = parse(&["--help"]).unwrap();
        assert!(args.help);
    }

    #[test]
    fn batch_job_request_applies_overrides_and_defaults() {
        let cli = parse(&["--batch", "jobs.json", "--seed", "7", "--effort", "paper"]).unwrap();
        let job = JsonValue::parse(
            r#"{"model": "alexnet-cifar", "power": 9, "effort": "fast",
                "label": "smoke", "max-evals": 50}"#,
        )
        .unwrap();
        let request = batch_job_request(&job, &cli, 0).unwrap();
        assert_eq!(request.display_label(), "smoke");
        assert_eq!(request.options.power_budget, Watts(9.0));
        assert_eq!(request.options.effort, Effort::Fast); // job override
        assert_eq!(request.options.seed, 7); // CLI default inherited
        assert_eq!(request.options.max_evaluations, Some(50));
    }

    #[test]
    fn batch_job_request_rejects_bad_jobs() {
        let cli = parse(&["--batch", "jobs.json"]).unwrap();
        for (job, needle) in [
            (r#"{"power": 9}"#, "exactly one"),
            (r#"{"model": "alexnet-cifar"}"#, "power"),
            (r#"{"model": "nope", "power": 9}"#, "unknown zoo model"),
            (
                r#"{"model": "alexnet-cifar", "power": 9, "surprise": 1}"#,
                "unknown field",
            ),
            (r#"[1, 2]"#, "expected a JSON object"),
        ] {
            let parsed = JsonValue::parse(job).unwrap();
            let err = batch_job_request(&parsed, &cli, 3).unwrap_err();
            assert!(err.contains("batch job 3"), "{err}");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn unknown_model_error_lists_zoo_names() {
        let err = load_named_model("nope").unwrap_err();
        assert!(err.contains("unknown zoo model `nope`"), "{err}");
        for name in zoo::names() {
            assert!(err.contains(name), "`{err}` should list `{name}`");
        }
    }

    fn parse_zoo(args: &[&str]) -> Result<ZooArgs, String> {
        parse_zoo_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn zoo_args_parse_and_validate() {
        assert_eq!(parse_zoo(&[]).unwrap(), ZooArgs::default());
        let args = parse_zoo(&["--describe", "mobilenet"]).unwrap();
        assert_eq!(args.describe.as_deref(), Some("mobilenet"));
        let args = parse_zoo(&["--validate"]).unwrap();
        assert!(args.validate);
        assert_eq!(args.validate_model, None);
        let args = parse_zoo(&["--validate", "vgg16"]).unwrap();
        assert_eq!(args.validate_model.as_deref(), Some("vgg16"));
        let args = parse_zoo(&["--validate", "--output", "json"]).unwrap();
        assert!(args.validate && args.json);
        assert_eq!(args.validate_model, None);

        let err = parse_zoo(&["--describe", "x", "--validate"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_zoo(&["--output", "xml"]).unwrap_err();
        assert!(err.contains("output format"), "{err}");
        let err = parse_zoo(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown zoo flag"), "{err}");
    }

    #[test]
    fn every_zoo_entry_validates() {
        for entry in zoo::entries() {
            validate_zoo_entry(entry).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        }
        let listing = zoo_listing_json();
        assert_eq!(listing.as_array().unwrap().len(), zoo::entries().len());
    }

    #[test]
    fn export_args_split_from_synthesis_flags() {
        let argv: Vec<String> = ["--model", "vgg16", "--pretty", "--power", "9", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (export, rest) = split_export_args(&argv).unwrap();
        assert!(export.pretty);
        assert_eq!(export.out.as_deref(), Some("x"));
        assert_eq!(rest, vec!["--model", "vgg16", "--power", "9"]);
        // The remainder still parses as ordinary synthesis flags.
        let args = parse_args_from(rest).unwrap();
        assert_eq!(args.model.as_deref(), Some("vgg16"));

        let argv: Vec<String> = vec!["--out".into()];
        let err = split_export_args(&argv).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }
}
