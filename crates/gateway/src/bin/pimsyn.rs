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
//! pimsyn export pimsim --model transformer-tiny --power 6 --out tt.json
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
use std::sync::Mutex;

use pimsyn::{
    CancelToken, EvaluatorStats, Objective, ServiceConfig, SynthesisEngine, SynthesisError,
    SynthesisEvent, SynthesisRequest, SynthesisResult, SynthesisService, SynthesisSummary,
};
use pimsyn_gateway::parse_job;
use pimsyn_model::json::JsonValue;
use pimsyn_model::{onnx, zoo};

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
    /// The job keys the synthesis flags set: the defaults of every job
    /// (`pimsyn_gateway::parse_job`), and the whole job outside `--batch`.
    defaults: Vec<(String, JsonValue)>,
    batch_file: Option<String>,
    output: OutputFormat,
    quiet: bool,
    help: bool,
}

impl Args {
    fn sets(&self, key: &str) -> bool {
        self.defaults.iter().any(|(k, _)| k == key)
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
                [--out <path>] [synthesis options]
  pimsyn gateway --listen <host:port> [--keys <tenants.json>]
                 [--job-slots N] [--queue-depth N] [--quiet]

OPTIONS:
  --model <name>        bundled zoo model; `pimsyn zoo` lists every name
                        (classic CNNs plus mobilenet, resnet18-se,
                        transformer-tiny)
  --model-file <path>   ONNX-style JSON model description
  --batch <path>        JSON array of jobs in the `POST /v1/jobs` format
                        (docs/PROTOCOLS.md), e.g.
                        [{\"model\": \"alexnet-cifar\", \"power\": 9}, ...];
                        a job may name `model_file` instead of `model`, and
                        the flags below are every job's defaults
  --hw-file <path>      hardware setup parameters: a JSON object of the
                        hardware-file keys (docs/PROTOCOLS.md §2.6); keys
                        it leaves out keep their Table III defaults
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
  --output <text|json>  report format on stdout (default: text)
  --quiet               suppress live progress on stderr
  --help                print this message

`pimsyn gateway` runs a long-lived synthesis daemon behind a plain
HTTP/1.1 REST API (POST /v1/jobs, GET /v1/jobs/<id>[/result|/events],
DELETE /v1/jobs/<id>, GET /metrics for Prometheus, POST /v1/drain) — see
docs/PROTOCOLS.md. Submitted jobs queue behind a bounded queue drained by
--job-slots concurrent jobs; POST /v1/drain stops intake, finishes queued
and running jobs, and exits the gateway cleanly.
Queued jobs dispatch in weighted round-robin across tenants; without
--keys every job shares one lane and dispatches in submission order.
--keys installs per-tenant API keys (Authorization: Bearer), quotas and
scheduling weights. The keys file is re-read whenever it changes on disk,
so keys rotate on a live gateway: added keys authenticate the very next
request, removed keys get 401.

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
cross-simulator validation, as one line of compact JSON; the
field-by-field schema is documented in docs/ARCHITECTURE.md.";

fn parse_args_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        defaults: Vec::new(),
        batch_file: None,
        output: OutputFormat::Text,
        quiet: false,
        help: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        // A synthesis flag sets the job key it spells with underscores.
        let json = match flag.as_str() {
            "--batch" => {
                args.batch_file = Some(value()?);
                continue;
            }
            "--output" => {
                args.output = match value()?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => return Err(format!("unknown output format `{other}`")),
                };
                continue;
            }
            "--quiet" | "-q" => {
                args.quiet = true;
                continue;
            }
            "--help" | "-h" => {
                args.help = true;
                return Ok(args);
            }
            "--model" | "--model-file" | "--effort" | "--strategy" | "--objective" | "--macros"
            | "--seed" => JsonValue::String(value()?),
            "--power" | "--cycle" | "--timeout" | "--max-evals" => {
                let text = value()?;
                JsonValue::Number(text.parse().map_err(|e| format!("bad {flag}: {e}"))?)
            }
            "--no-sharing" => JsonValue::Bool(false),
            "--hw-file" => read_json(&value()?)?,
            other => return Err(format!("unknown flag `{other}`")),
        };
        let key = match flag.as_str() {
            "--no-sharing" => "sharing".to_string(),
            "--hw-file" => "hw".to_string(),
            _ => flag[2..].replace('-', "_"),
        };
        check_flag(&flag, &key, &json)?;
        // A repeated flag keeps its last value.
        args.defaults.retain(|(k, _)| *k != key);
        args.defaults.push((key, json));
    }
    if args.batch_file.is_some() {
        if args.sets("model") || args.sets("model_file") {
            return Err("--batch cannot be combined with --model / --model-file".to_string());
        }
        return Ok(args);
    }
    if !args.sets("power") {
        return Err("--power <watts> is required and must be positive and finite".to_string());
    }
    if args.sets("model") == args.sets("model_file") {
        return Err("exactly one of --model / --model-file is required".to_string());
    }
    Ok(args)
}

/// Checks one flag's value with the job rules, so a bad value is a usage
/// error (exit 2) naming the flag. The value is parsed as the one key of a
/// job whose defaults supply a zoo stand-in for the required `model` and
/// `power`; the model flags themselves are read when the job runs.
fn check_flag(flag: &str, key: &str, value: &JsonValue) -> Result<(), String> {
    if key == "model" || key == "model_file" {
        return Ok(());
    }
    let stand_in = JsonValue::Object(vec![
        ("model".into(), JsonValue::String("alexnet-cifar".into())),
        ("power".into(), JsonValue::Number(1.0)),
    ]);
    let job = JsonValue::Object(vec![(key.to_string(), value.clone())]);
    parse_job(&job, &stand_in)
        .map(drop)
        .map_err(|e| format!("bad {flag}: {e}"))
}

fn zoo_entry(name: &str) -> Result<&'static zoo::ZooEntry, String> {
    zoo::entries()
        .iter()
        .find(|entry| entry.name == name)
        .ok_or_else(|| {
            format!(
                "unknown zoo model `{name}` (available: {})",
                zoo::names().join(", ")
            )
        })
}

/// Reads and parses the JSON document at `path`.
fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Swaps a job's CLI-only `model_file` for the document in that file as
/// an inline `model`, so `parse_job` never reads a path.
fn inline_model_file(job: &JsonValue) -> Result<JsonValue, String> {
    let (Some(fields), Some(path)) = (job.as_object(), job.get("model_file")) else {
        return Ok(job.clone());
    };
    if job.get("model").is_some() {
        return Err("exactly one of `model` / `model_file` is allowed".to_string());
    }
    let path = path.as_str().ok_or("`model_file` must be a path")?;
    let model = read_json(path)?;
    Ok(JsonValue::Object(
        fields
            .iter()
            .map(|(key, value)| match key.as_str() {
                "model_file" => ("model".to_string(), model.clone()),
                _ => (key.clone(), value.clone()),
            })
            .collect(),
    ))
}

/// Parses one job with the flags as its defaults.
fn job_request(job: &JsonValue, args: &Args) -> Result<SynthesisRequest, String> {
    let defaults = inline_model_file(&JsonValue::Object(args.defaults.clone()))?;
    parse_job(&inline_model_file(job)?, &defaults)
}

/// The jobs the command line names: every job of the `--batch` file, or
/// the one job the flags describe.
fn load_jobs(args: &Args) -> Result<Vec<SynthesisRequest>, String> {
    let Some(path) = &args.batch_file else {
        return Ok(vec![job_request(&JsonValue::Object(Vec::new()), args)?]);
    };
    let doc = read_json(path)?;
    let jobs = doc
        .as_array()
        .ok_or_else(|| format!("{path}: expected a JSON array of jobs"))?;
    if jobs.is_empty() {
        return Err(format!("{path}: batch is empty"));
    }
    jobs.iter()
        .enumerate()
        .map(|(i, job)| job_request(job, args).map_err(|e| format!("batch job {i}: {e}")))
        .collect()
}

/// Renders one progress event as a human line for stderr. Returns `None`
/// for events that stay silent at CLI verbosity (per-stage ticks).
///
/// Point/best values are the *objective fitness*, so their unit follows
/// what the event's job optimizes (TOPS/W by default, reciprocal EDP under
/// `--objective edp`); the `done:` line always reports TOPS/W.
fn progress_line(event: &SynthesisEvent, requests: &[SynthesisRequest]) -> Option<String> {
    let unit = |job: &usize| match requests.get(*job).map(|r| r.options.objective) {
        Some(Objective::EnergyDelayProduct) => "1/(ms*mJ)",
        _ => "TOPS/W",
    };
    match event {
        SynthesisEvent::JobStarted { job, label } => {
            Some(format!("[job {job}] {label}: started"))
        }
        SynthesisEvent::DesignPointEvaluated {
            job, point, point_index, best_efficiency, evaluations,
        } => Some(format!(
            "  [job {job}] point {point_index} ({point}): {best_efficiency:.3} {} after {evaluations} evaluations",
            unit(job)
        )),
        SynthesisEvent::ImprovedBest { job, point_index, fitness } => Some(format!(
            "  [job {job}] new best {fitness:.3} {} (point {point_index})",
            unit(job)
        )),
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
    format!(
        "evaluator: {} candidates scored, {} unique evaluations, {} cache hits ({:.0}% hit rate)",
        stats.scored,
        stats.unique_evaluations,
        stats.cache_hits,
        stats.hit_rate() * 100.0
    )
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

/// Runs the jobs and prints their reports: the one job the flags describe,
/// or every job of the `--batch` file.
fn run(args: &Args, requests: &[SynthesisRequest]) -> ExitCode {
    let single = args.batch_file.is_none();
    if !args.quiet {
        match requests {
            [request] if single => eprintln!(
                "synthesizing {} under {} W ...",
                request.model,
                request.options.power_budget.value()
            ),
            _ => eprintln!("synthesizing batch of {} jobs ...", requests.len()),
        }
    }

    // The batch hands every event to the sink on this thread.
    let last_stats: Mutex<Option<EvaluatorStats>> = Mutex::new(None);
    let sink = |event: SynthesisEvent| {
        if let SynthesisEvent::EvaluatorStats { stats, .. } = &event {
            *last_stats.lock().expect("last stats") = Some(*stats);
        }
        if !args.quiet {
            if let Some(line) = progress_line(&event, requests) {
                eprintln!("{line}");
            }
        }
    };
    let mut results = SynthesisEngine::new().synthesize_batch(requests, &sink, &CancelToken::new());

    if !single {
        emit_batch(requests, &results, &args.output);
        return if results.iter().all(Result::is_ok) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let (false, Some(stats)) = (args.quiet, last_stats.into_inner().expect("last stats")) {
        eprintln!("{}", stats_line(&stats));
    }
    match results.remove(0) {
        Ok(result) => {
            match args.output {
                OutputFormat::Text => outln!("{}", result.report_text()),
                OutputFormat::Json => {
                    outln!("{}", SynthesisSummary::from_result(&result).to_json())
                }
            }
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

/// Flags of the `gateway` subcommand: where to listen, queue sizing and
/// the tenant keys file.
#[derive(Debug)]
struct GatewayArgs {
    listen: String,
    keys: Option<String>,
    job_slots: Option<usize>,
    queue_depth: Option<usize>,
    quiet: bool,
}

fn parse_gateway_args<I: IntoIterator<Item = String>>(argv: I) -> Result<GatewayArgs, String> {
    let mut args = GatewayArgs {
        listen: String::new(),
        keys: None,
        job_slots: None,
        queue_depth: None,
        quiet: false,
    };
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
            "--job-slots" => args.job_slots = Some(positive("--job-slots", value("--job-slots")?)?),
            "--queue-depth" => {
                args.queue_depth = Some(positive("--queue-depth", value("--queue-depth")?)?)
            }
            "--quiet" | "-q" => args.quiet = true,
            other => return Err(format!("unknown gateway flag `{other}`")),
        }
    }
    if args.listen.is_empty() {
        return Err("gateway requires --listen <host:port>".to_string());
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
    let mut config = ServiceConfig::default();
    if let Some(slots) = args.job_slots {
        config = config.with_job_slots(slots);
    }
    if let Some(depth) = args.queue_depth {
        config = config.with_queue_depth(depth);
    }
    let service = std::sync::Arc::new(SynthesisService::new(config));
    let mut gateway_config = pimsyn_gateway::GatewayConfig::new()
        .with_tenants(tenants)
        .with_quiet(args.quiet);
    if let Some(path) = &args.keys {
        gateway_config = gateway_config.with_keys_file(path);
    }
    match pimsyn_gateway::serve_gateway(listener, service, gateway_config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: gateway failed: {e}");
            ExitCode::FAILURE
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
        let entry = match zoo_entry(name) {
            Ok(entry) => entry,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let model = (entry.build)();
        let stats = model.stats();
        let shape = model.input_shape();
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
        let entries: Vec<&zoo::ZooEntry> = match args.validate_model.as_deref().map(zoo_entry) {
            Some(Ok(entry)) => vec![entry],
            Some(Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
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

/// Splits `pimsyn export`'s one own flag, `--out <path>`, from the shared
/// synthesis flags.
fn split_export_args(argv: &[String]) -> Result<(Option<String>, Vec<String>), String> {
    let mut out = None;
    let mut rest = Vec::new();
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = Some(it.next().ok_or("missing value for --out")?),
            _ => rest.push(flag),
        }
    }
    Ok((out, rest))
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
    let (out, rest) = match split_export_args(&argv[1..]) {
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

    let result = load_jobs(&args).and_then(|mut requests| {
        let request = requests.remove(0);
        pimsyn::Synthesizer::new(request.options)
            .synthesize(&request.model)
            .map_err(|e| e.to_string())
    });
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
    let text = pimsyn_export::to_pimsim_config(&result);
    match &out {
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("gateway") => return run_gateway(&argv[1..]),
        Some("zoo") => return run_zoo(&argv[1..]),
        Some("export") => return run_export(&argv[1..]),
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
    match load_jobs(&args) {
        Ok(requests) => run(&args, &requests),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use pimsyn::{Effort, DEFAULT_SEED};
    use pimsyn_arch::Watts;

    use super::*;

    /// Splits a command line at whitespace.
    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<Args, String> {
        parse_args_from(argv(line))
    }

    /// The one job a non-batch command line describes.
    fn request(line: &str) -> SynthesisRequest {
        load_jobs(&parse(line).unwrap()).unwrap().remove(0)
    }

    fn job(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    #[test]
    fn minimal_invocation_parses_with_library_defaults() {
        let args = parse("--model alexnet-cifar --power 9").unwrap();
        assert_eq!(args.output, OutputFormat::Text);
        assert!(!args.quiet);
        let request = request("--model alexnet-cifar --power 9");
        assert_eq!(request.model.name(), "alexnet-cifar");
        assert_eq!(request.options.power_budget, Watts(9.0));
        // The CLI seed default is the library default (the flow is
        // deterministic given the seed, so CLI and API runs agree).
        assert_eq!(request.options.seed, DEFAULT_SEED);
        assert_eq!(request.options.effort, Effort::Fast);
        assert!(request.options.time_budget.is_none());
        assert!(request.options.max_evaluations.is_none());
    }

    #[test]
    fn flags_fill_the_job_keys_they_spell() {
        let flags = request(
            "--model alexnet-cifar --power 9 --effort paper --strategy woho --objective edp \
             --macros identical --no-sharing --seed 18446744073709551615 --cycle 2 \
             --timeout 30 --max-evals 100",
        );
        let body = job(
            r#"{"model": "alexnet-cifar", "power": 9, "effort": "paper", "strategy": "woho",
                "objective": "edp", "macros": "identical", "sharing": false,
                "seed": "18446744073709551615", "cycle": 2, "timeout": 30,
                "max_evals": 100}"#,
        );
        let body = parse_job(&body, &JsonValue::Null).unwrap();
        assert_eq!(flags.model, body.model);
        assert_eq!(flags.options, body.options);
        assert_eq!(flags.options.seed, u64::MAX);
        // A repeated flag keeps its last value.
        let request = request("--model vgg16 --power 9 --seed 3 --seed 4");
        assert_eq!(request.options.seed, 4);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse("--model vgg16 --power 9 --frobnicate").unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        // Names outside the CLI fall through to the same error, which
        // `main` answers with the usage text and exit code 2.
        for removed in [
            "--model vgg16 --power 9 --remote-token-file f",
            "worker-serve --listen 127.0.0.1:0",
            "worker-stop --connect 127.0.0.1:1",
            "--model vgg16 --power 9 --backend inline",
            "--model vgg16 --power 9 --eval-cache-file f",
            "--model vgg16 --power 9 --eval-cache off",
            "--model vgg16 --power 9 --eval-cache-capacity 5",
            "--model vgg16 --power 9 --eval-cache-max-entries 5",
            "--model vgg16 --power 9 --max-unique-evals 5",
            "--worker",
            "serve --listen 127.0.0.1:0",
            "submit --connect h:1",
        ] {
            let err = parse(removed).unwrap_err();
            assert!(err.contains("unknown flag"), "{removed:?}: {err}");
        }
    }

    #[test]
    fn missing_power_is_rejected() {
        let err = parse("--model vgg16").unwrap_err();
        assert!(err.contains("--power"), "{err}");
        for bad in ["-3", "inf", "1e400", "NaN"] {
            let err = parse(&format!("--model vgg16 --power {bad}")).unwrap_err();
            assert!(err.contains("positive"), "{bad}: {err}");
        }
    }

    #[test]
    fn model_and_model_file_are_mutually_exclusive() {
        let err = parse("--model vgg16 --model-file net.json --power 9").unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = parse("--power 9").unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn bad_timeout_is_rejected() {
        let err = parse("--model vgg16 --power 9 --timeout soon").unwrap_err();
        assert!(err.contains("bad --timeout"), "{err}");
        let err = parse("--model vgg16 --power 9 --timeout 0").unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse("--model vgg16 --power 9 --timeout").unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        // Values Duration::from_secs_f64 would panic on must error cleanly.
        for huge in ["inf", "1e300", "nan"] {
            let err = parse(&format!("--model vgg16 --power 9 --timeout {huge}")).unwrap_err();
            assert!(err.contains("--timeout"), "{err}");
        }
    }

    #[test]
    fn budget_flags_parse() {
        let request = request("--model vgg16 --power 9 --timeout 1.5 --max-evals 100");
        let limit = Duration::from_secs_f64(1.5);
        assert_eq!(request.options.time_budget, Some(limit));
        assert_eq!(request.options.max_evaluations, Some(100));
        let err = parse("--model vgg16 --power 9 --max-evals 0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn batch_conflicts_with_model_flags() {
        let err = parse("--batch jobs.json --model vgg16").unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        // Batch mode needs neither --power nor --model.
        let args = parse("--batch jobs.json").unwrap();
        assert_eq!(args.batch_file.as_deref(), Some("jobs.json"));
        // ... but an explicit --power must still be sane.
        for bad in ["-1", "inf", "1e400"] {
            let err = parse(&format!("--batch jobs.json --power {bad}")).unwrap_err();
            assert!(err.contains("positive"), "{bad}: {err}");
        }
    }

    #[test]
    fn batch_power_flag_is_the_job_default() {
        let cli = parse("--batch jobs.json --power 9").unwrap();
        let request = job_request(&job(r#"{"model": "alexnet-cifar"}"#), &cli).unwrap();
        assert_eq!(request.options.power_budget, Watts(9.0));
        // A job-level field still wins over the CLI default.
        let request =
            job_request(&job(r#"{"model": "alexnet-cifar", "power": 12}"#), &cli).unwrap();
        assert_eq!(request.options.power_budget, Watts(12.0));
        // Without either, the job has no power.
        let bare = parse("--batch jobs.json").unwrap();
        let err = job_request(&job(r#"{"model": "alexnet-cifar"}"#), &bare).unwrap_err();
        assert!(err.contains("missing `power`"), "{err}");
    }

    /// Writes `text` to a fresh temporary file for one test.
    fn temp_file(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("pimsyn-cli-{name}-{}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn hw_file_is_the_inline_hw_object() {
        // Parses the flags with `--hw-file` naming a file that holds `text`.
        let with_hw_file = |text: &str| {
            let path = temp_file("hw.json", text);
            let line = format!(
                "--model alexnet-cifar --power 9 --hw-file {}",
                path.display()
            );
            let parsed = parse(&line);
            std::fs::remove_file(&path).unwrap();
            (parsed, path.display().to_string())
        };
        let (args, _) = with_hw_file(r#"{"mvm_latency_ns": 50}"#);
        let flags = load_jobs(&args.unwrap()).unwrap().remove(0);
        let body = job(r#"{"model": "alexnet-cifar", "power": 9, "hw": {"mvm_latency_ns": 50}}"#);
        let body = parse_job(&body, &JsonValue::Null).unwrap();
        assert_eq!(flags.options, body.options);
        let default = request("--model alexnet-cifar --power 9").options;
        assert_ne!(flags.options.hw, default.hw);

        // A file that is not JSON is a usage error naming the path, and one
        // that breaks a hardware rule is one naming the key.
        let (args, path) = with_hw_file("mvm_latency_ns = 50");
        let err = args.unwrap_err();
        assert!(err.contains(&format!("cannot parse {path}")), "{err}");
        let (args, _) = with_hw_file(r#"{"scratchpad_bus_bits": 0}"#);
        let err = args.unwrap_err();
        assert!(err.starts_with("bad --hw-file"), "{err}");
        assert!(err.contains("scratchpad_bus_bits"), "{err}");
    }

    fn parse_gateway(line: &str) -> Result<GatewayArgs, String> {
        parse_gateway_args(argv(line))
    }

    #[test]
    fn gateway_args_parse_and_validate() {
        let args =
            parse_gateway("--listen 127.0.0.1:0 --keys tenants.json --job-slots 2 --queue-depth 8")
                .unwrap();
        assert_eq!(args.listen, "127.0.0.1:0");
        assert_eq!(args.keys.as_deref(), Some("tenants.json"));
        assert_eq!(args.job_slots, Some(2));
        assert_eq!(args.queue_depth, Some(8));

        let err = parse_gateway("").unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        let err = parse_gateway("--listen x --frobnicate").unwrap_err();
        assert!(err.contains("unknown gateway flag"), "{err}");

        for removed in [
            "--worker-registry h:1",
            "--remote-token-file h:1",
            "--backend inline",
            "--eval-cache-file f",
            "--scheduler fair",
        ] {
            let err = parse_gateway(&format!("--listen x {removed}")).unwrap_err();
            assert!(err.contains("unknown gateway flag"), "{err}");
        }
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
        let args = parse("--model vgg16 --power 9 --output json").unwrap();
        assert_eq!(args.output, OutputFormat::Json);
        let err = parse("--model vgg16 --power 9 --output xml").unwrap_err();
        assert!(err.contains("unknown output format"), "{err}");
    }

    #[test]
    fn help_short_circuits_validation() {
        let args = parse("--help").unwrap();
        assert!(args.help);
    }

    #[test]
    fn batch_job_request_applies_overrides_and_defaults() {
        let cli = parse("--batch jobs.json --seed 7 --effort paper").unwrap();
        let job = job(r#"{"model": "alexnet-cifar", "power": 9, "effort": "fast",
                "label": "smoke", "max_evals": 50}"#);
        let request = job_request(&job, &cli).unwrap();
        assert_eq!(request.display_label(), "smoke");
        assert_eq!(request.options.power_budget, Watts(9.0));
        assert_eq!(request.options.effort, Effort::Fast); // job override
        assert_eq!(request.options.seed, 7); // CLI default inherited
        assert_eq!(request.options.max_evaluations, Some(50));
    }

    #[test]
    fn batch_job_request_rejects_bad_jobs() {
        let cli = parse("--batch jobs.json").unwrap();
        for (job, needle) in [
            (r#"{"power": 9}"#, "missing `model`"),
            (r#"{"model": "alexnet-cifar"}"#, "power"),
            (r#"{"model": "nope", "power": 9}"#, "unknown zoo model"),
            (
                r#"{"model": "alexnet-cifar", "power": 9, "surprise": 1}"#,
                "unknown field",
            ),
            (r#"[1, 2]"#, "must be a JSON object"),
            (
                r#"{"model": "alexnet-cifar", "power": 9, "backend": "inline"}"#,
                "unknown field `backend`",
            ),
            (
                r#"{"model": "alexnet-cifar", "power": 9, "macro_mode": "identical"}"#,
                "unknown field `macro_mode`",
            ),
            (
                r#"{"model": "alexnet-cifar", "power": -2}"#,
                "`power` must be positive",
            ),
            (
                r#"{"model": "alexnet-cifar", "power": 1e400}"#,
                "`power` must be positive",
            ),
            // An infinite number inside an inline model re-serializes as
            // JSON, so the model's own ingestion error surfaces.
            (
                r#"{"model": {"name": "x", "pad": 1e400}, "power": 9}"#,
                "model ingestion error: missing `input`",
            ),
            // The hyphenated keys of the old batch format name their
            // new spelling.
            (r#"{"max-evals": 5}"#, "`max_evals`"),
            (
                r#"{"model": "alexnet-cifar", "power": 9, "max_unique_evals": 5}"#,
                "unknown field `max_unique_evals`",
            ),
            (r#"{"model-file": "net.json"}"#, "`model_file`"),
            (r#"{"model": "vgg16", "model_file": "x"}"#, "exactly one"),
        ] {
            let err = job_request(&JsonValue::parse(job).unwrap(), &cli).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        // Integer fields past 2^53, negative, fractional or (budgets) zero
        // are rejected instead of saturating.
        for (field, value) in [
            ("seed", "1e20"),
            ("seed", "-1"),
            ("seed", "1.5"),
            ("cycle", "1e300"),
            ("cycle", "-2"),
            ("max_evals", "1e20"),
            ("max_evals", "0"),
        ] {
            let job = format!(r#"{{"model": "alexnet-cifar", "power": 9, "{field}": {value}}}"#);
            let err = job_request(&JsonValue::parse(&job).unwrap(), &cli).unwrap_err();
            assert!(err.contains(&format!("`{field}`")), "{job}: {err}");
        }
    }

    #[test]
    fn model_file_becomes_an_inline_model() {
        let model = zoo::alexnet_cifar(10);
        let path = temp_file("net.json", &onnx::to_json(&model));
        let line = format!("--model-file {} --power 9", path.display());
        assert_eq!(request(&line).model, model);
        std::fs::remove_file(&path).unwrap();
        let err = load_jobs(&parse(&line).unwrap()).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn unknown_model_error_lists_zoo_names() {
        let err = zoo_entry("nope").unwrap_err();
        assert!(err.contains("unknown zoo model `nope`"), "{err}");
        for name in zoo::names() {
            assert!(err.contains(name), "`{err}` should list `{name}`");
        }
    }

    fn parse_zoo(line: &str) -> Result<ZooArgs, String> {
        parse_zoo_args(argv(line))
    }

    #[test]
    fn zoo_args_parse_and_validate() {
        assert_eq!(parse_zoo("").unwrap(), ZooArgs::default());
        let args = parse_zoo("--describe mobilenet").unwrap();
        assert_eq!(args.describe.as_deref(), Some("mobilenet"));
        let args = parse_zoo("--validate").unwrap();
        assert!(args.validate);
        assert_eq!(args.validate_model, None);
        let args = parse_zoo("--validate vgg16").unwrap();
        assert_eq!(args.validate_model.as_deref(), Some("vgg16"));
        let args = parse_zoo("--validate --output json").unwrap();
        assert!(args.validate && args.json);
        assert_eq!(args.validate_model, None);

        let err = parse_zoo("--describe x --validate").unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_zoo("--output xml").unwrap_err();
        assert!(err.contains("output format"), "{err}");
        let err = parse_zoo("--frobnicate").unwrap_err();
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
        let (out, rest) = split_export_args(&argv("--model vgg16 --power 9 --out x")).unwrap();
        assert_eq!(out.as_deref(), Some("x"));
        assert_eq!(rest, argv("--model vgg16 --power 9"));
        // The remainder still parses as ordinary synthesis flags.
        let args = parse_args_from(rest).unwrap();
        assert_eq!(load_jobs(&args).unwrap()[0].model.name(), "vgg16");

        // A flag `export` does not own, such as the removed `--pretty`,
        // reaches the synthesis flags and fails there as unknown.
        let (_, rest) = split_export_args(&argv("--model vgg16 --power 9 --pretty")).unwrap();
        let err = parse_args_from(rest).unwrap_err();
        assert!(err.contains("--pretty"), "{err}");

        let err = split_export_args(&argv("--out")).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }
}
