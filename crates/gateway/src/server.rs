//! The gateway server: accept loop, routing, drain.
//!
//! One thread per connection, one request per connection (see
//! [`crate::http`]). The [`SynthesisService`] underneath owns every job:
//! queueing, scheduling, execution and the replayable event log. The
//! gateway keeps no job table; each `/v1/jobs/{id}` request looks its job
//! up in the service, and a per-job sink folds the job's events into the
//! metrics. Routes:
//!
//! | Route                     | Verb   | Purpose                          |
//! |---------------------------|--------|----------------------------------|
//! | `/v1/jobs`                | POST   | submit a job (202 + id)          |
//! | `/v1/jobs/{id}`           | GET    | status                           |
//! | `/v1/jobs/{id}`           | DELETE | cancel                           |
//! | `/v1/jobs/{id}/result`    | GET    | block for (or poll) the summary  |
//! | `/v1/jobs/{id}/events`    | GET    | SSE / NDJSON event stream        |
//! | `/v1/drain`               | POST   | graceful drain, then exit        |
//! | `/metrics`                | GET    | Prometheus text exposition       |
//! | `/healthz`                | GET    | liveness probe                   |
//!
//! With a tenant registry, `/v1/*` requires `Authorization: Bearer <key>`
//! and jobs are invisible across tenants (404, not 403 — ids don't leak).
//! `/metrics` and `/healthz` stay open for scrapers and probes.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pimsyn::{
    event_to_json, EvaluatorStats, EventSink, JobHandle, ServiceError, SynthesisEvent,
    SynthesisService, SynthesisSummary,
};
use pimsyn_model::json::JsonValue;

use crate::http::{self, HttpParseError, HttpRequest};
use crate::metrics::MetricsRegistry;
use crate::payload;
use crate::tenant::{TenantRegistry, TenantSource};

/// Gateway-level policy, beyond the service's own configuration.
#[derive(Debug, Clone, Default)]
pub struct GatewayConfig {
    /// API keys and per-tenant policies; empty = open (no auth, one
    /// anonymous lane).
    pub tenants: TenantRegistry,
    /// The keys file behind [`tenants`](Self::tenants), when it came from
    /// disk. With a path set the gateway re-reads the file whenever its
    /// mtime/size changes, so keys rotate on a live gateway — added keys
    /// start authenticating, removed keys start getting 401s — without a
    /// restart.
    pub keys_file: Option<String>,
    /// Suppress per-request log lines on stderr (the script-facing
    /// `listening on <addr>` line prints regardless).
    pub quiet: bool,
    /// Interval between keep-alive frames on idle event streams. `None`
    /// reads `PIMSYN_GATEWAY_HEARTBEAT_SECS` from the environment, falling
    /// back to [`DEFAULT_HEARTBEAT`]; `Some(Duration::ZERO)` disables
    /// heartbeats entirely.
    pub heartbeat: Option<Duration>,
}

/// Default keep-alive interval for idle event streams: short enough that
/// common reverse-proxy idle timeouts (30–60 s) never fire mid-job.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(15);

impl GatewayConfig {
    /// An open, chatty gateway.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a tenant registry (enables bearer-token auth).
    #[must_use]
    pub fn with_tenants(mut self, tenants: TenantRegistry) -> Self {
        self.tenants = tenants;
        self
    }

    /// Points the gateway at the keys file its tenant registry was loaded
    /// from, enabling live key rotation (mtime-based reload).
    #[must_use]
    pub fn with_keys_file(mut self, path: impl Into<String>) -> Self {
        self.keys_file = Some(path.into());
        self
    }

    /// Sets request logging verbosity.
    #[must_use]
    pub fn with_quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// Sets the idle-stream keep-alive interval explicitly
    /// (`Duration::ZERO` disables heartbeats).
    #[must_use]
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// The effective heartbeat interval: the explicit setting, else the
    /// `PIMSYN_GATEWAY_HEARTBEAT_SECS` environment variable (0 disables),
    /// else [`DEFAULT_HEARTBEAT`].
    fn heartbeat_interval(&self) -> Duration {
        self.heartbeat.unwrap_or_else(|| {
            std::env::var("PIMSYN_GATEWAY_HEARTBEAT_SECS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map_or(DEFAULT_HEARTBEAT, Duration::from_secs)
        })
    }
}

/// The per-job event sink: folds terminal statistics into the metrics
/// registry.
struct JobSink {
    /// Owning tenant ("" = anonymous), the metrics label.
    tenant: String,
    /// When the submit was accepted — the latency histogram measures from
    /// here to the terminal event, queue wait included.
    submitted: Instant,
    metrics: Arc<MetricsRegistry>,
    /// The latest evaluator-stats snapshot; the value at `Finished` time
    /// summarizes the job (each snapshot sums the points reported so far).
    last_stats: Mutex<Option<EvaluatorStats>>,
}

impl EventSink for JobSink {
    fn emit(&self, event: SynthesisEvent) {
        match event {
            SynthesisEvent::EvaluatorStats { stats, .. } => {
                *self.last_stats.lock().expect("job sink") = Some(stats);
            }
            SynthesisEvent::Finished { .. } => {
                let latency = self.submitted.elapsed().as_secs_f64();
                self.metrics.record_finished(&self.tenant, latency);
                if let Some(stats) = &*self.last_stats.lock().expect("job sink") {
                    self.metrics.record_eval_stats(stats);
                }
            }
            _ => {}
        }
    }
}

struct GatewayShared {
    service: Arc<SynthesisService>,
    tenants: TenantSource,
    metrics: Arc<MetricsRegistry>,
    stop: AtomicBool,
    addr: SocketAddr,
    quiet: bool,
    heartbeat: Duration,
}

impl GatewayShared {
    fn note(&self, message: &str) {
        if !self.quiet {
            eprintln!("pimsyn gateway [{}]: {message}", self.addr);
        }
    }
}

/// Runs the gateway behind `listener` until a `POST /v1/drain` completes,
/// blocking the calling thread.
///
/// On startup the actually-bound address — including the kernel-resolved
/// port when the listener was bound to port 0 — prints to stderr as
/// `pimsyn gateway: listening on <addr>` regardless of
/// [`quiet`](GatewayConfig::quiet), so scripts can bind port 0 instead of
/// racing for free ports.
///
/// # Errors
///
/// Propagates listener-level IO errors; per-connection errors only drop
/// that connection.
pub fn serve_gateway(
    listener: TcpListener,
    service: Arc<SynthesisService>,
    config: GatewayConfig,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let heartbeat = config.heartbeat_interval();
    let shared = Arc::new(GatewayShared {
        service,
        tenants: TenantSource::new(config.tenants, config.keys_file),
        metrics: Arc::new(MetricsRegistry::new()),
        stop: AtomicBool::new(false),
        addr,
        quiet: config.quiet,
        heartbeat,
    });
    // Unconditional: the script-facing bound-address line (see above).
    eprintln!("pimsyn gateway: listening on {addr}");
    let tenants = shared.tenants.current();
    if tenants.requires_auth() {
        shared.note(&format!(
            "bearer-token auth enabled ({} tenants)",
            tenants.len()
        ));
    }
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        thread::spawn(move || handle_connection(&shared, stream));
    }
    shared.note("stopped");
    Ok(())
}

/// Handle to a gateway running on a background thread.
#[derive(Debug)]
pub struct GatewayHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<std::io::Result<()>>,
}

impl GatewayHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the gateway to stop (a completed drain) and returns its
    /// exit result.
    ///
    /// # Panics
    ///
    /// Panics if the gateway thread itself panicked (a bug).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("gateway thread panicked")
    }
}

/// [`serve_gateway`] on a background thread, returning with a handle.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve_gateway_in_background(
    listener: TcpListener,
    service: Arc<SynthesisService>,
    config: GatewayConfig,
) -> std::io::Result<GatewayHandle> {
    let addr = listener.local_addr()?;
    let thread = thread::spawn(move || serve_gateway(listener, service, config));
    Ok(GatewayHandle { addr, thread })
}

/// Unblocks an accept loop that is waiting in `listener.incoming()` by
/// making (and dropping) one throwaway connection.
fn poke_listener(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn error_body(code: &str, detail: &str) -> Vec<u8> {
    object(vec![
        ("code", JsonValue::String(code.to_string())),
        ("error", JsonValue::String(detail.to_string())),
    ])
    .to_string()
    .into_bytes()
}

/// The response of one routed request: status, content type, extra
/// headers, body. The event stream writes its response itself.
struct Outcome {
    status: u16,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Outcome {
    fn json(status: u16, body: JsonValue) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: body.to_string().into_bytes(),
        }
    }

    fn error(status: u16, code: &str, detail: &str) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: error_body(code, detail),
        }
    }
}

fn handle_connection(shared: &Arc<GatewayShared>, mut stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let request = match http::read_request(&mut reader) {
        Ok(request) => request,
        Err(HttpParseError::ConnectionClosed) => return,
        Err(e @ HttpParseError::BodyTooLarge { .. }) => {
            shared.metrics.record_http("(malformed)", 413);
            let _ = http::write_response(
                &mut stream,
                413,
                "application/json",
                &[],
                &error_body("body_too_large", &e.to_string()),
            );
            return;
        }
        Err(e) => {
            shared.metrics.record_http("(malformed)", 400);
            let _ = http::write_response(
                &mut stream,
                400,
                "application/json",
                &[],
                &error_body("bad_request", &e.to_string()),
            );
            return;
        }
    };
    route(shared, &mut stream, &request);
}

/// Splits `/v1/jobs/{id}[/leaf]` into `(id, leaf)`.
fn job_path(path: &str) -> Option<(u64, Option<&str>)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    let (id, leaf) = match rest.split_once('/') {
        Some((id, leaf)) => (id, Some(leaf)),
        None => (rest, None),
    };
    Some((id.parse().ok()?, leaf))
}

fn route(shared: &Arc<GatewayShared>, stream: &mut TcpStream, request: &HttpRequest) {
    // Resolve authentication once against the keys file's *current* state
    // (rotations apply to the very next request); per-route code decides
    // whether the route needs it. `Ok(None)` = open mode (no registry).
    let tenants = shared.tenants.current();
    let auth: Result<Option<&pimsyn::TenantPolicy>, ()> = if tenants.requires_auth() {
        match request.bearer_token().and_then(|k| tenants.resolve(k)) {
            Some(policy) => Ok(Some(policy)),
            None => Err(()),
        }
    } else {
        Ok(None)
    };

    let (pattern, outcome) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => ("/healthz", handle_health(shared)),
        ("GET", "/metrics") => ("/metrics", handle_metrics(shared)),
        ("POST", "/v1/jobs") => (
            "/v1/jobs",
            match auth {
                Ok(tenant) => handle_submit(shared, request, tenant),
                Err(()) => unauthorized(),
            },
        ),
        ("POST", "/v1/drain") => (
            "/v1/drain",
            match auth {
                Ok(_) => handle_drain(shared),
                Err(()) => unauthorized(),
            },
        ),
        (method, path) => match job_path(path) {
            Some((id, leaf)) => {
                let pattern = match leaf {
                    None => "/v1/jobs/{id}",
                    Some("result") => "/v1/jobs/{id}/result",
                    Some("events") => "/v1/jobs/{id}/events",
                    Some(_) => {
                        respond(
                            shared,
                            stream,
                            "/v1/jobs/{id}",
                            Outcome::error(404, "not_found", "no such route"),
                        );
                        return;
                    }
                };
                let tenant = match auth {
                    Ok(tenant) => tenant,
                    Err(()) => {
                        respond(shared, stream, pattern, unauthorized());
                        return;
                    }
                };
                // A job is visible only to its submitting tenant.
                let job = shared.service.job(id).filter(|job| {
                    job.tenant().unwrap_or("") == tenant.map_or("", |t| t.name.as_str())
                });
                let outcome = match (method, leaf, job) {
                    (_, _, None) => Outcome::error(404, "not_found", "unknown job id"),
                    ("GET", None, Some(job)) => Outcome::json(200, status_body(&job)),
                    ("DELETE", None, Some(job)) => handle_cancel(&job),
                    ("GET", Some("result"), Some(job)) => handle_result(request, &job),
                    ("GET", Some("events"), Some(job)) => {
                        // Streaming: writes the response itself.
                        shared.metrics.record_http(pattern, 200);
                        stream_events(shared, stream, request, &job);
                        return;
                    }
                    _ => Outcome::error(405, "method_not_allowed", "unsupported method"),
                };
                (pattern, outcome)
            }
            None => (
                "(unknown)",
                Outcome::error(404, "not_found", "no such route"),
            ),
        },
    };
    respond(shared, stream, pattern, outcome);
}

fn respond(shared: &GatewayShared, stream: &mut TcpStream, pattern: &str, outcome: Outcome) {
    shared.metrics.record_http(pattern, outcome.status);
    shared.note(&format!("{} -> {}", pattern, outcome.status));
    let _ = http::write_response(
        stream,
        outcome.status,
        outcome.content_type,
        &outcome.extra,
        &outcome.body,
    );
}

fn unauthorized() -> Outcome {
    let mut outcome = Outcome::error(401, "auth_failed", "bad or missing bearer token");
    outcome
        .extra
        .push(("WWW-Authenticate", "Bearer".to_string()));
    outcome
}

fn handle_health(shared: &GatewayShared) -> Outcome {
    let snapshot = shared.service.snapshot();
    Outcome::json(
        200,
        object(vec![
            ("ok", JsonValue::Bool(!snapshot.shut_down)),
            ("draining", JsonValue::Bool(snapshot.draining)),
        ]),
    )
}

fn handle_submit(
    shared: &Arc<GatewayShared>,
    request: &HttpRequest,
    tenant: Option<&pimsyn::TenantPolicy>,
) -> Outcome {
    let job = match payload::parse_http_job(&request.body) {
        Ok(job) => job,
        Err(detail) => return Outcome::error(400, "bad_job", &detail),
    };
    let tenant_name = tenant.map_or("", |t| t.name.as_str());
    let sink: Arc<dyn EventSink> = Arc::new(JobSink {
        tenant: tenant_name.to_string(),
        submitted: Instant::now(),
        metrics: Arc::clone(&shared.metrics),
        last_stats: Mutex::new(None),
    });
    let id = match shared.service.submit_with(job, tenant.cloned(), Some(sink)) {
        Ok(handle) => handle.id(),
        Err(ServiceError::QuotaExceeded { tenant, limit }) => {
            let mut outcome = Outcome::json(
                429,
                object(vec![
                    ("code", JsonValue::String("quota_exceeded".into())),
                    ("tenant", JsonValue::String(tenant)),
                    ("limit", JsonValue::Number(limit as f64)),
                ]),
            );
            outcome.extra.push(("Retry-After", "1".to_string()));
            return outcome;
        }
        Err(ServiceError::QueueFull { depth }) => {
            let mut outcome = Outcome::json(
                429,
                object(vec![
                    ("code", JsonValue::String("queue_full".into())),
                    ("depth", JsonValue::Number(depth as f64)),
                ]),
            );
            outcome.extra.push(("Retry-After", "1".to_string()));
            return outcome;
        }
        Err(ServiceError::Draining) => {
            return Outcome::error(503, "draining", "gateway is draining")
        }
        Err(e) => return Outcome::error(503, "shut_down", &e.to_string()),
    };
    shared.metrics.record_submitted(tenant_name);
    Outcome::json(
        202,
        object(vec![
            ("id", JsonValue::Number(id as f64)),
            ("status", JsonValue::String("queued".into())),
        ]),
    )
}

/// `{"id":…,"status":…}`: the status route's body, and `/result`'s while
/// a `?wait=0` poll finds the job unfinished.
fn status_body(job: &JobHandle) -> JsonValue {
    object(vec![
        ("id", JsonValue::Number(job.id() as f64)),
        ("status", JsonValue::String(job.status().to_string())),
    ])
}

fn handle_cancel(job: &JobHandle) -> Outcome {
    job.cancel();
    Outcome::json(
        200,
        object(vec![
            ("id", JsonValue::Number(job.id() as f64)),
            ("cancelled", JsonValue::Bool(true)),
        ]),
    )
}

fn handle_result(request: &HttpRequest, job: &JobHandle) -> Outcome {
    // `?wait=0` polls: not-finished is 202 + current status instead of
    // blocking the connection until the job completes.
    if request.query_param("wait") == Some("0") && !job.is_finished() {
        return Outcome::json(202, status_body(job));
    }
    match job.await_result() {
        // The bare summary document — byte-comparable (modulo
        // `elapsed_s`) with `pimsyn --output json`.
        Ok(result) => Outcome::json(200, SynthesisSummary::from_result(&result).to_json()),
        Err(e) => Outcome::error(500, "job_failed", &e.to_string()),
    }
}

fn handle_drain(shared: &Arc<GatewayShared>) -> Outcome {
    shared.note("drain requested");
    shared.service.begin_drain();
    let background = Arc::clone(shared);
    // Finish the queue off-thread so this request gets its 202 now; the
    // accept loop exits once the last job completes.
    thread::spawn(move || {
        background.service.drain();
        background.stop.store(true, Ordering::SeqCst);
        poke_listener(background.addr);
    });
    Outcome::json(202, object(vec![("draining", JsonValue::Bool(true))]))
}

fn handle_metrics(shared: &GatewayShared) -> Outcome {
    use std::fmt::Write as _;
    let mut body = shared.metrics.render();
    let snapshot = shared.service.snapshot();
    let _ = writeln!(
        body,
        "# HELP pimsyn_gateway_queue_depth Jobs waiting in the service queue.\n\
         # TYPE pimsyn_gateway_queue_depth gauge\n\
         pimsyn_gateway_queue_depth {}",
        snapshot.queued
    );
    let _ = writeln!(
        body,
        "# HELP pimsyn_gateway_running_jobs Jobs occupying service job slots.\n\
         # TYPE pimsyn_gateway_running_jobs gauge\n\
         pimsyn_gateway_running_jobs {}",
        snapshot.running
    );
    let _ = writeln!(
        body,
        "# HELP pimsyn_gateway_draining Whether a graceful drain is in progress.\n\
         # TYPE pimsyn_gateway_draining gauge\n\
         pimsyn_gateway_draining {}",
        u8::from(snapshot.draining)
    );
    body.push_str(
        "# HELP pimsyn_gateway_tenant_queued Waiting jobs per tenant (empty = anonymous).\n\
         # TYPE pimsyn_gateway_tenant_queued gauge\n",
    );
    for counts in &snapshot.tenants {
        let _ = writeln!(
            body,
            "pimsyn_gateway_tenant_queued{{tenant=\"{}\"}} {}",
            http::escape_label(&counts.tenant),
            counts.queued
        );
    }
    body.push_str(
        "# HELP pimsyn_gateway_tenant_running Running jobs per tenant (empty = anonymous).\n\
         # TYPE pimsyn_gateway_tenant_running gauge\n",
    );
    for counts in &snapshot.tenants {
        let _ = writeln!(
            body,
            "pimsyn_gateway_tenant_running{{tenant=\"{}\"}} {}",
            http::escape_label(&counts.tenant),
            counts.running
        );
    }
    Outcome {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        extra: Vec::new(),
        body: body.into_bytes(),
    }
}

/// Replays a job's event log from the start and follows it live until the
/// job finishes. SSE frames by default; NDJSON lines with `?format=ndjson`
/// (or `Accept: application/x-ndjson`). Idle streams carry periodic
/// keep-alive frames (SSE comments / `{"heartbeat":true}` lines) at the
/// configured [`GatewayConfig::heartbeat`] interval.
fn stream_events(
    shared: &GatewayShared,
    stream: &mut TcpStream,
    request: &HttpRequest,
    job: &JobHandle,
) {
    let ndjson = request.query_param("format") == Some("ndjson")
        || request
            .header("accept")
            .is_some_and(|a| a.contains("application/x-ndjson"));
    let content_type = if ndjson {
        "application/x-ndjson"
    } else {
        "text/event-stream"
    };
    if http::write_stream_header(stream, 200, content_type).is_err() {
        return;
    }
    shared.note(&format!("streaming events of job {}", job.id()));
    let heartbeat = Some(shared.heartbeat).filter(|h| !h.is_zero());
    let mut cursor = 0usize;
    loop {
        let (batch, finished) = job.events_since(cursor, heartbeat);
        cursor += batch.len();
        let written = if batch.is_empty() && !finished {
            // A heartbeat interval passed with nothing to send. Long-running
            // stages emit nothing for a while, so a keep-alive frame stops
            // proxies with idle timeouts from severing the stream mid-job.
            // SSE comment lines are ignored by `EventSource`; NDJSON
            // consumers see a `{"heartbeat":true}` line to skip.
            if ndjson {
                writeln!(
                    stream,
                    "{}",
                    object(vec![("heartbeat", JsonValue::Bool(true))])
                )
            } else {
                write!(stream, ": heartbeat\n\n")
            }
        } else {
            batch.iter().try_for_each(|event| {
                let json = event_to_json(event);
                if ndjson {
                    writeln!(stream, "{json}")
                } else {
                    write!(stream, "data: {json}\n\n")
                }
            })
        };
        if written.is_err() {
            return; // subscriber hung up
        }
        if finished {
            let _ = if ndjson {
                writeln!(stream, "{}", object(vec![("done", JsonValue::Bool(true))]))
            } else {
                write!(stream, "event: done\ndata: {{}}\n\n")
            };
            let _ = stream.flush();
            return;
        }
        let _ = stream.flush();
    }
}
