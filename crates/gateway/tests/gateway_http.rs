//! End-to-end exercise of the HTTP gateway over raw TCP sockets: REST job
//! lifecycle with bit-identical results, bearer-token tenancy, typed quota
//! rejections, event streaming, Prometheus metrics, and graceful drain.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use pimsyn::{EventSink, JobHandle, ServiceConfig, SynthesisEvent, SynthesisService, Synthesizer};
use pimsyn_gateway::http::roundtrip;
use pimsyn_gateway::{
    parse_http_job, serve_gateway_in_background, GatewayConfig, GatewayHandle, TenantRegistry,
};
use pimsyn_model::json::JsonValue;

fn start_gateway(config: GatewayConfig, slots: usize) -> (GatewayHandle, String) {
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(slots));
    start_gateway_on(Arc::new(service), config)
}

fn start_gateway_on(
    service: Arc<SynthesisService>,
    config: GatewayConfig,
) -> (GatewayHandle, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = serve_gateway_in_background(listener, service, config).expect("gateway");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn get(addr: &str, path: &str, auth: Option<&str>) -> (u16, HashMap<String, String>, Vec<u8>) {
    request(addr, "GET", path, auth, None)
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    auth: Option<&str>,
    body: Option<&str>,
) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: gw\r\n");
    if let Some(key) = auth {
        raw.push_str(&format!("Authorization: Bearer {key}\r\n"));
    }
    match body {
        Some(body) => raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len())),
        None => raw.push_str("\r\n"),
    }
    roundtrip(addr, raw.as_bytes()).expect("http round trip")
}

fn json(body: &[u8]) -> JsonValue {
    JsonValue::parse(std::str::from_utf8(body).expect("utf8 body")).expect("json body")
}

const TINY_JOB: &str = r#"{"model": "alexnet-cifar", "power": 9, "seed": 7, "max_evals": 200}"#;

/// Submits `TINY_JOB` straight to the service with a sink that holds the
/// job at its first event until the returned sender drops, so the job
/// occupies its slot for as long as the test needs, however fast it runs.
fn submit_held(service: &SynthesisService) -> (JobHandle, mpsc::Sender<()>) {
    let (release, held) = mpsc::channel::<()>();
    let held = Mutex::new(held);
    let sink: Arc<dyn EventSink> = Arc::new(move |_: SynthesisEvent| {
        let _ = held.lock().unwrap().recv();
    });
    let job = parse_http_job(TINY_JOB.as_bytes()).expect("payload");
    let job = service
        .submit_with(job, None, Some(sink))
        .expect("queue has room");
    (job, release)
}

/// A queued job's event stream is silent until the slot frees up; the
/// gateway must keep such streams alive with periodic heartbeat frames
/// (SSE comment lines / NDJSON `{"heartbeat":true}` objects) so reverse
/// proxies with idle timeouts don't sever them, and heartbeats must never
/// corrupt either framing.
#[test]
fn idle_event_streams_carry_heartbeats() {
    let (handle, addr) = start_gateway(
        GatewayConfig::new()
            .with_quiet(true)
            .with_heartbeat(Duration::from_millis(10)),
        1,
    );
    // Fill the single slot's queue with enough work that the observed job
    // stays queued — and its stream silent — for many heartbeat intervals.
    const FILLER_JOB: &str =
        r#"{"model": "vgg16-cifar", "power": 15, "seed": 3, "max_evals": 2000}"#;
    for _ in 0..12 {
        let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(FILLER_JOB));
        assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    }
    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(TINY_JOB));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let queued = json(&body).get("id").and_then(JsonValue::as_usize).unwrap();

    // Subscribe in both framings while the job is still queued; each read
    // blocks until the stream completes (queue wait included).
    let sse_addr = addr.clone();
    let sse =
        std::thread::spawn(move || get(&sse_addr, &format!("/v1/jobs/{queued}/events"), None));
    let nd_addr = addr.clone();
    let nd = std::thread::spawn(move || {
        get(
            &nd_addr,
            &format!("/v1/jobs/{queued}/events?format=ndjson"),
            None,
        )
    });

    let (status, _, body) = sse.join().expect("sse subscriber");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).unwrap();
    assert!(
        text.contains(": heartbeat\n\n"),
        "idle SSE stream must carry comment keep-alives: {text}"
    );
    assert!(text.contains("data: "), "{text}");
    assert!(text.trim_end().ends_with("event: done\ndata: {}"), "{text}");

    let (status, _, body) = nd.join().expect("ndjson subscriber");
    assert_eq!(status, 200);
    let lines: Vec<JsonValue> = std::str::from_utf8(&body)
        .unwrap()
        .lines()
        .map(|l| JsonValue::parse(l).expect("every line stays valid JSON"))
        .collect();
    assert!(
        lines
            .iter()
            .any(|l| l.get("heartbeat").and_then(JsonValue::as_bool) == Some(true)),
        "idle NDJSON stream must carry heartbeat lines"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.get("type").and_then(JsonValue::as_str) == Some("finished")),
        "real events must still arrive after heartbeats"
    );
    assert_eq!(
        lines[lines.len() - 1]
            .get("done")
            .and_then(JsonValue::as_bool),
        Some(true)
    );

    let (status, _, _) = request(&addr, "POST", "/v1/drain", None, None);
    assert_eq!(status, 202);
    handle.join().expect("gateway exits cleanly after drain");
}

/// Submit over raw HTTP, poll, block for the result, and compare it field
/// by field (modulo `elapsed_s`) with a direct in-process run of the same
/// payload; then stream the finished job's events in both framings.
#[test]
fn http_round_trip_matches_direct_run_bit_identically() {
    let (handle, addr) = start_gateway(GatewayConfig::new().with_quiet(true), 1);

    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(TINY_JOB));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json(&body).get("id").and_then(JsonValue::as_usize).unwrap();

    // Poll mode answers immediately with the job's current phase.
    let (status, _, _body) = get(&addr, &format!("/v1/jobs/{id}/result?wait=0"), None);
    assert!(status == 202 || status == 200, "{status}");

    let (status, _, body) = get(&addr, &format!("/v1/jobs/{id}"), None);
    assert_eq!(status, 200);
    let phase = json(&body)
        .get("status")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    assert!(["queued", "running", "finished"].contains(&phase.as_str()));

    // Blocking result: the bare summary document.
    let (status, headers, body) = get(&addr, &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    let served = json(&body);

    let direct_request = parse_http_job(TINY_JOB.as_bytes()).expect("payload");
    let direct = Synthesizer::new(direct_request.options)
        .synthesize(&direct_request.model)
        .expect("direct synthesis");
    let direct_summary = pimsyn::SynthesisSummary::from_result(&direct).to_json();
    let fields = |doc: &JsonValue| -> Vec<(String, String)> {
        doc.as_object()
            .expect("summary object")
            .iter()
            .filter(|(k, _)| k != "elapsed_s")
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect()
    };
    assert_eq!(
        fields(&served),
        fields(&direct_summary),
        "HTTP-submitted job must match the direct run modulo elapsed_s"
    );

    // NDJSON framing: one JSON document per line, done marker last.
    let (status, headers, body) = get(&addr, &format!("/v1/jobs/{id}/events?format=ndjson"), None);
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/x-ndjson")
    );
    let lines: Vec<JsonValue> = std::str::from_utf8(&body)
        .unwrap()
        .lines()
        .map(|l| JsonValue::parse(l).expect("ndjson line"))
        .collect();
    assert!(lines.len() >= 3, "replay must include the full event log");
    assert_eq!(
        lines[0].get("type").and_then(JsonValue::as_str),
        Some("job_started")
    );
    assert_eq!(
        lines[lines.len() - 2]
            .get("type")
            .and_then(JsonValue::as_str),
        Some("finished")
    );
    assert_eq!(
        lines[lines.len() - 1]
            .get("done")
            .and_then(JsonValue::as_bool),
        Some(true)
    );

    // SSE framing: `data:` frames, then the `done` event.
    let (status, headers, body) = get(&addr, &format!("/v1/jobs/{id}/events"), None);
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("text/event-stream")
    );
    let text = std::str::from_utf8(&body).unwrap();
    assert!(text.starts_with("data: "), "{text}");
    assert!(text.trim_end().ends_with("event: done\ndata: {}"), "{text}");

    // Unknown ids and unknown routes are 404s; bad payloads are 400s.
    let (status, _, _) = get(&addr, "/v1/jobs/999999", None);
    assert_eq!(status, 404);
    let (status, _, _) = get(&addr, "/v1/nope", None);
    assert_eq!(status, 404);
    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(r#"{"power": 9}"#));
    assert_eq!(status, 400);
    assert_eq!(
        json(&body).get("code").and_then(JsonValue::as_str),
        Some("bad_job")
    );
    let (status, _, _) = request(&addr, "PUT", &format!("/v1/jobs/{id}"), None, None);
    assert_eq!(status, 405);

    // A timeout beyond the one-year bound is a 400 naming the field, in
    // both spellings, and the connection thread survives it.
    for timeout in ["1e300", r#""7fefffffffffffff""#] {
        let body = format!(r#"{{"model": "alexnet-cifar", "power": 9, "timeout": {timeout}}}"#);
        let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(&body));
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
        let detail = json(&body);
        assert_eq!(
            detail.get("code").and_then(JsonValue::as_str),
            Some("bad_job")
        );
        assert!(
            detail
                .get("error")
                .and_then(JsonValue::as_str)
                .is_some_and(|e| e.contains("`timeout`")),
            "{detail}"
        );
        let (status, _, _) = get(&addr, "/healthz", None);
        assert_eq!(status, 200);
    }

    // A cycle-image count past the simulator's block bound fails the job
    // with the typed error instead of aborting the gateway process.
    let huge_cycle = r#"{"model": "alexnet-cifar", "power": 9, "seed": 7, "max_evals": 200,
                         "cycle": 100000000000000}"#;
    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(huge_cycle));
    assert_eq!(status, 202);
    let big = json(&body).get("id").and_then(JsonValue::as_usize).unwrap();
    let (status, _, body) = get(&addr, &format!("/v1/jobs/{big}/result"), None);
    assert_eq!(status, 500);
    let detail = json(&body);
    assert_eq!(
        detail.get("code").and_then(JsonValue::as_str),
        Some("job_failed")
    );
    assert!(
        detail
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|e| e.contains("pipeline blocks")),
        "{detail}"
    );
    let (status, _, _) = get(&addr, "/healthz", None);
    assert_eq!(status, 200);

    // Drain: accepted immediately; the serve loop exits once idle.
    let (status, _, body) = request(&addr, "POST", "/v1/drain", None, None);
    assert_eq!(status, 202);
    assert_eq!(
        json(&body).get("draining").and_then(JsonValue::as_bool),
        Some(true)
    );
    handle.join().expect("gateway exits cleanly after drain");
}

/// With a tenant registry installed, `/v1/*` requires a known bearer key,
/// jobs are invisible across tenants, and a tenant at its queued quota
/// gets a 429 with the typed `quota_exceeded` body.
#[test]
fn bearer_auth_tenancy_and_quotas() {
    let tenants = TenantRegistry::parse(
        r#"{"tenants": [
            {"name": "alice", "key": "k-alice", "weight": 2},
            {"name": "bob", "key": "k-bob", "max_queued": 0}
        ]}"#,
    )
    .expect("registry");
    let (handle, addr) = start_gateway(
        GatewayConfig::new().with_tenants(tenants).with_quiet(true),
        1,
    );

    // No key / an unknown key -> 401 with a WWW-Authenticate challenge.
    let (status, headers, body) = request(&addr, "POST", "/v1/jobs", None, Some(TINY_JOB));
    assert_eq!(status, 401);
    assert_eq!(
        json(&body).get("code").and_then(JsonValue::as_str),
        Some("auth_failed")
    );
    assert_eq!(
        headers.get("www-authenticate").map(String::as_str),
        Some("Bearer")
    );
    let (status, _, _) = request(&addr, "POST", "/v1/jobs", Some("k-eve"), Some(TINY_JOB));
    assert_eq!(status, 401);

    // `/metrics` and `/healthz` stay open for scrapers and probes.
    let (status, _, _) = get(&addr, "/healthz", None);
    assert_eq!(status, 200);
    let (status, _, _) = get(&addr, "/metrics", None);
    assert_eq!(status, 200);

    // Alice submits; Bob can neither see nor cancel her job.
    let (status, _, body) = request(&addr, "POST", "/v1/jobs", Some("k-alice"), Some(TINY_JOB));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json(&body).get("id").and_then(JsonValue::as_usize).unwrap();
    let (status, _, _) = get(&addr, &format!("/v1/jobs/{id}"), Some("k-bob"));
    assert_eq!(status, 404, "other tenants' jobs must look nonexistent");
    let (status, _, _) = request(
        &addr,
        "DELETE",
        &format!("/v1/jobs/{id}"),
        Some("k-bob"),
        None,
    );
    assert_eq!(status, 404);
    let (status, _, _) = get(&addr, &format!("/v1/jobs/{id}"), Some("k-alice"));
    assert_eq!(status, 200);

    // Bob's quota (max_queued = 0) rejects his submission outright, with
    // the typed body and a Retry-After hint.
    let (status, headers, body) = request(&addr, "POST", "/v1/jobs", Some("k-bob"), Some(TINY_JOB));
    assert_eq!(status, 429);
    let doc = json(&body);
    assert_eq!(
        doc.get("code").and_then(JsonValue::as_str),
        Some("quota_exceeded")
    );
    assert_eq!(doc.get("tenant").and_then(JsonValue::as_str), Some("bob"));
    assert_eq!(headers.get("retry-after").map(String::as_str), Some("1"));

    // Alice's job still runs to completion for her.
    let (status, _, _) = get(&addr, &format!("/v1/jobs/{id}/result"), Some("k-alice"));
    assert_eq!(status, 200);

    let (status, _, _) = request(&addr, "POST", "/v1/drain", Some("k-alice"), None);
    assert_eq!(status, 202);
    handle.join().expect("gateway exits cleanly after drain");
}

/// A gateway started with a keys file follows rotations of that file
/// without a restart: a newly added key starts authenticating, a removed
/// key starts getting 401s, and a malformed rewrite keeps the last good
/// key set in force.
#[test]
fn keys_file_rotation_applies_without_restart() {
    let keys_path =
        std::env::temp_dir().join(format!("pimsyn-gateway-keys-{}.json", std::process::id()));
    std::fs::write(
        &keys_path,
        r#"{"tenants": [{"name": "alice", "key": "k-alice"}]}"#,
    )
    .unwrap();
    let tenants = TenantRegistry::load(keys_path.to_str().unwrap()).expect("initial keys");
    let (handle, addr) = start_gateway(
        GatewayConfig::new()
            .with_tenants(tenants)
            .with_keys_file(keys_path.to_str().unwrap())
            .with_quiet(true),
        1,
    );

    // Authenticated requests reach the API (404: no such job yet);
    // unknown keys are challenged.
    let (status, _, _) = get(&addr, "/v1/jobs/1", Some("k-alice"));
    assert_eq!(status, 404);
    let (status, _, _) = get(&addr, "/v1/jobs/1", Some("k-bob"));
    assert_eq!(status, 401);

    // Rotate: bob in, alice out. The very next request sees the new set.
    std::fs::write(
        &keys_path,
        r#"{"tenants": [{"name": "bob", "key": "k-bob", "weight": 3}]}"#,
    )
    .unwrap();
    let (status, _, _) = get(&addr, "/v1/jobs/1", Some("k-bob"));
    assert_eq!(status, 404, "a newly added key must authenticate");
    let (status, _, _) = get(&addr, "/v1/jobs/1", Some("k-alice"));
    assert_eq!(status, 401, "a removed key must stop authenticating");

    // A malformed rewrite must not lock every tenant out: the last good
    // key set stays in force until the file parses again.
    std::fs::write(&keys_path, "{definitely not json").unwrap();
    let (status, _, _) = get(&addr, "/v1/jobs/1", Some("k-bob"));
    assert_eq!(status, 404, "last good keys must survive a bad rewrite");

    let (status, _, _) = request(&addr, "POST", "/v1/drain", Some("k-bob"), None);
    assert_eq!(status, 202);
    handle.join().expect("gateway exits cleanly after drain");
    let _ = std::fs::remove_file(&keys_path);
}

/// `/metrics` renders valid Prometheus text: every family has HELP/TYPE,
/// and after one finished job the counters, gauges and the latency
/// histogram are populated.
#[test]
fn metrics_expose_counters_gauges_and_histograms() {
    let (handle, addr) = start_gateway(GatewayConfig::new().with_quiet(true), 1);

    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(TINY_JOB));
    assert_eq!(status, 202);
    let id = json(&body).get("id").and_then(JsonValue::as_usize).unwrap();
    let (status, _, _) = get(&addr, &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200);

    let (status, headers, body) = get(&addr, "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4")
    );
    let text = std::str::from_utf8(&body).expect("metrics text");
    for family in [
        "pimsyn_gateway_http_requests_total",
        "pimsyn_gateway_jobs_submitted_total",
        "pimsyn_gateway_jobs_finished_total",
        "pimsyn_gateway_job_latency_seconds",
        "pimsyn_gateway_evaluations_scored_total",
        "pimsyn_gateway_queue_depth",
        "pimsyn_gateway_running_jobs",
        "pimsyn_gateway_draining",
    ] {
        assert!(text.contains(&format!("# HELP {family} ")), "{family}");
        assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
    }
    assert!(
        text.contains("pimsyn_gateway_jobs_submitted_total{tenant=\"\"} 1"),
        "anonymous submission must be counted:\n{text}"
    );
    assert!(
        text.contains("pimsyn_gateway_jobs_finished_total{tenant=\"\"} 1"),
        "finished job must be counted:\n{text}"
    );
    assert!(
        text.contains("pimsyn_gateway_job_latency_seconds_count 1"),
        "latency histogram must have one observation:\n{text}"
    );
    assert!(
        text.contains("pimsyn_gateway_http_requests_total{route=\"/v1/jobs\",code=\"202\"} 1"),
        "request counter must label route patterns:\n{text}"
    );
    assert!(text.contains("pimsyn_gateway_draining 0"), "{text}");

    let (status, _, _) = request(&addr, "POST", "/v1/drain", None, None);
    assert_eq!(status, 202);
    handle.join().expect("gateway exits cleanly after drain");
}

/// Submissions racing a drain lose cleanly: once `/v1/drain` is accepted,
/// a new `POST /v1/jobs` is refused with the typed 503 while the accepted
/// jobs still run to completion.
#[test]
fn drain_refuses_new_work_but_finishes_accepted_jobs() {
    let service = Arc::new(SynthesisService::new(
        ServiceConfig::default().with_job_slots(1),
    ));
    let (handle, addr) = start_gateway_on(service.clone(), GatewayConfig::new().with_quiet(true));

    let job = r#"{"model": "alexnet-cifar", "power": 9, "seed": 5}"#;
    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(job));
    assert_eq!(status, 202);
    let id = json(&body).get("id").and_then(JsonValue::as_usize).unwrap();
    // A held job accepted behind it keeps the drain, and so the gateway,
    // open however fast jobs run.
    let (blocker, release) = submit_held(&service);

    let (status, _, _) = request(&addr, "POST", "/v1/drain", None, None);
    assert_eq!(status, 202);
    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(TINY_JOB));
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert_eq!(
        json(&body).get("code").and_then(JsonValue::as_str),
        Some("draining")
    );
    // The accepted job survives the drain and its result stays fetchable
    // until the gateway actually exits.
    let (status, _, _) = get(&addr, &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200);
    drop(release);
    assert!(blocker.await_result().is_ok(), "the held job finishes too");
    handle.join().expect("gateway exits cleanly after drain");
}

/// A job cancelled while it waits in the queue never runs and has no
/// events. A stream opened while it waits ends with the done marker alone
/// once the job finishes, its result is a `job_failed` naming the
/// cancellation, and its status reads `finished`.
#[test]
fn stream_of_a_job_cancelled_while_queued_is_only_done() {
    let service = Arc::new(SynthesisService::new(
        ServiceConfig::default().with_job_slots(1),
    ));
    let config = GatewayConfig::new()
        .with_quiet(true)
        .with_heartbeat(Duration::ZERO);
    let (handle, addr) = start_gateway_on(service.clone(), config);
    // A held job takes the only slot, so the HTTP job behind it stays
    // queued.
    let (blocker, release) = submit_held(&service);

    let (status, _, body) = request(&addr, "POST", "/v1/jobs", None, Some(TINY_JOB));
    assert_eq!(status, 202);
    let id = json(&body).get("id").and_then(JsonValue::as_usize).unwrap();
    // Open the stream and read its head, so the gateway is following the
    // queued job's log before the job is cancelled.
    let mut events = TcpStream::connect(&addr).expect("connect");
    // A stream that never ends fails the test instead of hanging it.
    events
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write!(
        events,
        "GET /v1/jobs/{id}/events?format=ndjson HTTP/1.1\r\nHost: gw\r\n\r\n"
    )
    .expect("send request");
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8];
        events.read_exact(&mut byte).expect("stream head");
        head.push(byte[0]);
    }
    assert!(head.starts_with(b"HTTP/1.1 200 "));

    let (status, _, body) = request(&addr, "DELETE", &format!("/v1/jobs/{id}"), None, None);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    drop(release);
    let mut stream = String::new();
    events.read_to_string(&mut stream).expect("stream body");
    assert_eq!(stream, "{\"done\":true}\n");

    let (status, _, body) = get(&addr, &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 500);
    let body = json(&body);
    assert_eq!(
        body.get("code").and_then(JsonValue::as_str),
        Some("job_failed")
    );
    let error = body.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains("cancel"), "{error}");
    let (status, _, body) = get(&addr, &format!("/v1/jobs/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(
        json(&body).get("status").and_then(JsonValue::as_str),
        Some("finished")
    );
    assert!(blocker.await_result().is_ok(), "the held job finishes");

    let (status, _, _) = request(&addr, "POST", "/v1/drain", None, None);
    assert_eq!(status, 202);
    handle.join().expect("gateway exits cleanly after drain");
}
