//! Gateway-overhead benchmark: submit→result wall time for a tiny job
//! through the HTTP gateway (raw-socket REST round trips against a live
//! `serve_gateway_in_background` instance) versus the same job submitted
//! directly to a `SynthesisService`. The difference is the full REST tax —
//! TCP connect, HTTP parse, JSON payload decode, event-sink bookkeeping
//! and response serialization — which must stay a small fraction of even
//! the tiniest synthesis run.
//!
//! Besides the criterion timings, the bench measures both arms directly
//! and prints a JSON summary on stdout. Pass `--quick` (the CI smoke mode)
//! to run a single small round that merely proves the path compiles and
//! executes.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimsyn::{ServiceConfig, SynthesisService};
use pimsyn_gateway::http::roundtrip;
use pimsyn_gateway::{parse_http_job, serve_gateway_in_background, GatewayConfig};
use pimsyn_model::json::JsonValue;

/// A deliberately tiny job: fast effort, hard evaluation cap, fixed seed —
/// the smallest real synthesis the framework runs, so the HTTP overhead is
/// as visible as it ever gets.
const TINY_JOB: &str = r#"{"model": "alexnet-cifar", "power": 9, "seed": 7, "max_evals": 60}"#;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

struct Gateway {
    handle: pimsyn_gateway::GatewayHandle,
    addr: String,
}

fn start_gateway() -> Gateway {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let service = Arc::new(SynthesisService::new(
        ServiceConfig::default().with_job_slots(1),
    ));
    let handle =
        serve_gateway_in_background(listener, service, GatewayConfig::new().with_quiet(true))
            .expect("start gateway");
    let addr = handle.addr().to_string();
    Gateway { handle, addr }
}

fn post(addr: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, _, body) = roundtrip(addr, raw.as_bytes()).expect("http round trip");
    (status, body)
}

fn get(addr: &str, path: &str) -> (u16, Vec<u8>) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    let (status, _, body) = roundtrip(addr, raw.as_bytes()).expect("http round trip");
    (status, body)
}

/// One full REST job lifecycle: POST the payload, block on the result.
/// Seconds of wall time.
fn http_round(addr: &str) -> f64 {
    let start = Instant::now();
    let (status, body) = post(addr, "/v1/jobs", TINY_JOB);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = JsonValue::parse(std::str::from_utf8(&body).unwrap())
        .unwrap()
        .get("id")
        .and_then(JsonValue::as_usize)
        .expect("job id");
    let (status, body) = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    black_box(body);
    start.elapsed().as_secs_f64()
}

/// The same job through the service directly — no sockets, no HTTP, no
/// JSON. Seconds of wall time.
fn direct_round(service: &SynthesisService) -> f64 {
    let request = parse_http_job(TINY_JOB.as_bytes()).expect("payload");
    let start = Instant::now();
    let handle = service.submit(request).expect("queue has room");
    black_box(handle.await_result().expect("feasible"));
    start.elapsed().as_secs_f64()
}

fn bench_gateway_overhead(c: &mut Criterion) {
    let quick = quick_mode();
    let samples = if quick { 1 } else { 10 };
    let gateway = start_gateway();
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));

    let mut group = c.benchmark_group("gateway_overhead");
    group.sample_size(samples);
    group.bench_function("http_submit_to_result", |b| {
        b.iter(|| http_round(&gateway.addr))
    });
    group.bench_function("direct_submit_to_result", |b| {
        b.iter(|| direct_round(&service))
    });
    group.finish();

    // Direct comparison (best of a few rounds per arm, so the summary is
    // stable against scheduler noise).
    let rounds = if quick { 1 } else { 5 };
    let best = |f: &dyn Fn() -> f64| (0..rounds).map(|_| f()).fold(f64::INFINITY, f64::min);
    let http = best(&|| http_round(&gateway.addr));
    let direct = best(&|| direct_round(&service));
    let overhead_ms = (http - direct).max(0.0) * 1e3;
    let overhead_pct = 100.0 * (http - direct).max(0.0) / direct.max(1e-12);
    println!(
        "{{\n  \"bench\": \"gateway_overhead\",\n  \"model\": \"alexnet-cifar\",\n  \
         \"max_evals\": 60,\n  \"http_submit_to_result_s\": {http:.4},\n  \
         \"direct_submit_to_result_s\": {direct:.4},\n  \
         \"overhead_ms\": {overhead_ms:.2},\n  \"overhead_pct\": {overhead_pct:.1}\n}}"
    );

    service.shutdown();
    let (status, _) = post(&gateway.addr, "/v1/drain", "");
    assert_eq!(status, 202);
    gateway.handle.join().expect("gateway exits cleanly");
}

criterion_group!(benches, bench_gateway_overhead);
criterion_main!(benches);
