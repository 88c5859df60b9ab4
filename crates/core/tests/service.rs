//! End-to-end exercise of the [`SynthesisService`]: queue back-pressure,
//! concurrent-job determinism, weighted-fair multi-tenant scheduling and
//! graceful drain.

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pimsyn::{
    EventSink, JobStatus, ServiceConfig, ServiceError, SynthesisError, SynthesisEvent,
    SynthesisOptions, SynthesisRequest, SynthesisService, Synthesizer, TenantPolicy,
};
use pimsyn_arch::Watts;
use pimsyn_model::zoo;

fn fast_request(seed: u64) -> SynthesisRequest {
    SynthesisRequest::new(
        zoo::alexnet_cifar(10),
        SynthesisOptions::fast(Watts(9.0)).with_seed(seed),
    )
}

/// A tiny but real job: fast effort with a tight evaluation bound, so
/// scheduling-order tests finish in milliseconds per job.
fn tiny_request(seed: u64) -> SynthesisRequest {
    SynthesisRequest::new(
        zoo::alexnet_cifar(10),
        SynthesisOptions::fast(Watts(9.0))
            .with_seed(seed)
            .with_max_evaluations(40),
    )
}

/// A slot-occupying job (paper effort), cancelled by the test when the
/// queue behind it is staged the way the test needs.
fn blocker_request() -> SynthesisRequest {
    let mut options = SynthesisOptions::new(Watts(15.0)).with_seed(3);
    options.effort = pimsyn::Effort::Paper;
    SynthesisRequest::new(zoo::vgg16_cifar(10), options)
}

/// Submits `request` with an event sink that holds the job at its first
/// event until the returned sender is dropped, so the job occupies its
/// slot for exactly as long as the test needs, however fast it would run.
fn submit_held(
    service: &SynthesisService,
    request: SynthesisRequest,
    tenant: Option<TenantPolicy>,
) -> (pimsyn::JobHandle, mpsc::Sender<()>) {
    let (release, held) = mpsc::channel::<()>();
    let held = Mutex::new(held);
    let sink: Arc<dyn EventSink> = Arc::new(move |_: SynthesisEvent| {
        let _ = held.lock().unwrap().recv();
    });
    let handle = service
        .submit_with(request, tenant, Some(sink))
        .expect("queue has room");
    (handle, release)
}

fn await_running(handle: &pimsyn::JobHandle) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.status() == JobStatus::Queued && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(handle.status(), JobStatus::Running, "blocker must start");
}

/// A submit beyond the bounded queue depth returns a typed
/// [`ServiceError::QueueFull`] promptly — it never blocks or panics.
#[test]
fn submit_beyond_queue_depth_returns_queue_full() {
    let service = SynthesisService::new(
        ServiceConfig::default()
            .with_job_slots(1)
            .with_queue_depth(1),
    );
    // Occupy the single slot with a long job, then fill the one queue slot.
    let (blocker, release) = submit_held(&service, blocker_request(), None);
    // Wait until the blocker actually occupies the slot, so the next submit
    // is deterministically the only queued job.
    await_running(&blocker);
    let queued = service.submit(fast_request(4)).unwrap();
    let started = Instant::now();
    let overflow = service.submit(fast_request(5));
    assert_eq!(
        overflow.unwrap_err(),
        ServiceError::QueueFull { depth: 1 },
        "the queue holds one job; the second waiting submit must be rejected"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "queue-full rejection must not block"
    );
    blocker.cancel();
    queued.cancel();
    drop(release);
    assert!(matches!(
        blocker.await_result(),
        Err(SynthesisError::Cancelled)
    ));
    service.shutdown();
}

/// Two jobs submitted concurrently to a two-slot service produce results
/// bit-identical to the same requests run serially through the blocking
/// API (the determinism-suite comparison, field by field).
#[test]
fn concurrent_service_jobs_match_serial_runs_bit_identically() {
    let requests = [fast_request(11), fast_request(23)];
    let serial: Vec<_> = requests
        .iter()
        .map(|request| {
            Synthesizer::new(request.options.clone())
                .synthesize(&request.model)
                .expect("serial synthesis")
        })
        .collect();

    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(2));
    let handles: Vec<_> = requests
        .iter()
        .map(|request| service.submit(request.clone()).expect("queue has room"))
        .collect();
    for (i, (handle, serial)) in handles.iter().zip(&serial).enumerate() {
        let concurrent = handle.await_result().expect("service synthesis");
        assert_eq!(concurrent.wt_dup, serial.wt_dup, "job {i}");
        assert_eq!(concurrent.architecture, serial.architecture, "job {i}");
        assert_eq!(concurrent.analytic, serial.analytic, "job {i}");
        assert_eq!(concurrent.evaluations, serial.evaluations, "job {i}");
        assert_eq!(concurrent.history, serial.history, "job {i}");
        assert_eq!(concurrent.stop_reason, serial.stop_reason, "job {i}");
    }
    service.shutdown();
}

/// Two flooding tenants get job slots in weight proportion: with A at weight 2 and B at weight 1, the
/// single slot drains the backlog as A A B A A B, not in arrival order.
#[test]
fn weighted_fair_scheduling_interleaves_tenants_by_weight() {
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
    // Hold the slot so the whole backlog is enqueued before any dispatch.
    let (blocker, release) = submit_held(&service, blocker_request(), None);
    await_running(&blocker);

    let a = TenantPolicy::new("tenant-a").with_weight(2);
    let b = TenantPolicy::new("tenant-b").with_weight(1);
    // Arrival order is strictly alternating (a, b, a, b, a, a): a FIFO
    // would preserve it; the fair scheduler must not.
    let submissions = [
        ("a", 0u64),
        ("b", 1),
        ("a", 2),
        ("b", 3),
        ("a", 4),
        ("a", 5),
    ];
    let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    let mut ids = std::collections::HashMap::new();
    for (tenant, seed) in submissions {
        let policy = if tenant == "a" { a.clone() } else { b.clone() };
        let order = Arc::clone(&order);
        let sink: Arc<dyn EventSink> = Arc::new(move |event: SynthesisEvent| {
            if let SynthesisEvent::Finished { job, .. } = event {
                order.lock().unwrap().push(job as u64);
            }
        });
        let handle = service
            .submit_with(tiny_request(seed), Some(policy), Some(sink))
            .expect("queue has room");
        ids.insert(seed, handle.id());
        handles.push(handle);
    }
    blocker.cancel();
    drop(release);
    let _ = blocker.await_result();
    for handle in &handles {
        let _ = handle.await_result();
    }
    let finished = order.lock().unwrap().clone();
    // Weight-proportional round-robin over the seeds: two of A, one of B,
    // two of A, one of B.
    let expected: Vec<u64> = [0u64, 2, 1, 4, 5, 3].iter().map(|s| ids[s]).collect();
    assert_eq!(
        finished, expected,
        "one slot must drain A(w=2)/B(w=1) backlogs as A A B A A B"
    );
    service.shutdown();
}

/// A tenant at its `max_queued` bound gets a typed
/// [`ServiceError::QuotaExceeded`] — other tenants are unaffected.
#[test]
fn tenant_queued_quota_is_a_typed_rejection() {
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
    let (blocker, release) = submit_held(&service, blocker_request(), None);
    await_running(&blocker);

    let capped = TenantPolicy::new("capped").with_max_queued(1);
    let first = service
        .submit_with(tiny_request(1), Some(capped.clone()), None)
        .expect("within quota");
    let second = service.submit_with(tiny_request(2), Some(capped.clone()), None);
    assert_eq!(
        second.unwrap_err(),
        ServiceError::QuotaExceeded {
            tenant: "capped".to_string(),
            limit: 1,
        }
    );
    // The quota is per tenant, not global: another tenant still submits.
    let other = service
        .submit_with(tiny_request(3), Some(TenantPolicy::new("other")), None)
        .expect("other tenants unaffected");

    blocker.cancel();
    drop(release);
    let _ = blocker.await_result();
    first.cancel();
    other.cancel();
    service.shutdown();
}

/// A tenant at its `max_running` cap has further jobs *deferred* (they stay
/// queued while a slot sits free), never rejected.
#[test]
fn tenant_running_cap_defers_dispatch_while_slots_are_free() {
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(2));
    let solo = TenantPolicy::new("solo").with_max_running(1);
    let (long, release) = submit_held(&service, blocker_request(), Some(solo.clone()));
    await_running(&long);
    let deferred = service
        .submit_with(tiny_request(1), Some(solo.clone()), None)
        .expect("queue has room");
    // A second slot is free, but the tenant's running cap holds the job
    // back. Give the dispatcher ample chances to (wrongly) start it.
    let watched_until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < watched_until {
        assert_eq!(
            deferred.status(),
            JobStatus::Queued,
            "max_running=1 must defer the second job while the first runs"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    long.cancel();
    drop(release);
    let _ = long.await_result();
    // The cap releases with the slot: the deferred job now runs to the end.
    let _ = deferred.await_result();
    assert_eq!(deferred.status(), JobStatus::Finished);
    service.shutdown();
}

/// A single weighted tenant's lane gives the same results as the anonymous
/// lane, bit for bit (both dispatch in submission order; the scheduler's
/// unit tests check the order).
#[test]
fn single_tenant_weighted_fair_matches_fifo_bit_identically() {
    let mut by_lane = Vec::new();
    for tenant in [None, Some(TenantPolicy::new("only").with_weight(5))] {
        let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                service
                    .submit_with(tiny_request(17 + i), tenant.clone(), None)
                    .expect("queue has room")
            })
            .collect();
        let results: Vec<_> = handles
            .iter()
            .map(|handle| handle.await_result().expect("feasible"))
            .collect();
        service.shutdown();
        by_lane.push(results);
    }
    let (fifo, fair) = (&by_lane[0], &by_lane[1]);
    for (i, (f, w)) in fifo.iter().zip(fair.iter()).enumerate() {
        assert_eq!(f.wt_dup, w.wt_dup, "job {i}");
        assert_eq!(f.architecture, w.architecture, "job {i}");
        assert_eq!(f.analytic, w.analytic, "job {i}");
        assert_eq!(f.evaluations, w.evaluations, "job {i}");
        assert_eq!(f.history, w.history, "job {i}");
    }
}

/// [`SynthesisService::drain`] finishes queued and running jobs, rejects
/// new submissions with the typed [`ServiceError::Draining`], and leaves
/// the service shut down.
#[test]
fn drain_finishes_accepted_jobs_and_rejects_new_ones() {
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
    let accepted: Vec<_> = (0..2)
        .map(|i| {
            service
                .submit(tiny_request(31 + i))
                .expect("queue has room")
        })
        .collect();
    service.begin_drain();
    assert!(service.is_draining());
    assert_eq!(
        service.submit(tiny_request(99)).unwrap_err(),
        ServiceError::Draining,
        "a draining service must reject new work with the typed error"
    );
    service.await_drained();
    for (i, handle) in accepted.iter().enumerate() {
        assert_eq!(
            handle.status(),
            JobStatus::Finished,
            "drain must finish already-accepted job {i}"
        );
    }
    service.shutdown();
    assert_eq!(
        service.submit(tiny_request(100)).unwrap_err(),
        ServiceError::ShutDown
    );
}
