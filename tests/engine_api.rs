//! Integration tests for the job-oriented [`SynthesisEngine`] API: event
//! streaming, cooperative cancellation, time / evaluation budgets, and
//! batch synthesis with per-job failure isolation.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use pimsyn::{
    event_to_json, CancelToken, Effort, NullSink, ServiceConfig, StopReason, SynthesisEngine,
    SynthesisError, SynthesisEvent, SynthesisOptions, SynthesisRequest, SynthesisResult,
    SynthesisService, SynthesisStage,
};
use pimsyn_arch::Watts;
use pimsyn_model::zoo;

fn fast_request() -> SynthesisRequest {
    SynthesisRequest::new(
        zoo::alexnet_cifar(10),
        SynthesisOptions::fast(Watts(6.0)).with_seed(3),
    )
}

/// Runs `request` on the calling thread, collecting its events.
fn run_collecting(
    request: &SynthesisRequest,
) -> (Result<SynthesisResult, SynthesisError>, Vec<SynthesisEvent>) {
    let events = Mutex::new(Vec::new());
    let sink = |ev: SynthesisEvent| events.lock().unwrap().push(ev);
    let result = SynthesisEngine::new().run(request, &sink, &CancelToken::new());
    (result, events.into_inner().unwrap())
}

/// A paper-effort request: enough work (36 outer points, long SA anneals,
/// big EA budgets) that cancellation and budgets have something to stop.
fn heavy_request() -> SynthesisRequest {
    let mut options = SynthesisOptions::new(Watts(15.0)).with_seed(3);
    options.effort = Effort::Paper;
    SynthesisRequest::new(zoo::vgg16_cifar(10), options)
}

#[test]
fn event_stream_is_nonempty_and_stage_ordered() {
    let (result, events) = run_collecting(&fast_request());
    let result = result.unwrap();
    assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
    assert_eq!(result.stop_reason, StopReason::Completed);

    assert!(!events.is_empty());
    assert!(matches!(
        events.first(),
        Some(SynthesisEvent::JobStarted { job: 0, .. })
    ));
    assert!(matches!(
        events.last(),
        Some(SynthesisEvent::Finished { job: 0, efficiency: Some(e), .. }) if *e > 0.0
    ));

    // Per design point: stages start in paper order, every started stage
    // finishes before the next one starts, and the point summary follows
    // the last stage.
    // The fast preset traverses the reduced design space.
    let point_count = pimsyn::DesignSpace::reduced().outer_len();
    let mut evaluated_points = 0;
    for point in 0..point_count {
        let for_point: Vec<&SynthesisEvent> = events
            .iter()
            .filter(|ev| match ev {
                SynthesisEvent::StageStarted { point_index, .. }
                | SynthesisEvent::StageFinished { point_index, .. }
                | SynthesisEvent::DesignPointEvaluated { point_index, .. } => *point_index == point,
                _ => false,
            })
            .collect();
        let mut expected = Vec::new();
        for stage in SynthesisStage::ALL {
            expected.push(format!("started:{stage}"));
            expected.push(format!("finished:{stage}"));
        }
        expected.push("evaluated".to_string());
        let got: Vec<String> = for_point
            .iter()
            .map(|ev| match ev {
                SynthesisEvent::StageStarted { stage, .. } => format!("started:{stage}"),
                SynthesisEvent::StageFinished { stage, .. } => format!("finished:{stage}"),
                SynthesisEvent::DesignPointEvaluated { .. } => "evaluated".to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, expected, "stage order at point {point}");
        evaluated_points += 1;
    }
    assert!(evaluated_points > 0);

    // A feasible run improves on the initial zero best at least once.
    assert!(events
        .iter()
        .any(|ev| matches!(ev, SynthesisEvent::ImprovedBest { .. })));
}

/// Evaluator throughput streams through the engine API: snapshots appear
/// per design point, the final one accounts for every scored candidate, and
/// the metaheuristics' revisits show up as cache hits.
#[test]
fn evaluator_stats_stream_reports_cache_hits() {
    let (result, events) = run_collecting(&fast_request());
    let result = result.unwrap();
    let snapshots: Vec<_> = events
        .into_iter()
        .filter_map(|ev| match ev {
            SynthesisEvent::EvaluatorStats { stats, .. } => Some(stats),
            _ => None,
        })
        .collect();
    assert!(!snapshots.is_empty(), "stats must be emitted per point");
    let last = snapshots.last().unwrap();
    assert_eq!(last.scored, result.evaluations);
    assert_eq!(last.unique_evaluations + last.cache_hits, last.scored);
    assert!(last.cache_hits > 0, "expected memo hits: {last:?}");
    assert!(last.unique_evaluations < last.scored);
    // Serial fast run: cumulative snapshots are monotonic.
    for pair in snapshots.windows(2) {
        assert!(pair[1].scored >= pair[0].scored);
        assert!(pair[1].cache_hits >= pair[0].cache_hits);
    }
}

#[test]
fn cancellation_stops_a_running_job_promptly() {
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
    let job = service.submit(heavy_request()).unwrap();

    // Wait for evidence the job is actually exploring, then cancel.
    let (events, _) = job.events_since(0, Some(Duration::from_secs(30)));
    let first = events.first().expect("job must emit its first event");
    assert!(matches!(first, SynthesisEvent::JobStarted { .. }));
    job.cancel();
    let cancelled_at = Instant::now();
    let result = job.await_result();
    let reaction = cancelled_at.elapsed();
    service.shutdown();
    assert!(
        matches!(result, Err(SynthesisError::Cancelled)),
        "{result:?}"
    );
    // "Promptly": worst case is one EA child evaluation plus a SA check
    // interval, far below a full paper run (minutes).
    assert!(
        reaction < Duration::from_secs(20),
        "took {reaction:?} to stop"
    );
}

#[test]
fn evaluation_budget_is_honored() {
    let mut request = heavy_request();
    request.options.max_evaluations = Some(200);
    let (outcome, events) = run_collecting(&request);
    match outcome {
        Ok(result) => {
            assert_eq!(result.stop_reason, StopReason::EvaluationBudgetReached);
            // The budget is enforced cooperatively (checked between EA
            // children), so allow bounded overshoot but nothing runaway.
            assert!(
                result.evaluations < 2_000,
                "evaluations {} far beyond budget",
                result.evaluations
            );
        }
        Err(e) => {
            // A 200-evaluation budget may legitimately stop the search
            // before the first feasible candidate.
            assert!(matches!(e, SynthesisError::Dse(_)), "{e}");
        }
    }
    // Budget exhaustion must still deliver a finished event stream.
    assert!(matches!(
        events.last(),
        Some(SynthesisEvent::Finished { .. })
    ));
}

#[test]
fn time_budget_is_honored() {
    let engine = SynthesisEngine::new();
    let mut request = heavy_request();
    // The search runs stages 1–2 at every point before its first EA run,
    // and they alone find nothing. So the budget ends a quarter of the way
    // through the EA phase of the same request's unbudgeted run on this
    // host: the deadline fires after the first EA runs and before the
    // search ends, however fast the host is.
    let ea_started = Mutex::new(None);
    let sink = |ev: SynthesisEvent| {
        if let SynthesisEvent::StageStarted {
            stage: SynthesisStage::MacroPartitioning,
            ..
        } = ev
        {
            ea_started.lock().unwrap().get_or_insert_with(Instant::now);
        }
    };
    let started = Instant::now();
    let full = engine.run(&request, &sink, &CancelToken::new());
    let ended = Instant::now();
    assert_eq!(
        full.expect("unbudgeted run").stop_reason,
        StopReason::Completed
    );
    let ea_started = ea_started.into_inner().unwrap().expect("EA runs ran");
    request.options.time_budget = Some(ea_started - started + (ended - ea_started) / 4);
    let started = Instant::now();
    let outcome = engine.run(&request, &NullSink, &CancelToken::new());
    let elapsed = started.elapsed();
    // The deadline must cut the run to roughly the budget (plus one
    // cooperative-check interval) and still return the best design so far.
    assert!(
        elapsed < Duration::from_secs(30),
        "deadline ignored: ran {elapsed:?}"
    );
    let result = outcome.expect("a deadline stop keeps the best design found");
    assert_eq!(result.stop_reason, StopReason::DeadlineReached);
}

#[test]
fn batch_synthesis_isolates_per_job_failures() {
    let requests = [
        fast_request().with_label("feasible-alexnet"),
        // 0.01 W cannot host one weight copy: this job must fail alone.
        SynthesisRequest::new(
            zoo::alexnet_cifar(10),
            SynthesisOptions::fast(Watts(0.01)).with_seed(3),
        )
        .with_label("infeasible"),
        SynthesisRequest::new(
            zoo::vgg16_cifar(10),
            SynthesisOptions::fast(Watts(15.0)).with_seed(3),
        )
        .with_label("feasible-vgg"),
    ];
    let events = Mutex::new(Vec::new());
    let sink = |ev: SynthesisEvent| events.lock().unwrap().push(ev);
    let results = SynthesisEngine::new().synthesize_batch(&requests, &sink, &CancelToken::new());
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok(), "{:?}", results[0].as_ref().err());
    assert!(matches!(results[1], Err(SynthesisError::Dse(_))));
    assert!(results[2].is_ok(), "{:?}", results[2].as_ref().err());
    // Distinct models actually ran: the two successes are different nets.
    let a = results[0].as_ref().unwrap();
    let b = results[2].as_ref().unwrap();
    assert_eq!(a.model.name(), "alexnet-cifar");
    assert_eq!(b.model.name(), "vgg16-cifar");

    // Every job reported start and finish, tagged with its index.
    let events = events.into_inner().unwrap();
    for job in 0..3 {
        assert!(
            events
                .iter()
                .any(|ev| matches!(ev, SynthesisEvent::JobStarted { job: j, .. } if *j == job)),
            "missing JobStarted for job {job}"
        );
        let finished = events.iter().find_map(|ev| match ev {
            SynthesisEvent::Finished {
                job: j,
                efficiency,
                error,
                ..
            } if *j == job => Some((efficiency.is_some(), error.clone())),
            _ => None,
        });
        let (ok, error) = finished.unwrap_or_else(|| panic!("missing Finished for job {job}"));
        assert_eq!(ok, job != 1, "job {job} outcome mismatch ({error:?})");
        // The search's own events carry the index too: every point of the
        // reduced space starts stage 1 and is evaluated once per job.
        let points = pimsyn::DesignSpace::reduced().outer_len();
        let tagged = |kind: fn(&SynthesisEvent) -> Option<usize>| {
            events.iter().filter(|ev| kind(ev) == Some(job)).count()
        };
        let stage1 = tagged(|ev| match ev {
            SynthesisEvent::StageStarted {
                job,
                stage: SynthesisStage::WeightDuplication,
                ..
            } => Some(*job),
            _ => None,
        });
        let evaluated = tagged(|ev| match ev {
            SynthesisEvent::DesignPointEvaluated { job, .. } => Some(*job),
            _ => None,
        });
        assert_eq!((stage1, evaluated), (points, points), "job {job}");
    }
}

#[test]
fn batch_results_match_single_runs_deterministically() {
    let engine = SynthesisEngine::new();
    let single = engine
        .run(&fast_request(), &NullSink, &CancelToken::new())
        .unwrap();
    let batch = engine.synthesize_batch(
        &[fast_request(), fast_request()],
        &NullSink,
        &CancelToken::new(),
    );
    for result in &batch {
        let result = result.as_ref().unwrap();
        assert_eq!(result.wt_dup, single.wt_dup);
        assert_eq!(
            result.analytic.efficiency_tops_per_watt(),
            single.analytic.efficiency_tops_per_watt()
        );
    }
}

/// A job submitted to a service runs off the calling thread: its stream
/// ends with `Finished` once the job is done, and every event carries the
/// job's id.
#[test]
fn spawned_job_reports_finished_state() {
    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
    let first = service.submit(fast_request()).unwrap();
    let job = service.submit(fast_request()).unwrap();
    assert_eq!(job.id(), 1);
    // Drain the stream; it ends exactly when the job is done.
    let events: Vec<SynthesisEvent> = job.events().collect();
    assert!(matches!(
        events.last(),
        Some(SynthesisEvent::Finished { job: 1, .. })
    ));
    assert!(events
        .iter()
        .all(|ev| event_to_json(ev).get("job").and_then(|j| j.as_usize()) == Some(1)));
    let result = job.await_result().unwrap();
    assert!(job.is_finished());
    assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
    assert!(first.await_result().is_ok());
    service.shutdown();
}
