//! The [`SynthesisEngine`]: a reusable, thread-safe entry point that runs
//! synthesis as observable, cancellable *jobs*.
//!
//! Where [`Synthesizer`](crate::Synthesizer) is one opaque blocking call,
//! the engine exposes the same four-stage flow (Fig. 3) as:
//!
//! - [`SynthesisEngine::run`] — blocking, but streaming typed
//!   [`SynthesisEvent`]s to an [`EventSink`] and honoring a
//!   [`CancelToken`] plus the wall-clock / evaluation budgets configured in
//!   [`SynthesisOptions`](crate::SynthesisOptions).
//! - [`SynthesisEngine::synthesize_batch`] — many requests fanned out over
//!   a bounded worker pool, with per-job isolation: one infeasible model
//!   does not fail the batch.
//!
//! To run a job off the calling thread, submit it to a
//! [`SynthesisService`](crate::SynthesisService).
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use pimsyn::{CancelToken, SynthesisEngine, SynthesisEvent, SynthesisOptions, SynthesisRequest};
//! use pimsyn_arch::Watts;
//! use pimsyn_model::zoo;
//!
//! let request = SynthesisRequest::new(
//!     zoo::alexnet_cifar(10),
//!     SynthesisOptions::fast(Watts(6.0)).with_seed(3),
//! );
//! let improvements = AtomicUsize::new(0);
//! let sink = |event: SynthesisEvent| {
//!     if let SynthesisEvent::ImprovedBest { .. } = event {
//!         improvements.fetch_add(1, Ordering::Relaxed);
//!     }
//! };
//! let result = SynthesisEngine::new()
//!     .run(&request, &sink, &CancelToken::new())
//!     .expect("alexnet at 6 W is feasible");
//! assert!(improvements.load(Ordering::Relaxed) >= 1);
//! assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
//! ```

use std::thread;
use std::time::Instant;

use pimsyn_dse::{run_dse_observed, CancelToken, EventSink, ExploreContext, SynthesisEvent};
use pimsyn_sim::simulate;

use crate::error::SynthesisError;
use crate::request::SynthesisRequest;
use crate::service::{JobHandle, ServiceConfig, SynthesisService};
use crate::synthesis::SynthesisResult;

/// Reusable, thread-safe synthesis entry point running jobs and batches.
///
/// The engine holds no state: all per-job state lives in the request and
/// the per-call context, so one engine can serve many concurrent callers.
#[derive(Debug, Clone, Default)]
pub struct SynthesisEngine;

impl SynthesisEngine {
    /// An engine whose batches run one job per available core (capped by
    /// the batch size).
    pub fn new() -> Self {
        Self
    }

    /// Runs one job to completion on the calling thread, streaming progress
    /// to `sink` and honoring `cancel` plus the budgets in the request's
    /// options.
    ///
    /// # Errors
    ///
    /// - [`SynthesisError::Cancelled`] when `cancel` fires before the job
    ///   finishes.
    /// - [`SynthesisError::Dse`] when nothing feasible was found (including
    ///   budgets that expire before the first feasible candidate).
    /// - [`SynthesisError::Sim`] if the optional cycle validation fails.
    pub fn run(
        &self,
        request: &SynthesisRequest,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Result<SynthesisResult, SynthesisError> {
        self.run_job(0, request, sink, cancel)
    }

    /// Runs one job with its events tagged as `job` (a service job's id);
    /// the `SynthesisService` job slots call this.
    pub(crate) fn run_job(
        &self,
        job: usize,
        request: &SynthesisRequest,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Result<SynthesisResult, SynthesisError> {
        let started = Instant::now();
        sink.emit(SynthesisEvent::JobStarted {
            job,
            label: request.display_label(),
        });
        let (outcome, charged) = self.run_inner(job, request, sink, cancel);
        let (efficiency, evaluations, stop_reason, error) = match &outcome {
            Ok(result) => (
                Some(result.analytic.efficiency_tops_per_watt()),
                result.evaluations,
                Some(result.stop_reason),
                None,
            ),
            // Failed jobs still did work; report what was actually spent.
            Err(e) => (None, charged, None, Some(e.to_string())),
        };
        sink.emit(SynthesisEvent::Finished {
            job,
            efficiency,
            evaluations,
            stop_reason,
            elapsed: started.elapsed(),
            error,
        });
        outcome
    }

    /// Runs one job; besides the result, returns the candidate evaluations
    /// actually charged to the exploration budget (nonzero even when the
    /// job fails, so metering stays accurate).
    fn run_inner(
        &self,
        job: usize,
        request: &SynthesisRequest,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> (Result<SynthesisResult, SynthesisError>, usize) {
        let options = &request.options;
        let started = Instant::now();
        let cfg = options.to_dse_config();
        let ctx = ExploreContext::new(sink, job, cancel.clone(), options.to_explore_budget());
        let outcome = match run_dse_observed(&request.model, &cfg, &ctx) {
            Ok(outcome) => outcome,
            Err(e) => return (Err(e.into()), ctx.evaluations()),
        };
        let charged = ctx.evaluations();
        if cancel.is_cancelled() {
            return (Err(SynthesisError::Cancelled), charged);
        }
        let cycle = if options.cycle_images > 0 {
            match simulate(
                &request.model,
                &outcome.dataflow,
                &outcome.architecture,
                options.cycle_images,
            ) {
                Ok(report) => Some(report),
                Err(e) => return (Err(e.into()), charged),
            }
        } else {
            None
        };
        (
            Ok(SynthesisResult {
                model: request.model.clone(),
                architecture: outcome.architecture,
                dataflow: outcome.dataflow,
                wt_dup: outcome.wt_dup,
                analytic: outcome.report,
                cycle,
                evaluations: outcome.evaluations,
                history: outcome.history,
                stop_reason: outcome.stop_reason,
                elapsed: started.elapsed(),
            }),
            charged,
        )
    }

    /// Synthesizes a batch of requests over a bounded worker pool,
    /// returning per-job results in request order.
    ///
    /// Jobs are isolated: an infeasible or failing request yields an `Err`
    /// at its position while the rest of the batch completes normally. All
    /// jobs share `cancel` (cancelling it stops the whole batch) and
    /// deliver their events, each tagged with its request's index, to the
    /// shared `sink`, grouped by job in request order: jobs never
    /// interleave, and job k's events reach the sink once jobs 0 … k−1
    /// have finished.
    ///
    /// Internally the batch is a thin client of a private
    /// [`SynthesisService`]: the requests are submitted in order to a queue
    /// drained by one job slot per available core (at most one per
    /// request), the service numbers its jobs 0, 1, … in submission order,
    /// and every result is bit-identical to a standalone run.
    pub fn synthesize_batch(
        &self,
        requests: &[SynthesisRequest],
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Vec<Result<SynthesisResult, SynthesisError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(requests.len());
        let service = SynthesisService::new(
            ServiceConfig::default()
                .with_job_slots(workers)
                .with_queue_depth(requests.len()),
        );
        let handles: Vec<JobHandle> = requests
            .iter()
            .map(|request| {
                service
                    .submit_inner(request.clone(), None, None, Some(cancel.clone()))
                    .expect("batch queue is sized to the batch")
            })
            .collect();
        // Each job's log holds its (already job-tagged) events, so the
        // caller's sink gets them grouped by job, in job order.
        for handle in &handles {
            for event in handle.events() {
                sink.emit(event);
            }
        }
        let results = handles.iter().map(JobHandle::await_result).collect();
        service.shutdown();
        results
    }
}
