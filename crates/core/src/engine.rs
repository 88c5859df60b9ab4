//! The [`SynthesisEngine`]: a reusable, thread-safe entry point that runs
//! synthesis as observable, cancellable *jobs*.
//!
//! Where [`Synthesizer`](crate::Synthesizer) is one opaque blocking call,
//! the engine exposes the same four-stage flow (Fig. 3) as:
//!
//! - [`SynthesisEngine::run`] — blocking, but streaming typed
//!   [`SynthesisEvent`]s to an [`EventSink`] and honoring a
//!   [`CancelToken`] plus the wall-clock / evaluation budgets configured in
//!   [`SynthesisOptions`].
//! - [`SynthesisEngine::spawn`] — the same job on a background thread,
//!   returning a [`SynthesisJob`] handle with an event receiver and a
//!   cancellation token.
//! - [`SynthesisEngine::synthesize_batch`] — many requests fanned out over
//!   a bounded worker pool, with per-job isolation: one infeasible model
//!   does not fail the batch.
//!
//! # Example
//!
//! ```
//! use pimsyn::{SynthesisEngine, SynthesisEvent, SynthesisOptions, SynthesisRequest};
//! use pimsyn_arch::Watts;
//! use pimsyn_model::zoo;
//!
//! let engine = SynthesisEngine::new();
//! let request = SynthesisRequest::new(
//!     zoo::alexnet_cifar(10),
//!     SynthesisOptions::fast(Watts(6.0)).with_seed(3),
//! );
//! let job = engine.spawn(request);
//! let mut improvements = 0;
//! for event in job.events() {
//!     if let SynthesisEvent::ImprovedBest { .. } = event {
//!         improvements += 1;
//!     }
//! }
//! let result = job.join().expect("alexnet at 6 W is feasible");
//! assert!(improvements >= 1);
//! assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
//! ```

use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use pimsyn_dse::{run_dse_observed, CancelToken, ExploreContext, ExploreEvent, ExploreObserver};
use pimsyn_sim::simulate;

use crate::error::SynthesisError;
use crate::events::{lift, ChannelSink, EventSink, SynthesisEvent};
use crate::request::SynthesisRequest;
use crate::synthesis::SynthesisResult;

/// Reusable, thread-safe synthesis entry point running jobs and batches.
///
/// The engine holds no state: all per-job state lives in the request and
/// the per-call context, so one engine can serve many concurrent callers.
#[derive(Debug, Clone, Default)]
pub struct SynthesisEngine;

/// Adapter delivering DSE-layer events into a synthesis-level sink,
/// stamped with the job they belong to (so batch streams stay
/// attributable).
struct SinkAdapter<'a> {
    sink: &'a dyn EventSink,
    job: usize,
}

impl ExploreObserver for SinkAdapter<'_> {
    fn on_event(&self, event: ExploreEvent) {
        self.sink.emit(lift(self.job, event));
    }
}

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
    /// - [`SynthesisError::InvalidOptions`] for inconsistent options.
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

    /// Runs one job with its events tagged as `job` (the batch index or a
    /// service job id); the `SynthesisService` job slots call this too.
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
        if options.cycle_validation && options.cycle_images == 0 {
            return (
                Err(SynthesisError::InvalidOptions {
                    detail: "cycle validation needs at least one image".to_string(),
                }),
                0,
            );
        }
        let started = Instant::now();
        let cfg = options.to_dse_config();
        let adapter = SinkAdapter { sink, job };
        let ctx = ExploreContext::new(&adapter, cancel.clone(), options.to_explore_budget());
        let outcome = match run_dse_observed(&request.model, &cfg, &ctx) {
            Ok(outcome) => outcome,
            Err(e) => return (Err(e.into()), ctx.evaluations()),
        };
        let charged = ctx.evaluations();
        if cancel.is_cancelled() {
            return (Err(SynthesisError::Cancelled), charged);
        }
        let cycle = if options.cycle_validation {
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

    /// Starts one job on a background thread and returns a handle carrying
    /// the live event stream and a cancellation token.
    pub fn spawn(&self, request: SynthesisRequest) -> SynthesisJob {
        let (sink, events) = ChannelSink::pair();
        let cancel = CancelToken::new();
        let engine = self.clone();
        let token = cancel.clone();
        let handle = thread::spawn(move || engine.run_job(0, &request, &sink, &token));
        SynthesisJob {
            events,
            cancel,
            handle,
        }
    }

    /// Synthesizes a batch of requests over a bounded worker pool,
    /// returning per-job results in request order.
    ///
    /// Jobs are isolated: an infeasible or failing request yields an `Err`
    /// at its position while the rest of the batch completes normally. All
    /// jobs share `cancel` (cancelling it stops the whole batch) and
    /// deliver their events — tagged with the job index in `JobStarted` /
    /// `Finished` — to the shared `sink`.
    ///
    /// Internally the batch is a thin client of a private
    /// [`SynthesisService`](crate::SynthesisService): the requests are
    /// submitted in order to a queue drained by one job slot per available
    /// core (at most one per request), and every result is bit-identical
    /// to a standalone run.
    pub fn synthesize_batch_observed(
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
        let service = crate::SynthesisService::new(
            crate::ServiceConfig::default()
                .with_job_slots(workers)
                .with_queue_depth(requests.len()),
        );
        // Jobs deliver their (already job-tagged) events into one channel;
        // this thread forwards them to the caller's borrowed sink. The
        // channel closes once every job has finished (each job's sender
        // drops with its work), which ends the forwarding loop.
        let (tx, events) = mpsc::channel();
        let handles: Vec<crate::JobHandle> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                service
                    .submit_tagged(
                        request.clone(),
                        i,
                        std::sync::Arc::new(ChannelSink::new(tx.clone())),
                        cancel.clone(),
                    )
                    .expect("batch queue is sized to the batch")
            })
            .collect();
        drop(tx);
        for event in events {
            sink.emit(event);
        }
        let results = handles.iter().map(crate::JobHandle::await_result).collect();
        service.shutdown();
        results
    }

    /// [`synthesize_batch_observed`](Self::synthesize_batch_observed)
    /// without observation: no events, cancellable only by dropping the
    /// process, budgets still honored per job.
    pub fn synthesize_batch(
        &self,
        requests: &[SynthesisRequest],
    ) -> Vec<Result<SynthesisResult, SynthesisError>> {
        self.synthesize_batch_observed(requests, &crate::events::NullSink, &CancelToken::new())
    }
}

/// Handle to a spawned synthesis job: a live event stream, a cancellation
/// token, and the eventual result.
#[derive(Debug)]
pub struct SynthesisJob {
    events: mpsc::Receiver<SynthesisEvent>,
    cancel: CancelToken,
    handle: thread::JoinHandle<Result<SynthesisResult, SynthesisError>>,
}

impl SynthesisJob {
    /// The job's event stream. Iterating blocks until the next event and
    /// ends when the job finishes (the last event is
    /// [`SynthesisEvent::Finished`]); use
    /// [`try_iter`](mpsc::Receiver::try_iter) for non-blocking draining.
    pub fn events(&self) -> &mpsc::Receiver<SynthesisEvent> {
        &self.events
    }

    /// A clone of the job's cancellation token (usable from other threads).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests cooperative cancellation; the job returns
    /// [`SynthesisError::Cancelled`] shortly after.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether the job has finished (its result is ready without blocking).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Waits for the job and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the job thread itself panicked (a bug, not a synthesis
    /// failure — infeasibility and cancellation come back as `Err`).
    pub fn join(self) -> Result<SynthesisResult, SynthesisError> {
        self.handle.join().expect("synthesis job thread panicked")
    }
}
