//! The long-lived [`SynthesisService`]: a multi-job queue drained by a
//! fixed number of job slots.
//!
//! Where a [`SynthesisEngine`](crate::SynthesisEngine) models one ephemeral
//! run (or one throwaway batch), the service models a *daemon*: clients
//! [`submit`](SynthesisService::submit) requests into a bounded queue, and
//! a fixed number of job slots drain it in weighted deficit round-robin
//! across [`TenantPolicy`] lanes (submissions without a tenant share one
//! anonymous lane, which dispatches in submission order). Every job runs
//! exactly as a standalone run would, so results are bit-identical to
//! standalone runs.
//!
//! Each submission returns a [`JobHandle`] exposing
//! [`status`](JobHandle::status) / [`await_result`](JobHandle::await_result)
//! / [`cancel`](JobHandle::cancel) / [`events`](JobHandle::events), built on
//! the same [`CancelToken`] / [`EventSink`] machinery as the engine, and
//! [`SynthesisService::job`] finds the same handle by id. The service's
//! job state is the one record of a job: it owns the job's event log, which
//! [`events`](JobHandle::events) replays from the first event and follows
//! live, as often as asked, over one timed read
//! ([`events_since`](JobHandle::events_since)). The `pimsyn-gateway` crate
//! serves a service over HTTP.
//!
//! # Example
//!
//! ```
//! use pimsyn::{ServiceConfig, SynthesisOptions, SynthesisRequest, SynthesisService};
//! use pimsyn_arch::Watts;
//! use pimsyn_model::zoo;
//!
//! let service = SynthesisService::new(ServiceConfig::default().with_job_slots(2));
//! let job = service
//!     .submit(SynthesisRequest::new(
//!         zoo::alexnet_cifar(10),
//!         SynthesisOptions::fast(Watts(6.0)).with_seed(3),
//!     ))
//!     .expect("queue has room");
//! let result = job.await_result().expect("alexnet at 6 W is feasible");
//! assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
//! service.shutdown();
//! ```

mod sched;

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use pimsyn_dse::{CancelToken, EventSink, SynthesisEvent};

use crate::engine::SynthesisEngine;
use crate::error::SynthesisError;
use crate::request::SynthesisRequest;
use crate::synthesis::SynthesisResult;

/// Sizing policy of a [`SynthesisService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Concurrent job slots (worker threads draining the queue).
    pub job_slots: usize,
    /// Maximum jobs *waiting* in the queue (running jobs do not count).
    /// A submit beyond this depth returns [`ServiceError::QueueFull`]
    /// instead of blocking.
    pub queue_depth: usize,
    /// How many *finished* jobs stay addressable by id (their results and
    /// event logs reachable through [`SynthesisService::job`]). Beyond
    /// this, the oldest finished records are dropped — a long-lived daemon
    /// must not grow without bound. Live [`JobHandle`]s are unaffected by
    /// eviction.
    pub finished_retention: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            job_slots: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: Self::DEFAULT_QUEUE_DEPTH,
            finished_retention: Self::DEFAULT_FINISHED_RETENTION,
        }
    }
}

impl ServiceConfig {
    /// Default bound on waiting jobs.
    pub const DEFAULT_QUEUE_DEPTH: usize = 64;

    /// Default bound on retained finished-job records.
    pub const DEFAULT_FINISHED_RETENTION: usize = 256;

    /// Overrides the number of concurrent job slots (at least one).
    #[must_use]
    pub fn with_job_slots(mut self, slots: usize) -> Self {
        self.job_slots = slots.max(1);
        self
    }

    /// Overrides the queue depth (at least one waiting job).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Overrides how many finished jobs stay addressable by id (at least
    /// one).
    #[must_use]
    pub fn with_finished_retention(mut self, retained: usize) -> Self {
        self.finished_retention = retained.max(1);
        self
    }
}

/// Per-tenant scheduling identity and quotas, attached to submissions via
/// [`SynthesisService::submit_with`].
///
/// The *name* keys everything: jobs submitted under the same name share one
/// scheduling lane, one set of running/queued counts, and one quota budget.
/// Submissions without a tenant share an anonymous weight-1 lane with no
/// quotas (plain [`submit`](SynthesisService::submit) behaves exactly as it
/// always has).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Tenant identity (lane key). Must be non-empty.
    pub name: String,
    /// Scheduling weight: per round-robin visit a tenant dispatches up to
    /// `weight` jobs, so two flooding tenants get slots in weight
    /// proportion. Clamped to ≥ 1.
    pub weight: u32,
    /// Maximum jobs this tenant may have *waiting*; a submit beyond it
    /// returns [`ServiceError::QuotaExceeded`] (the 429-style typed
    /// rejection). `None`: only the global queue depth bounds it.
    pub max_queued: Option<usize>,
    /// Maximum jobs this tenant may have *running*; further jobs stay
    /// queued (dispatch is deferred, never rejected) until one finishes.
    pub max_running: Option<usize>,
}

impl TenantPolicy {
    /// A weight-1 tenant with no quotas.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1,
            max_queued: None,
            max_running: None,
        }
    }

    /// Overrides the fair-scheduling weight (clamped to at least 1).
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Caps this tenant's waiting jobs.
    #[must_use]
    pub fn with_max_queued(mut self, max: usize) -> Self {
        self.max_queued = Some(max);
        self
    }

    /// Caps this tenant's concurrently running jobs.
    #[must_use]
    pub fn with_max_running(mut self, max: usize) -> Self {
        self.max_running = Some(max);
        self
    }
}

/// One tenant's queue occupancy in a [`ServiceSnapshot`] (anonymous
/// submissions appear under the empty-string tenant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCounts {
    /// The tenant key.
    pub tenant: String,
    /// Jobs waiting in this tenant's lane.
    pub queued: usize,
    /// Jobs of this tenant currently occupying slots.
    pub running: usize,
}

impl TenantCounts {
    fn new(tenant: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            queued: 0,
            running: 0,
        }
    }
}

/// A point-in-time view of a service's queue, from
/// [`SynthesisService::snapshot`] (the backing store of the gateway's
/// `/metrics` gauges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Jobs waiting, total.
    pub queued: usize,
    /// Jobs occupying slots, total.
    pub running: usize,
    /// Whether a graceful drain is in progress.
    pub draining: bool,
    /// Whether the service has shut down.
    pub shut_down: bool,
    /// Per-tenant occupancy, sorted by tenant key; tenants with neither
    /// queued nor running jobs are absent.
    pub tenants: Vec<TenantCounts>,
}

/// Errors from the service's queueing layer (job *outcomes* travel through
/// [`JobHandle::await_result`] as [`SynthesisError`]s instead).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded queue already holds `depth` waiting jobs; the submit was
    /// rejected rather than blocked. Retry after a job finishes.
    QueueFull {
        /// The configured queue depth that was hit.
        depth: usize,
    },
    /// The submitting tenant already has `limit` jobs waiting
    /// ([`TenantPolicy::max_queued`]); the submit was rejected rather than
    /// blocked. Retry after one of the tenant's jobs dispatches. This is
    /// the typed per-tenant analogue of [`QueueFull`](Self::QueueFull) (an
    /// HTTP front end maps it to `429 Too Many Requests`).
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
        /// The configured `max_queued` bound.
        limit: usize,
    },
    /// The service is draining ([`SynthesisService::begin_drain`]):
    /// already-accepted jobs will finish, but no new jobs are accepted.
    Draining,
    /// The service is shutting down and accepts no new jobs.
    ShutDown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { depth } => {
                write!(f, "job queue is full ({depth} jobs waiting)")
            }
            ServiceError::QuotaExceeded { tenant, limit } => write!(
                f,
                "tenant `{tenant}` is at its queued-job quota ({limit} jobs waiting)"
            ),
            ServiceError::Draining => {
                write!(
                    f,
                    "the synthesis service is draining and accepts no new jobs"
                )
            }
            ServiceError::ShutDown => write!(f, "the synthesis service is shut down"),
        }
    }
}

impl Error for ServiceError {}

/// Lifecycle phase of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Occupying a job slot.
    Running,
    /// Finished; the result is available without blocking.
    Finished,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Finished => "finished",
        })
    }
}

enum JobPhase {
    Queued,
    Running,
    // Boxed: a SynthesisResult is hundreds of bytes, and every queued job
    // carries a phase.
    Finished(Box<Result<SynthesisResult, SynthesisError>>),
}

/// Everything a job needs to run, taken by the slot that executes it and
/// dropped when the run ends.
struct JobWork {
    request: SynthesisRequest,
    external: Option<Arc<dyn EventSink>>,
}

/// A job's event log and phase, under one lock: a read that reports the
/// job finished holds every event it will ever have.
struct JobLog {
    events: Vec<SynthesisEvent>,
    phase: JobPhase,
}

impl JobLog {
    fn is_finished(&self) -> bool {
        matches!(self.phase, JobPhase::Finished(_))
    }
}

struct JobState {
    /// The service-wide job id, also the `job` field of its events.
    id: u64,
    cancel: CancelToken,
    /// Scheduling identity and quotas; `None` = anonymous lane.
    tenant: Option<TenantPolicy>,
    work: Mutex<Option<JobWork>>,
    log: Mutex<JobLog>,
    /// Signalled on every event and phase change.
    changed: Condvar,
}

impl JobState {
    fn new(
        id: u64,
        tenant: Option<TenantPolicy>,
        cancel: CancelToken,
        work: Option<JobWork>,
    ) -> Self {
        Self {
            id,
            cancel,
            tenant,
            work: Mutex::new(work),
            log: Mutex::new(JobLog {
                events: Vec::new(),
                phase: JobPhase::Queued,
            }),
            changed: Condvar::new(),
        }
    }

    /// The scheduling-lane key ("" for anonymous submissions).
    fn tenant_key(&self) -> &str {
        self.tenant.as_ref().map_or("", |t| t.name.as_str())
    }

    /// Fair-scheduling weight (≥ 1).
    fn weight(&self) -> u32 {
        self.tenant.as_ref().map_or(1, |t| t.weight.max(1))
    }

    /// This job's tenant's running cap, if any.
    fn max_running(&self) -> Option<usize> {
        self.tenant.as_ref().and_then(|t| t.max_running)
    }

    fn log(&self) -> MutexGuard<'_, JobLog> {
        self.log.lock().expect("job log")
    }

    fn status(&self) -> JobStatus {
        match self.log().phase {
            JobPhase::Queued => JobStatus::Queued,
            JobPhase::Running => JobStatus::Running,
            JobPhase::Finished(_) => JobStatus::Finished,
        }
    }

    fn set_phase(&self, phase: JobPhase) {
        self.log().phase = phase;
        self.changed.notify_all();
    }

    fn push(&self, event: SynthesisEvent) {
        self.log().events.push(event);
        self.changed.notify_all();
    }
}

struct QueueState {
    /// Waiting jobs, in deficit round-robin across tenant lanes.
    scheduler: sched::DrrScheduler,
    /// Jobs currently occupying slots, per tenant key (`max_running` caps
    /// and introspection).
    running: HashMap<String, usize>,
    /// Jobs currently occupying slots, total.
    running_total: usize,
    /// Draining: accepted jobs finish, new submits are rejected.
    draining: bool,
    shutdown: bool,
}

struct Inner {
    config: ServiceConfig,
    engine: SynthesisEngine,
    queue: Mutex<QueueState>,
    available: Condvar,
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    /// Finished-job ids in completion order; the retention bound evicts
    /// from the front.
    finished: Mutex<VecDeque<u64>>,
    next_id: AtomicU64,
}

impl Inner {
    /// Records a job's completion and evicts the oldest finished records
    /// beyond the retention bound: a daemon processing thousands of jobs
    /// must not retain every result and job state forever. Handles keep
    /// their own `Arc<JobState>`, so eviction only ends by-id addressing.
    fn record_finished(&self, id: u64) {
        let evict: Vec<u64> = {
            let mut finished = self.finished.lock().expect("finished jobs");
            finished.push_back(id);
            let excess = finished
                .len()
                .saturating_sub(self.config.finished_retention);
            finished.drain(..excess).collect()
        };
        if !evict.is_empty() {
            let mut jobs = self.jobs.lock().expect("service jobs");
            for id in evict {
                jobs.remove(&id);
            }
        }
    }

    fn run_slot(self: &Arc<Self>) {
        loop {
            let job = {
                let mut state = self.queue.lock().expect("service queue");
                loop {
                    if state.shutdown {
                        return;
                    }
                    // Dispatch and the running-count increment are atomic
                    // under the queue lock, so `max_running` caps hold.
                    let queue_state = &mut *state;
                    if let Some(job) = queue_state.scheduler.dequeue(&queue_state.running) {
                        *queue_state
                            .running
                            .entry(job.tenant_key().to_string())
                            .or_insert(0) += 1;
                        queue_state.running_total += 1;
                        break job;
                    }
                    state = self.available.wait(state).expect("service queue");
                }
            };
            job.set_phase(JobPhase::Running);
            let work = job.work.lock().expect("job work").take();
            let result = match work {
                // A job cancelled while still queued never runs (and emits
                // no events) — the same contract the engine's batch path
                // has always had for pre-cancelled jobs.
                Some(JobWork { request, external }) if !job.cancel.is_cancelled() => {
                    // The external sink sees each event before the log
                    // does, so whatever it does with an event (the
                    // gateway's metrics fold) is done by the time a
                    // reader finds the event in the log.
                    let sink = |event: SynthesisEvent| {
                        if let Some(external) = &external {
                            external.emit(event.clone());
                        }
                        job.push(event);
                    };
                    self.engine
                        .run_job(job.id as usize, &request, &sink, &job.cancel)
                }
                _ => Err(SynthesisError::Cancelled),
            };
            job.set_phase(JobPhase::Finished(Box::new(result)));
            {
                let mut state = self.queue.lock().expect("service queue");
                let key = job.tenant_key();
                if let Some(count) = state.running.get_mut(key) {
                    *count -= 1;
                    if *count == 0 {
                        state.running.remove(key);
                    }
                }
                state.running_total -= 1;
            }
            // A freed slot may unblock a tenant at its running cap, and
            // drain waiters recheck on every completion: wake everyone.
            self.available.notify_all();
            self.record_finished(job.id);
        }
    }
}

/// A long-lived, thread-safe synthesis daemon: a bounded job queue drained
/// by a fixed number of slots.
///
/// [`submit`](Self::submit) enqueues a [`SynthesisRequest`] and returns a
/// [`JobHandle`] (or [`ServiceError::QueueFull`] — it never blocks). Each
/// job runs exactly like a standalone run, so its result is bit-identical
/// to one.
pub struct SynthesisService {
    inner: Arc<Inner>,
    slots: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl fmt::Debug for SynthesisService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let queue = self.inner.queue.lock().expect("service queue");
        f.debug_struct("SynthesisService")
            .field("config", &self.inner.config)
            .field("queued", &queue.scheduler.len())
            .field("running", &queue.running_total)
            .field("draining", &queue.draining)
            .field("shutdown", &queue.shutdown)
            .finish_non_exhaustive()
    }
}

impl Default for SynthesisService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl SynthesisService {
    /// Starts a service: `config.job_slots` worker threads begin draining
    /// the (initially empty) queue immediately.
    pub fn new(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            engine: SynthesisEngine::new(),
            queue: Mutex::new(QueueState {
                scheduler: sched::DrrScheduler::default(),
                running: HashMap::new(),
                running_total: 0,
                draining: false,
                shutdown: false,
            }),
            config,
            available: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            finished: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
        });
        let slots = (0..inner.config.job_slots)
            .map(|_| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || inner.run_slot())
            })
            .collect();
        Self {
            inner,
            slots: Mutex::new(slots),
        }
    }

    /// The sizing policy this service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// A point-in-time view of the queue: totals, drain state, and
    /// per-tenant counts (for dashboards and the gateway's `/metrics`).
    pub fn snapshot(&self) -> ServiceSnapshot {
        let queue = self.inner.queue.lock().expect("service queue");
        let mut tenants: HashMap<String, TenantCounts> = HashMap::new();
        for (name, queued) in queue.scheduler.tenant_counts() {
            tenants
                .entry(name.clone())
                .or_insert_with(|| TenantCounts::new(name))
                .queued = queued;
        }
        for (name, &running) in &queue.running {
            tenants
                .entry(name.clone())
                .or_insert_with(|| TenantCounts::new(name.clone()))
                .running = running;
        }
        let mut tenants: Vec<TenantCounts> = tenants.into_values().collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        ServiceSnapshot {
            queued: queue.scheduler.len(),
            running: queue.running_total,
            draining: queue.draining,
            shut_down: queue.shutdown,
            tenants,
        }
    }

    /// Submits a request into the queue.
    ///
    /// # Errors
    ///
    /// - [`ServiceError::QueueFull`] when `queue_depth` jobs are already
    ///   waiting (the call never blocks on a full queue).
    /// - [`ServiceError::ShutDown`] after [`shutdown`](Self::shutdown).
    pub fn submit(&self, request: SynthesisRequest) -> Result<JobHandle, ServiceError> {
        self.submit_inner(request, None, None, None)
    }

    /// Submits a request under a tenant policy, optionally handing each of
    /// its events to an external sink as well (e.g. a metrics fold).
    ///
    /// The tenant's `name` keys its scheduling lane and quota budget; the
    /// policy travels with the job, so the *submitter* decides quotas and
    /// weights (a front end resolves them from its tenant registry).
    /// `tenant: None` is exactly [`submit`](Self::submit) plus the sink.
    ///
    /// # Errors
    ///
    /// Everything [`submit`](Self::submit) returns, plus
    /// [`ServiceError::QuotaExceeded`] when the tenant is at its
    /// [`max_queued`](TenantPolicy::max_queued) bound and
    /// [`ServiceError::Draining`] while a drain is in progress.
    pub fn submit_with(
        &self,
        request: SynthesisRequest,
        tenant: Option<TenantPolicy>,
        external: Option<Arc<dyn EventSink>>,
    ) -> Result<JobHandle, ServiceError> {
        self.submit_inner(request, tenant, external, None)
    }

    /// [`submit_with`](Self::submit_with) under the caller's `cancel` token
    /// when one is given (a batch's jobs share one).
    pub(crate) fn submit_inner(
        &self,
        request: SynthesisRequest,
        tenant: Option<TenantPolicy>,
        external: Option<Arc<dyn EventSink>>,
        cancel: Option<CancelToken>,
    ) -> Result<JobHandle, ServiceError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(JobState::new(
            id,
            tenant,
            cancel.unwrap_or_default(),
            Some(JobWork { request, external }),
        ));
        {
            let mut queue = self.inner.queue.lock().expect("service queue");
            if queue.shutdown {
                return Err(ServiceError::ShutDown);
            }
            if queue.draining {
                return Err(ServiceError::Draining);
            }
            if queue.scheduler.len() >= self.inner.config.queue_depth {
                return Err(ServiceError::QueueFull {
                    depth: self.inner.config.queue_depth,
                });
            }
            if let Some(policy) = &state.tenant {
                if let Some(limit) = policy.max_queued {
                    if queue.scheduler.queued_for(&policy.name) >= limit {
                        return Err(ServiceError::QuotaExceeded {
                            tenant: policy.name.clone(),
                            limit,
                        });
                    }
                }
            }
            queue.scheduler.enqueue(Arc::clone(&state));
        }
        self.inner.available.notify_one();
        self.inner
            .jobs
            .lock()
            .expect("service jobs")
            .insert(id, Arc::clone(&state));
        Ok(JobHandle { state })
    }

    /// The job with this id: every job until it finishes, then until it
    /// is evicted past
    /// [`finished_retention`](ServiceConfig::finished_retention) (a
    /// [`JobHandle`] keeps its job reachable regardless). `None` for
    /// unknown and evicted ids.
    pub fn job(&self, id: u64) -> Option<JobHandle> {
        let jobs = self.inner.jobs.lock().expect("service jobs");
        jobs.get(&id).map(|state| JobHandle {
            state: Arc::clone(state),
        })
    }

    /// Begins a graceful drain: from now on submits are rejected with
    /// [`ServiceError::Draining`], while already-accepted jobs — queued
    /// *and* running — proceed to completion (unlike
    /// [`shutdown`](Self::shutdown), which cancels queued jobs). Status,
    /// result and cancel calls keep working throughout. Idempotent.
    pub fn begin_drain(&self) {
        self.inner.queue.lock().expect("service queue").draining = true;
    }

    /// Whether [`begin_drain`](Self::begin_drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.queue.lock().expect("service queue").draining
    }

    /// Blocks until no job is waiting or running. Usually preceded by
    /// [`begin_drain`](Self::begin_drain) — without it new submits can keep
    /// the queue busy indefinitely.
    pub fn await_drained(&self) {
        let mut queue = self.inner.queue.lock().expect("service queue");
        while queue.scheduler.len() > 0 || queue.running_total > 0 {
            queue = self.inner.available.wait(queue).expect("service queue");
        }
    }

    /// Graceful drain, end to end: stop accepting new jobs, let every
    /// queued and running job finish, then shut down (joining all slots).
    /// The zero-downtime-restart path: a drained service exits with all
    /// accepted work completed, never cancelled.
    pub fn drain(&self) {
        self.begin_drain();
        self.await_drained();
        self.shutdown();
    }

    /// Shuts the service down: no further submits are accepted, jobs still
    /// waiting in the queue finish as [`SynthesisError::Cancelled`] without
    /// running, running jobs are cancelled cooperatively, and every job
    /// slot is joined before this returns.
    pub fn shutdown(&self) {
        let drained: Vec<Arc<JobState>> = {
            let mut queue = self.inner.queue.lock().expect("service queue");
            queue.shutdown = true;
            queue.scheduler.drain_all()
        };
        self.inner.available.notify_all();
        for job in drained {
            job.set_phase(JobPhase::Finished(Box::new(Err(SynthesisError::Cancelled))));
            self.inner.record_finished(job.id);
        }
        // Cancel only unfinished jobs: a finished job's token may be shared
        // with the caller (batch submissions share one), and cancelling it
        // after the fact would leak into the caller's token.
        for job in self.inner.jobs.lock().expect("service jobs").values() {
            if job.status() != JobStatus::Finished {
                job.cancel.cancel();
            }
        }
        let slots = std::mem::take(&mut *self.slots.lock().expect("service slots"));
        for slot in slots {
            let _ = slot.join();
        }
    }
}

impl Drop for SynthesisService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handle to one submitted job: status polling, the event log, a
/// cancellation lever, and the eventual result. Clones share the job.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<JobState>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.state.id)
            .field("status", &self.state.status())
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The service-wide job id (what the gateway's `/v1/jobs/{id}` routes
    /// address), also the `job` field of the job's events.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The job's current lifecycle phase.
    pub fn status(&self) -> JobStatus {
        self.state.status()
    }

    /// The tenant this job was submitted under
    /// ([`SynthesisService::submit_with`]), if any.
    pub fn tenant(&self) -> Option<&str> {
        self.state.tenant.as_ref().map(|t| t.name.as_str())
    }

    /// Whether the result is available without blocking.
    pub fn is_finished(&self) -> bool {
        self.status() == JobStatus::Finished
    }

    /// The job's event stream: replays the log from the first event, then
    /// blocks for each next one, and ends when the job finishes (the last
    /// event is [`SynthesisEvent::Finished`]); a job cancelled before it
    /// ran has no events. Every call replays the whole stream.
    pub fn events(&self) -> impl Iterator<Item = SynthesisEvent> {
        let job = self.clone();
        let (mut cursor, mut finished) = (0, false);
        let mut batch = Vec::new().into_iter();
        std::iter::from_fn(move || loop {
            if let Some(event) = batch.next() {
                return Some(event);
            }
            if finished {
                return None;
            }
            let events;
            (events, finished) = job.events_since(cursor, None);
            cursor += events.len();
            batch = events.into_iter();
        })
    }

    /// The job's events from index `from` on, and whether the job has
    /// finished. Blocks until there is at least one such event or the job
    /// finishes, for at most `timeout` (`None`: no limit), so an empty,
    /// unfinished read means the timeout passed. A finished read holds
    /// every event the job will ever have.
    pub fn events_since(
        &self,
        from: usize,
        timeout: Option<Duration>,
    ) -> (Vec<SynthesisEvent>, bool) {
        let idle = |log: &mut JobLog| log.events.len() <= from && !log.is_finished();
        let log = self.state.log();
        let changed = &self.state.changed;
        let log = match timeout {
            None => changed.wait_while(log, idle).expect("job log"),
            Some(timeout) => {
                changed
                    .wait_timeout_while(log, timeout, idle)
                    .expect("job log")
                    .0
            }
        };
        let events = log.events.get(from..).map_or_else(Vec::new, <[_]>::to_vec);
        (events, log.is_finished())
    }

    /// Requests cooperative cancellation: a queued job never runs, a
    /// running one returns [`SynthesisError::Cancelled`] shortly after.
    pub fn cancel(&self) {
        self.state.cancel.cancel();
    }

    /// Blocks until the job finishes and returns (a clone of) its result.
    /// Callable repeatedly; the handle stays usable.
    pub fn await_result(&self) -> Result<SynthesisResult, SynthesisError> {
        let mut log = self.state.log();
        loop {
            if let JobPhase::Finished(result) = &log.phase {
                return (**result).clone();
            }
            log = self.state.changed.wait(log).expect("job log");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SynthesisOptions;
    use pimsyn_arch::Watts;
    use pimsyn_model::zoo;

    fn fast_request(seed: u64) -> SynthesisRequest {
        SynthesisRequest::new(
            zoo::alexnet_cifar(10),
            SynthesisOptions::fast(Watts(6.0)).with_seed(seed),
        )
    }

    #[test]
    fn submit_runs_and_streams_events() {
        let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
        let job = service.submit(fast_request(3)).unwrap();
        let events: Vec<SynthesisEvent> = job.events().collect();
        assert!(matches!(
            events.first(),
            Some(SynthesisEvent::JobStarted { .. })
        ));
        assert!(matches!(
            events.last(),
            Some(SynthesisEvent::Finished { .. })
        ));
        let result = job.await_result().unwrap();
        assert!(result.analytic.efficiency_tops_per_watt() > 0.0);
        assert_eq!(job.status(), JobStatus::Finished);
        // Results stay fetchable, by handle and by id.
        assert!(job.await_result().is_ok());
        assert!(service.job(job.id()).unwrap().await_result().is_ok());
        assert_eq!(
            service.job(job.id()).map(|job| job.status()),
            Some(JobStatus::Finished)
        );
        assert!(service.job(999).is_none());
        service.shutdown();
    }

    /// The job's log replays in full on every read, through every handle.
    #[test]
    fn finished_job_replays_its_whole_stream() {
        let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
        let job = service.submit(fast_request(3)).unwrap();
        let first: Vec<SynthesisEvent> = job.events().collect();
        assert!(matches!(first[0], SynthesisEvent::JobStarted { .. }));
        assert!(matches!(
            first.last(),
            Some(SynthesisEvent::Finished { .. })
        ));
        assert_eq!(job.events().collect::<Vec<_>>(), first);
        let by_id = service.job(job.id()).unwrap();
        assert_eq!(by_id.events().collect::<Vec<_>>(), first);
        service.shutdown();
    }

    #[test]
    fn queued_job_cancelled_before_running_never_runs() {
        let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
        // Occupy the only slot with a job we keep alive until the victim is
        // cancelled, so the victim is guaranteed still queued.
        let blocker = service.submit(fast_request(3)).unwrap();
        let victim = service.submit(fast_request(4)).unwrap();
        victim.cancel();
        assert!(matches!(
            victim.await_result(),
            Err(SynthesisError::Cancelled)
        ));
        assert_eq!(victim.events().count(), 0, "never ran, no events");
        assert!(blocker.await_result().is_ok());
        service.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
        service.shutdown();
        assert_eq!(
            service.submit(fast_request(3)).unwrap_err(),
            ServiceError::ShutDown
        );
    }

    #[test]
    fn shutdown_cancels_queued_jobs() {
        let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
        let running = service.submit(fast_request(3)).unwrap();
        let queued = service.submit(fast_request(4)).unwrap();
        service.shutdown();
        assert!(matches!(
            queued.await_result(),
            Err(SynthesisError::Cancelled)
        ));
        // The running job either completed or was cancelled, but the
        // service joined its slot either way.
        let _ = running.await_result();
    }

    #[test]
    fn finished_jobs_evict_past_the_retention_bound() {
        let service = SynthesisService::new(
            ServiceConfig::default()
                .with_job_slots(1)
                .with_finished_retention(2),
        );
        let handles: Vec<_> = (0..4)
            .map(|i| service.submit(fast_request(3 + i)).unwrap())
            .collect();
        for handle in &handles {
            assert!(handle.await_result().is_ok());
        }
        // With one serial slot, job 3 finishing implies job 2's completion
        // was recorded, which evicted job 0 (retention 2).
        assert!(
            service.job(handles[0].id()).is_none(),
            "oldest finished record must evict"
        );
        assert!(service.job(handles[3].id()).is_some());
        // Handles keep their own state: an evicted job's result is still
        // reachable through its handle.
        assert!(handles[0].await_result().is_ok());
        service.shutdown();
    }

    #[test]
    fn service_error_displays() {
        assert!(ServiceError::QueueFull { depth: 4 }
            .to_string()
            .contains("4"));
        assert!(ServiceError::ShutDown.to_string().contains("shut down"));
        assert_eq!(JobStatus::Queued.to_string(), "queued");
        assert_eq!(JobStatus::Running.to_string(), "running");
        assert_eq!(JobStatus::Finished.to_string(), "finished");
    }
}
