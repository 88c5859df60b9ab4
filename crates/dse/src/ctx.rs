//! Observability and control for long-running explorations: the typed
//! event stream of a synthesis job, cooperative cancellation, and
//! wall-clock / evaluation budgets.
//!
//! [`run_dse_observed`](crate::run_dse_observed) threads an
//! [`ExploreContext`] through every stage of Algorithm 1 (the SA filter,
//! dataflow compilation, the EA partitioner and components allocation), so
//! callers can watch a synthesis job progress design point by design point,
//! stop it promptly, or bound how much work it may spend. The blocking
//! [`run_dse`](crate::run_dse) entry point is a thin wrapper over an
//! unobserved context.
//!
//! [`SynthesisEvent`] is defined once, here: the search writes each event,
//! stamped with the context's job tag, straight into the job's
//! [`EventSink`]. The `pimsyn` crate re-exports the stream, adds each job's
//! `JobStarted` and `Finished` events, and renders events for the wire.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::eval::EvaluatorStats;
use crate::space::DesignPoint;

/// The four synthesis stages of the paper's Fig. 3 flow, as they execute at
/// each outer design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthesisStage {
    /// Stage 1: weight-duplication candidate generation (SA filter).
    WeightDuplication,
    /// Stage 2: dataflow compilation of every candidate x DAC resolution.
    DataflowCompilation,
    /// Stage 3: EA-based macro partitioning (components allocation and
    /// analytic evaluation run per candidate inside the EA loop). It starts
    /// when the point's first EA run is taken and finishes when its last
    /// run ends. A search without a count budget takes the runs of every
    /// point best bound first, so each point's stage 3 spans most of the
    /// search's EA phase and the points' stage 3 spans overlap.
    MacroPartitioning,
    /// Stage 4: components allocation of the point winner: each EA run's
    /// winner is re-validated as the run ends, and the point keeps its best
    /// valid run.
    ComponentAllocation,
}

impl SynthesisStage {
    /// The stages in paper order.
    pub const ALL: [SynthesisStage; 4] = [
        SynthesisStage::WeightDuplication,
        SynthesisStage::DataflowCompilation,
        SynthesisStage::MacroPartitioning,
        SynthesisStage::ComponentAllocation,
    ];

    /// Position of the stage in the paper's flow (1-based).
    pub fn ordinal(&self) -> usize {
        match self {
            SynthesisStage::WeightDuplication => 1,
            SynthesisStage::DataflowCompilation => 2,
            SynthesisStage::MacroPartitioning => 3,
            SynthesisStage::ComponentAllocation => 4,
        }
    }
}

impl fmt::Display for SynthesisStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SynthesisStage::WeightDuplication => "weight duplication",
            SynthesisStage::DataflowCompilation => "dataflow compilation",
            SynthesisStage::MacroPartitioning => "macro partitioning",
            SynthesisStage::ComponentAllocation => "components allocation",
        };
        f.write_str(name)
    }
}

/// Why an exploration run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// Every design point was explored to completion.
    Completed,
    /// The caller cancelled via [`CancelToken::cancel`].
    Cancelled,
    /// The wall-clock deadline of [`ExploreBudget::deadline`] passed.
    DeadlineReached,
    /// The [`ExploreBudget::max_evaluations`] budget was spent.
    EvaluationBudgetReached,
    /// The [`ExploreBudget::max_unique_evaluations`] budget was spent.
    UniqueEvaluationBudgetReached,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StopReason::Completed => "completed",
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineReached => "deadline reached",
            StopReason::EvaluationBudgetReached => "evaluation budget reached",
            StopReason::UniqueEvaluationBudgetReached => "unique-evaluation budget reached",
        };
        f.write_str(name)
    }
}

/// A shared, cloneable cancellation flag. Cloning yields a handle to the
/// *same* token, so one side can run a job while the other cancels it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all holders observe it on their next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource bounds for an exploration run. An exhausted budget stops the
/// search *gracefully*: the best architecture found so far is still
/// returned (with the corresponding [`StopReason`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreBudget {
    /// Hard wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum candidate-architecture evaluations across all design points.
    pub max_evaluations: Option<usize>,
    /// Maximum *unique* candidate evaluations (memo misses that actually run
    /// the compile → allocate → evaluate pipeline). With high cache-hit
    /// rates, scored-candidate and wall-clock budgets diverge from the work
    /// actually done; this budget bounds the work itself.
    pub max_unique_evaluations: Option<usize>,
}

impl ExploreBudget {
    /// No bounds: run to completion.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bounds wall-clock time to `limit` from now.
    #[must_use]
    pub fn with_timeout(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Bounds total candidate evaluations.
    #[must_use]
    pub fn with_max_evaluations(mut self, n: usize) -> Self {
        self.max_evaluations = Some(n);
        self
    }

    /// Bounds unique candidate evaluations (memo misses).
    #[must_use]
    pub fn with_max_unique_evaluations(mut self, n: usize) -> Self {
        self.max_unique_evaluations = Some(n);
        self
    }
}

/// Progress events emitted while a synthesis job runs: the one event
/// stream from the search to the client.
///
/// Stage and design-point events mirror the paper's Fig. 3 flow as executed
/// at each outer design point of Algorithm 1; `point_index` identifies the
/// design point (its index in
/// [`DesignSpace::points`](crate::DesignSpace::points)). Stage events from
/// different points interleave. A point's
/// [`ImprovedBest`](Self::ImprovedBest),
/// [`EvaluatorStats`](Self::EvaluatorStats) and
/// [`DesignPointEvaluated`](Self::DesignPointEvaluated) wait until it and
/// every earlier point have closed, so they come in point order. `job` is
/// the tag set on the job's [`ExploreContext`]: a service job's id (in a
/// batch, the request's index in the submitted slice), or 0 for a job run
/// directly on the calling thread.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisEvent {
    /// A job began executing.
    JobStarted {
        /// The job this event belongs to.
        job: usize,
        /// Human-readable job label (request label or model name).
        label: String,
    },
    /// One of the four paper stages began at a design point.
    StageStarted {
        /// The job this event belongs to.
        job: usize,
        /// Outer design-point index.
        point_index: usize,
        /// Which stage.
        stage: SynthesisStage,
    },
    /// One of the four paper stages completed at a design point.
    StageFinished {
        /// The job this event belongs to.
        job: usize,
        /// Outer design-point index.
        point_index: usize,
        /// Which stage.
        stage: SynthesisStage,
    },
    /// An outer design point was fully explored.
    DesignPointEvaluated {
        /// The job this event belongs to.
        job: usize,
        /// The design point.
        point: DesignPoint,
        /// Outer design-point index.
        point_index: usize,
        /// Best objective fitness found there (TOPS/W by default, 1/EDP
        /// under [`Objective::EnergyDelayProduct`](crate::Objective)) by
        /// the EA runs that ran; 0 when infeasible, or when every run was
        /// skipped as unable to beat a fitness already found.
        best_efficiency: f64,
        /// Candidate architectures evaluated at this point (skipped EA
        /// runs evaluate none).
        evaluations: usize,
    },
    /// A point reported a fitness above the best of every point reported
    /// before it. "Best" is per job: fitness values from different jobs in
    /// a batch are not comparable.
    ImprovedBest {
        /// The job this event belongs to.
        job: usize,
        /// Design point where the improvement happened.
        point_index: usize,
        /// The new best fitness.
        fitness: f64,
    },
    /// Cumulative candidate-evaluator throughput counters (scored
    /// candidates, unique evaluations, cache hits), snapshotted as each
    /// design point reports, immediately before its
    /// [`DesignPointEvaluated`](Self::DesignPointEvaluated). Stats are
    /// job-wide and monotonic. A snapshot reads the counters of the moment,
    /// so with parallel workers its contents vary from run to run; the last
    /// snapshot before [`Finished`](Self::Finished) summarizes the job.
    EvaluatorStats {
        /// The job this event belongs to.
        job: usize,
        /// Outer design-point index whose completion triggered the snapshot.
        point_index: usize,
        /// Job-wide evaluator counters at snapshot time.
        stats: EvaluatorStats,
    },
    /// The job finished (the terminal event of every job).
    Finished {
        /// The job this event belongs to.
        job: usize,
        /// Best efficiency achieved (TOPS/W), `None` on failure.
        efficiency: Option<f64>,
        /// Total candidate evaluations performed.
        evaluations: usize,
        /// Why the search ended (`None` when the job failed outright).
        stop_reason: Option<StopReason>,
        /// Wall-clock job duration.
        elapsed: Duration,
        /// Error rendering, when the job failed.
        error: Option<String>,
    },
}

/// Receives [`SynthesisEvent`]s from a running job. Any
/// `Fn(SynthesisEvent) + Send + Sync` closure is a sink.
///
/// Sinks are shared across the exploration's worker threads, so
/// implementations must be `Send + Sync` and should be cheap: events are
/// delivered synchronously from the synthesis hot path.
pub trait EventSink: Send + Sync {
    /// Called once per event, possibly from several threads at once.
    fn emit(&self, event: SynthesisEvent);
}

/// Discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: SynthesisEvent) {}
}

impl<F: Fn(SynthesisEvent) + Send + Sync> EventSink for F {
    fn emit(&self, event: SynthesisEvent) {
        self(event)
    }
}

/// Everything a running exploration needs to be observable and stoppable:
/// the job's event sink and tag, a cancellation token, and resource
/// budgets, plus the shared evaluation counter the budget is enforced
/// against.
///
/// One context spans one `run_dse_observed` call; worker threads share it
/// by reference.
pub struct ExploreContext<'a> {
    sink: &'a dyn EventSink,
    /// The `job` field of every event this context emits.
    job: usize,
    cancel: CancelToken,
    budget: ExploreBudget,
    evaluations: AtomicUsize,
    unique_evaluations: AtomicUsize,
    /// Best fitness seen so far. A mutex (not an atomic CAS) so the
    /// `ImprovedBest` emission happens inside the critical section:
    /// observers then see strictly increasing bests even with parallel
    /// workers racing on improvements.
    best: Mutex<f64>,
    /// First stop reason a cooperative check actually observed (0 = none);
    /// distinguishes "the search was curtailed" from "the budget happened
    /// to run out exactly as the search finished".
    observed: AtomicU8,
    /// Serializes evaluator-stats snapshot + emission (see
    /// [`emit_evaluator_stats`](Self::emit_evaluator_stats)).
    stats_emit: Mutex<()>,
}

impl fmt::Debug for ExploreContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreContext")
            .field("job", &self.job)
            .field("cancel", &self.cancel)
            .field("budget", &self.budget)
            .field("evaluations", &self.evaluations)
            .finish_non_exhaustive()
    }
}

impl<'a> ExploreContext<'a> {
    /// A context delivering events tagged `job` to `sink`, cancellable
    /// through `cancel`, bounded by `budget`.
    pub fn new(
        sink: &'a dyn EventSink,
        job: usize,
        cancel: CancelToken,
        budget: ExploreBudget,
    ) -> Self {
        Self {
            sink,
            job,
            cancel,
            budget,
            evaluations: AtomicUsize::new(0),
            unique_evaluations: AtomicUsize::new(0),
            best: Mutex::new(0.0),
            observed: AtomicU8::new(0),
            stats_emit: Mutex::new(()),
        }
    }

    /// A context that observes nothing and never stops early.
    pub fn unobserved() -> ExploreContext<'static> {
        ExploreContext::new(&NullSink, 0, CancelToken::new(), ExploreBudget::unlimited())
    }

    /// The cancellation token this context watches.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The configured budget.
    pub fn budget(&self) -> ExploreBudget {
        self.budget
    }

    /// The `job` field of every event this context emits.
    pub(crate) fn job(&self) -> usize {
        self.job
    }

    /// Delivers an event to the sink.
    pub(crate) fn emit(&self, event: SynthesisEvent) {
        self.sink.emit(event);
    }

    /// Emits this job's [`SynthesisEvent::StageStarted`].
    pub(crate) fn stage_started(&self, point_index: usize, stage: SynthesisStage) {
        self.emit(SynthesisEvent::StageStarted {
            job: self.job,
            point_index,
            stage,
        });
    }

    /// Emits this job's [`SynthesisEvent::StageFinished`].
    pub(crate) fn stage_finished(&self, point_index: usize, stage: SynthesisStage) {
        self.emit(SynthesisEvent::StageFinished {
            job: self.job,
            point_index,
            stage,
        });
    }

    /// Adds `n` candidate evaluations to the shared counter.
    pub fn count_evaluations(&self, n: usize) {
        self.evaluations.fetch_add(n, Ordering::Relaxed);
    }

    /// Total candidate evaluations recorded so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Adds `n` *unique* evaluations (memo misses) to the shared counter.
    pub fn count_unique_evaluations(&self, n: usize) {
        self.unique_evaluations.fetch_add(n, Ordering::Relaxed);
    }

    /// Total unique candidate evaluations (memo misses) recorded so far.
    pub fn unique_evaluations(&self) -> usize {
        self.unique_evaluations.load(Ordering::Relaxed)
    }

    /// Snapshots evaluator throughput counters and emits
    /// [`SynthesisEvent::EvaluatorStats`] atomically: the snapshot is taken
    /// and delivered inside one critical section, so observers see
    /// monotonically increasing counters even when parallel workers finish
    /// design points concurrently (the same discipline as
    /// [`record_fitness`](Self::record_fitness)).
    pub fn emit_evaluator_stats(&self, point_index: usize, snapshot: &dyn Fn() -> EvaluatorStats) {
        let _serialized = self.stats_emit.lock().expect("stats-emit mutex");
        self.emit(SynthesisEvent::EvaluatorStats {
            job: self.job,
            point_index,
            stats: snapshot(),
        });
    }

    /// Records a point-level fitness and emits
    /// [`SynthesisEvent::ImprovedBest`] if it beats the best seen so far in
    /// this run. Emission happens while the best is held, so observers see
    /// strictly increasing bests even when parallel workers improve
    /// concurrently.
    pub fn record_fitness(&self, point_index: usize, fitness: f64) {
        // NaN and infeasible (zero) fitness are both ignored.
        if fitness.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let mut best = self.best.lock().expect("best-fitness mutex");
        if fitness > *best {
            *best = fitness;
            self.emit(SynthesisEvent::ImprovedBest {
                job: self.job,
                point_index,
                fitness,
            });
        }
    }

    /// Why the run should stop now, if it should.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.cancel.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::DeadlineReached);
            }
        }
        if let Some(max) = self.budget.max_evaluations {
            if self.evaluations() >= max {
                return Some(StopReason::EvaluationBudgetReached);
            }
        }
        if let Some(max) = self.budget.max_unique_evaluations {
            if self.unique_evaluations() >= max {
                return Some(StopReason::UniqueEvaluationBudgetReached);
            }
        }
        None
    }

    /// Whether the run should stop now (cancelled or out of budget). A
    /// `true` answer is also recorded, so
    /// [`observed_stop`](Self::observed_stop) can later distinguish a
    /// curtailed search from one whose budget ran out exactly as it
    /// finished naturally.
    pub fn should_stop(&self) -> bool {
        match self.stop_reason() {
            Some(reason) => {
                let code = match reason {
                    StopReason::Completed => 0,
                    StopReason::Cancelled => 1,
                    StopReason::DeadlineReached => 2,
                    StopReason::EvaluationBudgetReached => 3,
                    StopReason::UniqueEvaluationBudgetReached => 4,
                };
                // First observation wins.
                let _ =
                    self.observed
                        .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// The first stop reason a cooperative check observed, if the search
    /// was actually curtailed by one.
    pub fn observed_stop(&self) -> Option<StopReason> {
        match self.observed.load(Ordering::Relaxed) {
            1 => Some(StopReason::Cancelled),
            2 => Some(StopReason::DeadlineReached),
            3 => Some(StopReason::EvaluationBudgetReached),
            4 => Some(StopReason::UniqueEvaluationBudgetReached),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn unobserved_context_never_stops() {
        let ctx = ExploreContext::unobserved();
        ctx.count_evaluations(1_000_000);
        assert_eq!(ctx.stop_reason(), None);
    }

    #[test]
    fn evaluation_budget_trips() {
        let cancel = CancelToken::new();
        let ctx = ExploreContext::new(
            &NullSink,
            0,
            cancel,
            ExploreBudget::unlimited().with_max_evaluations(10),
        );
        ctx.count_evaluations(9);
        assert_eq!(ctx.stop_reason(), None);
        ctx.count_evaluations(1);
        assert_eq!(ctx.stop_reason(), Some(StopReason::EvaluationBudgetReached));
    }

    #[test]
    fn unique_evaluation_budget_trips_on_misses_only() {
        let ctx = ExploreContext::new(
            &NullSink,
            0,
            CancelToken::new(),
            ExploreBudget::unlimited().with_max_unique_evaluations(2),
        );
        // Scored-candidate charges alone never trip the unique budget.
        ctx.count_evaluations(100);
        assert_eq!(ctx.stop_reason(), None);
        ctx.count_unique_evaluations(1);
        assert_eq!(ctx.stop_reason(), None);
        ctx.count_unique_evaluations(1);
        assert_eq!(
            ctx.stop_reason(),
            Some(StopReason::UniqueEvaluationBudgetReached)
        );
    }

    #[test]
    fn deadline_trips() {
        let ctx = ExploreContext::new(
            &NullSink,
            0,
            CancelToken::new(),
            ExploreBudget {
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                max_evaluations: None,
                max_unique_evaluations: None,
            },
        );
        assert_eq!(ctx.stop_reason(), Some(StopReason::DeadlineReached));
    }

    #[test]
    fn cancellation_wins_over_budget() {
        let cancel = CancelToken::new();
        let ctx = ExploreContext::new(
            &NullSink,
            0,
            cancel.clone(),
            ExploreBudget::unlimited().with_max_evaluations(0),
        );
        cancel.cancel();
        assert_eq!(ctx.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn record_fitness_emits_only_improvements() {
        let seen: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        let observer = |ev: SynthesisEvent| {
            if let SynthesisEvent::ImprovedBest {
                job: 7, fitness, ..
            } = ev
            {
                seen.lock().unwrap().push(fitness);
            }
        };
        let ctx = ExploreContext::new(&observer, 7, CancelToken::new(), ExploreBudget::unlimited());
        ctx.record_fitness(0, 1.0);
        ctx.record_fitness(1, 0.5); // not an improvement
        ctx.record_fitness(2, 2.0);
        ctx.record_fitness(3, 0.0); // infeasible, ignored
        assert_eq!(*seen.lock().unwrap(), vec![1.0, 2.0]);
    }
}
