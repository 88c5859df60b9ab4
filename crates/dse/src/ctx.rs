//! Observability and control for long-running explorations: typed progress
//! events, cooperative cancellation, and wall-clock / evaluation budgets.
//!
//! [`run_dse_observed`](crate::run_dse_observed) threads an
//! [`ExploreContext`] through every stage of Algorithm 1 (the SA filter,
//! dataflow compilation, the EA partitioner and components allocation), so
//! callers can watch a synthesis job progress design point by design point,
//! stop it promptly, or bound how much work it may spend. The blocking
//! [`run_dse`](crate::run_dse) entry point is a thin wrapper over an
//! unobserved context.

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
    /// run ends.
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

/// Typed progress events emitted while Algorithm 1 runs.
///
/// `point_index` identifies the outer design point (its index in
/// [`DesignSpace::points`](crate::DesignSpace::points)); with parallel
/// exploration, events from different points interleave.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreEvent {
    /// A synthesis stage began at one design point.
    StageStarted {
        /// Outer design-point index.
        point_index: usize,
        /// Which of the four paper stages.
        stage: SynthesisStage,
    },
    /// A synthesis stage completed at one design point.
    StageFinished {
        /// Outer design-point index.
        point_index: usize,
        /// Which of the four paper stages.
        stage: SynthesisStage,
    },
    /// One outer design point was fully explored.
    DesignPointEvaluated {
        /// The design point.
        point: DesignPoint,
        /// Outer design-point index.
        point_index: usize,
        /// Best objective fitness found there by the EA runs that ran
        /// (TOPS/W under the default power-efficiency objective, 1/EDP
        /// under [`Objective::EnergyDelayProduct`](crate::Objective)); 0
        /// when infeasible, or when every run was skipped as unable to beat
        /// a fitness already found.
        best_efficiency: f64,
        /// Candidate architectures evaluated at this point (skipped EA
        /// runs evaluate none).
        evaluations: usize,
    },
    /// A design point improved on the best fitness seen so far in this run.
    ImprovedBest {
        /// Outer design-point index where the improvement happened.
        point_index: usize,
        /// The new best fitness (TOPS/W under the default objective).
        fitness: f64,
    },
    /// Cumulative candidate-evaluator throughput counters, emitted as each
    /// design point finishes (immediately before its
    /// [`DesignPointEvaluated`](Self::DesignPointEvaluated) summary). Stats
    /// are run-wide, not per point: with parallel exploration, successive
    /// snapshots from different points are each monotonically larger.
    EvaluatorStats {
        /// Outer design-point index whose completion triggered the snapshot.
        point_index: usize,
        /// Run-wide evaluator counters at snapshot time.
        stats: EvaluatorStats,
    },
}

/// Receives [`ExploreEvent`]s. Implementations must be cheap and
/// non-blocking: events are delivered synchronously from worker threads.
pub trait ExploreObserver: Sync {
    /// Called for every event, possibly from multiple threads at once.
    fn on_event(&self, event: ExploreEvent);
}

/// Ignores all events (the unobserved default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExploreObserver for NullObserver {
    fn on_event(&self, _event: ExploreEvent) {}
}

impl<F: Fn(ExploreEvent) + Sync> ExploreObserver for F {
    fn on_event(&self, event: ExploreEvent) {
        self(event)
    }
}

static NULL_OBSERVER: NullObserver = NullObserver;

/// Everything a running exploration needs to be observable and stoppable:
/// an event sink, a cancellation token, and resource budgets, plus the
/// shared evaluation counter the budget is enforced against.
///
/// One context spans one `run_dse_observed` call; worker threads share it
/// by reference.
pub struct ExploreContext<'a> {
    sink: &'a dyn ExploreObserver,
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
            .field("cancel", &self.cancel)
            .field("budget", &self.budget)
            .field("evaluations", &self.evaluations)
            .finish_non_exhaustive()
    }
}

impl<'a> ExploreContext<'a> {
    /// A context delivering events to `sink`, cancellable through `cancel`,
    /// bounded by `budget`.
    pub fn new(sink: &'a dyn ExploreObserver, cancel: CancelToken, budget: ExploreBudget) -> Self {
        Self {
            sink,
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
        ExploreContext::new(
            &NULL_OBSERVER,
            CancelToken::new(),
            ExploreBudget::unlimited(),
        )
    }

    /// The cancellation token this context watches.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The configured budget.
    pub fn budget(&self) -> ExploreBudget {
        self.budget
    }

    /// Delivers an event to the sink.
    pub fn emit(&self, event: ExploreEvent) {
        self.sink.on_event(event);
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
    /// [`ExploreEvent::EvaluatorStats`] atomically: the snapshot is taken
    /// and delivered inside one critical section, so observers see
    /// monotonically increasing counters even when parallel workers finish
    /// design points concurrently (the same discipline as
    /// [`record_fitness`](Self::record_fitness)).
    pub fn emit_evaluator_stats(&self, point_index: usize, snapshot: &dyn Fn() -> EvaluatorStats) {
        let _serialized = self.stats_emit.lock().expect("stats-emit mutex");
        self.emit(ExploreEvent::EvaluatorStats {
            point_index,
            stats: snapshot(),
        });
    }

    /// Records a point-level fitness and emits [`ExploreEvent::ImprovedBest`]
    /// if it beats the best seen so far in this run. Emission happens while
    /// the best is held, so observers see strictly increasing bests even
    /// when parallel workers improve concurrently.
    pub fn record_fitness(&self, point_index: usize, fitness: f64) {
        // NaN and infeasible (zero) fitness are both ignored.
        if fitness.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let mut best = self.best.lock().expect("best-fitness mutex");
        if fitness > *best {
            *best = fitness;
            self.emit(ExploreEvent::ImprovedBest {
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
            &NullObserver,
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
            &NullObserver,
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
            &NullObserver,
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
            &NullObserver,
            cancel.clone(),
            ExploreBudget::unlimited().with_max_evaluations(0),
        );
        cancel.cancel();
        assert_eq!(ctx.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn record_fitness_emits_only_improvements() {
        let seen: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        let observer = |ev: ExploreEvent| {
            if let ExploreEvent::ImprovedBest { fitness, .. } = ev {
                seen.lock().unwrap().push(fitness);
            }
        };
        let ctx = ExploreContext::new(&observer, CancelToken::new(), ExploreBudget::unlimited());
        ctx.record_fitness(0, 1.0);
        ctx.record_fitness(1, 0.5); // not an improvement
        ctx.record_fitness(2, 2.0);
        ctx.record_fitness(3, 0.0); // infeasible, ignored
        assert_eq!(*seen.lock().unwrap(), vec![1.0, 2.0]);
    }
}
