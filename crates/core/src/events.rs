//! Typed synthesis progress events and the sinks that receive them.
//!
//! A [`SynthesisEngine`](crate::SynthesisEngine) job reports its progress as
//! a stream of [`SynthesisEvent`]s delivered through an [`EventSink`]. Three
//! sink implementations are provided: [`ChannelSink`] (an `mpsc` sender, the
//! natural fit for driving a UI from another thread), [`CallbackSink`] (a
//! closure), and [`CollectingSink`] (an in-memory buffer for tests and
//! post-hoc inspection). [`NullSink`] discards everything.
//! [`event_to_json`] is the JSON wire form front ends stream to their
//! clients: the HTTP gateway's `GET /v1/jobs/{id}/events` sends one object
//! per event (see `docs/PROTOCOLS.md`).

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use pimsyn_dse::{DesignPoint, EvaluatorStats, ExploreEvent, StopReason, SynthesisStage};
use pimsyn_model::json::JsonValue;

/// Progress events emitted while a synthesis job runs.
///
/// Stage and design-point events mirror the paper's Fig. 3 flow as executed
/// at each outer design point of Algorithm 1; `point_index` identifies the
/// design point and, with parallel exploration enabled, events from
/// different points interleave. In a batch, `job` identifies the request
/// (its index in the submitted slice).
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisEvent {
    /// A batch job began executing.
    JobStarted {
        /// Index of the request in the batch (0 for single jobs).
        job: usize,
        /// Human-readable job label (request label or model name).
        label: String,
    },
    /// One of the four paper stages began at a design point.
    StageStarted {
        /// Index of the request in the batch (0 for single jobs).
        job: usize,
        /// Outer design-point index.
        point_index: usize,
        /// Which stage.
        stage: SynthesisStage,
    },
    /// One of the four paper stages completed at a design point.
    StageFinished {
        /// Index of the request in the batch (0 for single jobs).
        job: usize,
        /// Outer design-point index.
        point_index: usize,
        /// Which stage.
        stage: SynthesisStage,
    },
    /// An outer design point was fully explored.
    DesignPointEvaluated {
        /// Index of the request in the batch (0 for single jobs).
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
    /// The job improved on its best fitness so far. "Best" is per job:
    /// fitness values from different jobs in a batch are not comparable.
    ImprovedBest {
        /// Index of the request in the batch (0 for single jobs).
        job: usize,
        /// Design point where the improvement happened.
        point_index: usize,
        /// The new best fitness.
        fitness: f64,
    },
    /// Cumulative candidate-evaluator throughput counters (scored
    /// candidates, unique evaluations, cache hits), snapshotted as each
    /// design point finishes. Stats are job-wide and monotonic; the last
    /// snapshot before [`Finished`](Self::Finished) summarizes the job.
    EvaluatorStats {
        /// Index of the request in the batch (0 for single jobs).
        job: usize,
        /// Outer design-point index whose completion triggered the snapshot.
        point_index: usize,
        /// Job-wide evaluator counters at snapshot time.
        stats: EvaluatorStats,
    },
    /// The job finished (the terminal event of every job).
    Finished {
        /// Index of the request in the batch (0 for single jobs).
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

/// Receives [`SynthesisEvent`]s from a running job.
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

/// Forwards events into an [`mpsc`] channel. Send errors (receiver hung up)
/// are ignored: a consumer that stopped listening must not kill the job.
#[derive(Debug, Clone)]
pub struct ChannelSink {
    tx: mpsc::Sender<SynthesisEvent>,
}

impl ChannelSink {
    /// A sink wrapping the given sender.
    pub fn new(tx: mpsc::Sender<SynthesisEvent>) -> Self {
        Self { tx }
    }

    /// Convenience: a connected sink/receiver pair.
    pub fn pair() -> (Self, mpsc::Receiver<SynthesisEvent>) {
        let (tx, rx) = mpsc::channel();
        (Self::new(tx), rx)
    }
}

impl EventSink for ChannelSink {
    fn emit(&self, event: SynthesisEvent) {
        let _ = self.tx.send(event);
    }
}

/// Invokes a closure for every event.
#[derive(Debug, Clone)]
pub struct CallbackSink<F: Fn(SynthesisEvent) + Send + Sync>(pub F);

impl<F: Fn(SynthesisEvent) + Send + Sync> EventSink for CallbackSink<F> {
    fn emit(&self, event: SynthesisEvent) {
        (self.0)(event)
    }
}

/// Buffers every event in memory; useful in tests and for post-hoc
/// inspection of a finished job.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<SynthesisEvent>>,
}

impl CollectingSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events received so far.
    pub fn snapshot(&self) -> Vec<SynthesisEvent> {
        self.events.lock().expect("event buffer poisoned").clone()
    }

    /// Drains and returns all buffered events.
    pub fn take(&self) -> Vec<SynthesisEvent> {
        std::mem::take(&mut *self.events.lock().expect("event buffer poisoned"))
    }
}

impl EventSink for CollectingSink {
    fn emit(&self, event: SynthesisEvent) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(event);
    }
}

/// Lifts a DSE-layer exploration event into the synthesis-level stream,
/// stamping it with the job it belongs to.
pub(crate) fn lift(job: usize, event: ExploreEvent) -> SynthesisEvent {
    match event {
        ExploreEvent::StageStarted { point_index, stage } => SynthesisEvent::StageStarted {
            job,
            point_index,
            stage,
        },
        ExploreEvent::StageFinished { point_index, stage } => SynthesisEvent::StageFinished {
            job,
            point_index,
            stage,
        },
        ExploreEvent::DesignPointEvaluated {
            point,
            point_index,
            best_efficiency,
            evaluations,
        } => SynthesisEvent::DesignPointEvaluated {
            job,
            point,
            point_index,
            best_efficiency,
            evaluations,
        },
        ExploreEvent::ImprovedBest {
            point_index,
            fitness,
        } => SynthesisEvent::ImprovedBest {
            job,
            point_index,
            fitness,
        },
        ExploreEvent::EvaluatorStats { point_index, stats } => SynthesisEvent::EvaluatorStats {
            job,
            point_index,
            stats,
        },
    }
}

/// Renders a synthesis progress event as a JSON object (informational:
/// floats travel as plain JSON numbers, unlike the bit-exact result path).
pub fn event_to_json(event: &SynthesisEvent) -> JsonValue {
    let tag = |t: &str| ("type".to_string(), JsonValue::String(t.to_string()));
    let num = |k: &str, v: f64| (k.to_string(), JsonValue::Number(v));
    match event {
        SynthesisEvent::JobStarted { job, label } => JsonValue::Object(vec![
            tag("job_started"),
            num("job", *job as f64),
            ("label".into(), JsonValue::String(label.clone())),
        ]),
        SynthesisEvent::StageStarted {
            job,
            point_index,
            stage,
        } => JsonValue::Object(vec![
            tag("stage_started"),
            num("job", *job as f64),
            num("point", *point_index as f64),
            ("stage".into(), JsonValue::String(stage.to_string())),
        ]),
        SynthesisEvent::StageFinished {
            job,
            point_index,
            stage,
        } => JsonValue::Object(vec![
            tag("stage_finished"),
            num("job", *job as f64),
            num("point", *point_index as f64),
            ("stage".into(), JsonValue::String(stage.to_string())),
        ]),
        SynthesisEvent::DesignPointEvaluated {
            job,
            point,
            point_index,
            best_efficiency,
            evaluations,
        } => JsonValue::Object(vec![
            tag("design_point_evaluated"),
            num("job", *job as f64),
            num("point", *point_index as f64),
            ("design_point".into(), JsonValue::String(point.to_string())),
            num("best_efficiency", *best_efficiency),
            num("evaluations", *evaluations as f64),
        ]),
        SynthesisEvent::ImprovedBest {
            job,
            point_index,
            fitness,
        } => JsonValue::Object(vec![
            tag("improved_best"),
            num("job", *job as f64),
            num("point", *point_index as f64),
            num("fitness", *fitness),
        ]),
        SynthesisEvent::EvaluatorStats {
            job,
            point_index,
            stats,
        } => JsonValue::Object(vec![
            tag("evaluator_stats"),
            num("job", *job as f64),
            num("point", *point_index as f64),
            num("scored", stats.scored as f64),
            num("unique_evaluations", stats.unique_evaluations as f64),
            num("cache_hits", stats.cache_hits as f64),
        ]),
        SynthesisEvent::Finished {
            job,
            efficiency,
            evaluations,
            stop_reason,
            elapsed,
            error,
        } => {
            let mut fields = vec![
                tag("finished"),
                num("job", *job as f64),
                num("evaluations", *evaluations as f64),
                num("elapsed_s", elapsed.as_secs_f64()),
            ];
            if let Some(eff) = efficiency {
                fields.push(num("efficiency", *eff));
            }
            if let Some(reason) = stop_reason {
                fields.push(("stop_reason".into(), JsonValue::String(reason.to_string())));
            }
            if let Some(message) = error {
                fields.push(("error".into(), JsonValue::String(message.clone())));
            }
            JsonValue::Object(fields)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SynthesisEvent {
        SynthesisEvent::ImprovedBest {
            job: 0,
            point_index: 3,
            fitness: 1.5,
        }
    }

    #[test]
    fn channel_sink_delivers() {
        let (sink, rx) = ChannelSink::pair();
        sink.emit(sample());
        assert_eq!(rx.recv().unwrap(), sample());
    }

    #[test]
    fn channel_sink_survives_hangup() {
        let (sink, rx) = ChannelSink::pair();
        drop(rx);
        sink.emit(sample()); // must not panic
    }

    #[test]
    fn collecting_sink_buffers_in_order() {
        let sink = CollectingSink::new();
        sink.emit(sample());
        sink.emit(SynthesisEvent::JobStarted {
            job: 0,
            label: "x".into(),
        });
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], sample());
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn callback_sink_invokes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let sink = CallbackSink(|_ev| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        sink.emit(sample());
        sink.emit(sample());
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn sinks_are_object_safe() {
        let sinks: Vec<Box<dyn EventSink>> =
            vec![Box::new(NullSink), Box::new(CollectingSink::new())];
        for s in &sinks {
            s.emit(sample());
        }
    }

    #[test]
    fn events_serialize_with_type_tags() {
        let event = SynthesisEvent::ImprovedBest {
            job: 1,
            point_index: 2,
            fitness: 3.5,
        };
        let doc = event_to_json(&event);
        assert_eq!(
            doc.get("type").and_then(JsonValue::as_str),
            Some("improved_best")
        );
        assert_eq!(doc.get("fitness").and_then(JsonValue::as_f64), Some(3.5));
    }
}
