//! The client side of the event stream.
//!
//! A synthesis job reports its progress as [`SynthesisEvent`]s written into
//! an [`EventSink`](crate::EventSink); both are defined once, in
//! `pimsyn_dse`, where the search emits them, and re-exported here. Any
//! `Fn(SynthesisEvent) + Send + Sync` closure is a sink, and
//! [`NullSink`](crate::NullSink) discards everything. [`event_to_json`] is
//! the JSON wire form front ends stream to their clients: the HTTP
//! gateway's `GET /v1/jobs/{id}/events` sends one object per event (see
//! `docs/PROTOCOLS.md`).

use pimsyn_dse::SynthesisEvent;
use pimsyn_model::json::JsonValue;

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
    use pimsyn_dse::{
        DesignPoint, EvaluatorStats, EventSink, NullSink, StopReason, SynthesisStage,
    };
    use std::time::Duration;

    fn sample() -> SynthesisEvent {
        SynthesisEvent::ImprovedBest {
            job: 0,
            point_index: 3,
            fitness: 1.5,
        }
    }

    #[test]
    fn sinks_are_object_safe() {
        let sinks: Vec<Box<dyn EventSink>> =
            vec![Box::new(NullSink), Box::new(|_: SynthesisEvent| {})];
        for s in &sinks {
            s.emit(sample());
        }
    }

    /// The wire form of every variant, byte for byte: the gateway streams
    /// these strings to its clients.
    #[test]
    fn events_serialize_with_type_tags() {
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: pimsyn_arch::CrossbarConfig::new(128, 2).unwrap(),
        };
        let stats = EvaluatorStats {
            scored: 10,
            unique_evaluations: 4,
            cache_hits: 6,
            ..EvaluatorStats::default()
        };
        let finished = |efficiency, stop_reason, error| SynthesisEvent::Finished {
            job: 2,
            efficiency,
            evaluations: 40,
            stop_reason,
            elapsed: Duration::from_millis(1500),
            error,
        };
        let cases = [
            (
                SynthesisEvent::JobStarted {
                    job: 2,
                    label: "alexnet-cifar".into(),
                },
                r#"{"type":"job_started","job":2,"label":"alexnet-cifar"}"#,
            ),
            (
                SynthesisEvent::StageStarted {
                    job: 2,
                    point_index: 5,
                    stage: SynthesisStage::WeightDuplication,
                },
                r#"{"type":"stage_started","job":2,"point":5,"stage":"weight duplication"}"#,
            ),
            (
                SynthesisEvent::StageFinished {
                    job: 2,
                    point_index: 5,
                    stage: SynthesisStage::ComponentAllocation,
                },
                r#"{"type":"stage_finished","job":2,"point":5,"stage":"components allocation"}"#,
            ),
            (
                SynthesisEvent::DesignPointEvaluated {
                    job: 2,
                    point,
                    point_index: 5,
                    best_efficiency: 1.25,
                    evaluations: 40,
                },
                r#"{"type":"design_point_evaluated","job":2,"point":5,"design_point":"ratio=0.3 xb=128 res=2b","best_efficiency":1.25,"evaluations":40}"#,
            ),
            (
                SynthesisEvent::ImprovedBest {
                    job: 2,
                    point_index: 5,
                    fitness: 3.5,
                },
                r#"{"type":"improved_best","job":2,"point":5,"fitness":3.5}"#,
            ),
            (
                SynthesisEvent::EvaluatorStats {
                    job: 2,
                    point_index: 5,
                    stats,
                },
                r#"{"type":"evaluator_stats","job":2,"point":5,"scored":10,"unique_evaluations":4,"cache_hits":6}"#,
            ),
            (
                finished(Some(2.5), Some(StopReason::Completed), None),
                r#"{"type":"finished","job":2,"evaluations":40,"elapsed_s":1.5,"efficiency":2.5,"stop_reason":"completed"}"#,
            ),
            (
                finished(Some(0.5), Some(StopReason::DeadlineReached), None),
                r#"{"type":"finished","job":2,"evaluations":40,"elapsed_s":1.5,"efficiency":0.5,"stop_reason":"deadline reached"}"#,
            ),
            (
                finished(None, None, Some("synthesis cancelled".into())),
                r#"{"type":"finished","job":2,"evaluations":40,"elapsed_s":1.5,"error":"synthesis cancelled"}"#,
            ),
        ];
        for (event, wire) in cases {
            assert_eq!(event_to_json(&event).to_string(), wire, "{event:?}");
        }
    }
}
