//! The JSON wire form of service objects that front ends stream to their
//! clients. The HTTP gateway's `GET /v1/jobs/{id}/events` sends one
//! [`event_to_json`] object per event (see `docs/PROTOCOLS.md`).

use pimsyn_model::json::JsonValue;

use crate::events::SynthesisEvent;

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
