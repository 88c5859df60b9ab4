//! `pimsyn --batch` end to end: a batch file is a JSON array of
//! `POST /v1/jobs` bodies, parsed with the flags as defaults, and each
//! job's summary equals a direct run of the same body.
//!
//! Lives in the `pimsyn-gateway` crate so `CARGO_BIN_EXE_pimsyn` points at
//! the real CLI binary.

use std::path::Path;
use std::process::{Command, Output};

use pimsyn::{SynthesisSummary, Synthesizer};
use pimsyn_gateway::parse_job;
use pimsyn_model::json::JsonValue;
use pimsyn_model::{onnx, zoo};

const BIN: &str = env!("CARGO_BIN_EXE_pimsyn");

fn run_batch(path: &Path, flags: &[&str]) -> Output {
    Command::new(BIN)
        .arg("--batch")
        .arg(path)
        .args(flags)
        .output()
        .expect("spawn pimsyn")
}

/// A summary's fields as text, without the wall-clock `elapsed_s`.
fn fields(summary: &JsonValue) -> Vec<(String, String)> {
    summary
        .as_object()
        .expect("summary object")
        .iter()
        .filter(|(k, _)| k != "elapsed_s")
        .map(|(k, v)| (k.clone(), v.to_string()))
        .collect()
}

#[test]
fn batch_jobs_match_direct_runs_of_the_same_bodies() {
    let dir = std::env::temp_dir().join(format!("pimsyn-cli-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("net.json");
    let model = onnx::to_json(&zoo::alexnet_cifar(10));
    std::fs::write(&model_path, &model).unwrap();
    let model_path = JsonValue::String(model_path.to_str().unwrap().to_string());

    // A zoo job that sets its own keys, and a `model_file` job that takes
    // `power` from the `--power` flag.
    let zoo_job = r#"{"model": "alexnet-cifar", "power": 9, "seed": 7, "max_evals": 300,
                      "parallel": false, "hw": {"mvm_latency_ns": 50}}"#;
    let file_job = format!(r#"{{"model_file": {model_path}, "seed": 3, "max_evals": 200}}"#);
    let batch = dir.join("jobs.json");
    std::fs::write(&batch, format!("[{zoo_job}, {file_job}]")).unwrap();
    let output = run_batch(&batch, &["--power", "9", "--output", "json", "--quiet"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let entries = JsonValue::parse(&stdout).expect("batch report");
    let entries = entries.as_array().expect("one entry per job");
    assert_eq!(entries.len(), 2);

    // The direct runs parse the same bodies, `model_file` inlined, with
    // the same defaults.
    let inline_job = format!(r#"{{"model": {model}, "seed": 3, "max_evals": 200}}"#);
    let defaults = JsonValue::parse(r#"{"power": 9}"#).unwrap();
    for (entry, body) in entries.iter().zip([zoo_job, &inline_job]) {
        assert_eq!(entry.get("ok").and_then(JsonValue::as_bool), Some(true));
        let request = parse_job(&JsonValue::parse(body).unwrap(), &defaults).unwrap();
        let direct = Synthesizer::new(request.options)
            .synthesize(&request.model)
            .expect("direct synthesis");
        assert_eq!(
            fields(entry.get("summary").expect("summary")),
            fields(&SynthesisSummary::from_result(&direct).to_json()),
            "a batch job must match the direct run of its body modulo elapsed_s"
        );
    }

    // The hyphenated keys of the old batch format fail the batch before
    // any search runs, naming the new spelling.
    std::fs::write(
        &batch,
        r#"[{"model": "alexnet-cifar", "power": 9, "max-evals": 5}]"#,
    )
    .unwrap();
    let output = run_batch(&batch, &["--output", "json"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("batch job 0"), "{stderr}");
    assert!(stderr.contains("`max_evals`"), "{stderr}");
    assert!(output.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
