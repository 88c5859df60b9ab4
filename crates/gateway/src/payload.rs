//! The job format: one JSON object per synthesis job, the one dialect of
//! `POST /v1/jobs` bodies, `pimsyn --batch` files and the CLI's flags.
//!
//! [`parse_job`] is the only code that knows the job keys, their value
//! rules and their defaults. Each value has one spelling, except `seed`:
//!
//! - `model` — a zoo name (`"alexnet-cifar"`) *or* an inline ONNX-style
//!   model object;
//! - `power` — a JSON number in watts. The JSON parser rounds correctly
//!   and [`JsonValue`] prints shortest round-trip decimals, so a plain
//!   number carries every `f64` exactly;
//! - `hw` — an object of the hardware-file keys
//!   ([`hardware_config::from_value`]);
//! - `seed` — a number up to 2^53 or decimal text;
//! - everything else optional, with one set of built-in defaults (effort
//!   `fast`, strategy `sa`, objective `eff`, macros `specialized`, sharing
//!   on, library seed) under the defaults object the caller passes (the
//!   CLI's flags), so a minimal HTTP submission is bit-identical to the
//!   equivalent CLI run.
//!
//! Unknown fields are rejected — the repo-wide protocol stance (see
//! `docs/PROTOCOLS.md`): a typo'd option must fail loudly, not silently
//! synthesize with defaults.

use std::time::Duration;

use pimsyn::{Effort, MacroMode, Objective, SynthesisOptions, SynthesisRequest, WtDupStrategy};
use pimsyn_arch::{hardware_config, Watts};
use pimsyn_model::json::JsonValue;
use pimsyn_model::{onnx, zoo, Model};

/// Every job key. `model_file` is the CLI's alone: the CLI reads the file
/// it names and passes the document on as an inline `model`.
const JOB_KEYS: [&str; 15] = [
    "model",
    "model_file",
    "power",
    "hw",
    "effort",
    "strategy",
    "objective",
    "macros",
    "sharing",
    "parallel",
    "seed",
    "cycle",
    "timeout",
    "max_evals",
    "label",
];

/// The rule of the `model` key.
const MODEL_RULE: &str = "`model` must be a zoo name or a model object";

fn parse_model(value: &JsonValue) -> Result<Model, String> {
    match value {
        JsonValue::String(name) => zoo::by_name(name).ok_or_else(|| {
            format!(
                "unknown zoo model `{name}` ({MODEL_RULE}); available: {}",
                zoo::names().join(", ")
            )
        }),
        JsonValue::Object(_) => {
            onnx::parse_model(&value.to_string()).map_err(|e| format!("cannot ingest model: {e}"))
        }
        _ => Err(MODEL_RULE.to_string()),
    }
}

/// A timeout in seconds: a positive JSON number of at most a year, which
/// bounds any meaningful synthesis run and keeps
/// `Duration::from_secs_f64` from overflowing.
fn parse_timeout(value: &JsonValue) -> Result<Duration, String> {
    const MAX_TIMEOUT_SECS: f64 = 365.0 * 24.0 * 3600.0;
    match parse_positive(value, "timeout")? {
        secs if secs > MAX_TIMEOUT_SECS => Err(format!(
            "`timeout` must be at most {MAX_TIMEOUT_SECS} seconds"
        )),
        secs => Ok(Duration::from_secs_f64(secs)),
    }
}

/// A positive finite f64 from a JSON number.
fn parse_positive(value: &JsonValue, field: &str) -> Result<f64, String> {
    match value.as_f64() {
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        Some(_) => Err(format!("`{field}` must be positive and finite")),
        None => Err(format!("`{field}` must be a JSON number")),
    }
}

/// A u64 from a JSON number (when integral and exactly representable) or
/// decimal text (the lossless spelling for large seeds).
fn parse_u64(value: &JsonValue, field: &str) -> Result<u64, String> {
    match value {
        JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
            Ok(*n as u64)
        }
        JsonValue::String(s) => s
            .parse::<u64>()
            .map_err(|_| format!("`{field}` is not a u64")),
        _ => Err(format!(
            "`{field}` must be a non-negative integer (decimal text for values beyond 2^53)"
        )),
    }
}

fn parse_usize(value: &JsonValue, field: &str) -> Result<usize, String> {
    value
        .as_usize()
        .ok_or_else(|| format!("`{field}` must be a non-negative integer"))
}

/// An evaluation budget: zero is rejected, since a search that may score
/// nothing can only fail.
fn parse_budget(value: &JsonValue, field: &str) -> Result<usize, String> {
    match parse_usize(value, field)? {
        0 => Err(format!("`{field}` must be at least 1")),
        n => Ok(n),
    }
}

fn parse_bool(value: &JsonValue, field: &str) -> Result<bool, String> {
    value
        .as_bool()
        .ok_or_else(|| format!("`{field}` must be a boolean"))
}

fn parse_tag<T>(value: &JsonValue, field: &str, table: &[(&str, T)]) -> Result<T, String>
where
    T: Clone,
{
    let tag = value
        .as_str()
        .ok_or_else(|| format!("`{field}` must be a string"))?;
    table
        .iter()
        .find(|(name, _)| *name == tag)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| {
            let expected: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            format!("`{field}` must be one of {}", expected.join("|"))
        })
}

/// Rejects a key outside [`JOB_KEYS`]. A key that is a known one spelled
/// with hyphens (`max-evals`) names the underscore spelling.
fn check_key(key: &str) -> Result<(), String> {
    if JOB_KEYS.contains(&key) {
        return Ok(());
    }
    let underscored = key.replace('-', "_");
    Err(if JOB_KEYS.contains(&underscored.as_str()) {
        format!("unknown field `{key}` (the key is spelled `{underscored}`)")
    } else {
        format!("unknown field `{key}`")
    })
}

/// Parses a `POST /v1/jobs` body: one job, with no defaults.
///
/// # Errors
///
/// A message naming the malformed, missing, or unknown field (the
/// gateway's 400 body).
pub fn parse_http_job(body: &[u8]) -> Result<SynthesisRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = JsonValue::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    if doc.as_object().is_none() {
        return Err("body must be a JSON object".to_string());
    }
    parse_job(&doc, &JsonValue::Null)
}

/// Parses one job object into a synthesis request. A key the job lacks
/// takes its value from `defaults` (an object of job keys, or
/// [`JsonValue::Null`] for none), and a key neither sets takes its built-in
/// default. Both objects follow the same key rules, and the value used
/// follows its key's rule wherever it came from.
///
/// The built-in defaults are not the library's (which defaults to paper
/// effort): a job with only `model` and `power` runs like `pimsyn --model
/// ... --power ...`, whose flags are parsed here too.
///
/// # Errors
///
/// A message naming the malformed, missing, or unknown field.
pub fn parse_job(job: &JsonValue, defaults: &JsonValue) -> Result<SynthesisRequest, String> {
    let fields = job.as_object().ok_or("a job must be a JSON object")?;
    for (key, _) in fields
        .iter()
        .chain(defaults.as_object().unwrap_or_default())
    {
        check_key(key)?;
    }
    let value = |key: &str| job.get(key).or_else(|| defaults.get(key));
    if value("model_file").is_some() {
        return Err(
            "`model_file` names a file only the CLI reads; send the model document as `model`"
                .to_string(),
        );
    }

    let model = parse_model(value("model").ok_or("missing `model`")?)?;
    let power = parse_positive(value("power").ok_or("missing `power`")?, "power")?;

    let mut options = SynthesisOptions::new(Watts(power))
        .with_effort(match value("effort") {
            Some(v) => parse_tag(
                v,
                "effort",
                &[("fast", Effort::Fast), ("paper", Effort::Paper)],
            )?,
            None => Effort::Fast,
        })
        .with_strategy(match value("strategy") {
            Some(v) => parse_tag(
                v,
                "strategy",
                &[
                    ("sa", WtDupStrategy::SimulatedAnnealing),
                    ("woho", WtDupStrategy::WohoProportional),
                    ("none", WtDupStrategy::NoDuplication),
                ],
            )?,
            None => WtDupStrategy::SimulatedAnnealing,
        })
        .with_objective(match value("objective") {
            Some(v) => parse_tag(
                v,
                "objective",
                &[
                    ("eff", Objective::PowerEfficiency),
                    ("edp", Objective::EnergyDelayProduct),
                ],
            )?,
            None => Objective::PowerEfficiency,
        })
        .with_macro_mode(match value("macros") {
            Some(v) => parse_tag(
                v,
                "macros",
                &[
                    ("specialized", MacroMode::Specialized),
                    ("identical", MacroMode::Identical),
                ],
            )?,
            None => MacroMode::Specialized,
        });
    if let Some(seed) = value("seed") {
        options = options.with_seed(parse_u64(seed, "seed")?);
    }
    if let Some(sharing) = value("sharing") {
        if !parse_bool(sharing, "sharing")? {
            options = options.without_macro_sharing();
        }
    }
    if let Some(parallel) = value("parallel") {
        options.parallel = parse_bool(parallel, "parallel")?;
    }
    if let Some(cycle) = value("cycle") {
        options = options.with_cycle_validation(parse_usize(cycle, "cycle")?);
    }
    if let Some(timeout) = value("timeout") {
        options = options.with_time_budget(parse_timeout(timeout)?);
    }
    if let Some(n) = value("max_evals") {
        options = options.with_max_evaluations(parse_budget(n, "max_evals")?);
    }
    if let Some(hw) = value("hw") {
        let hw = hardware_config::from_value(hw).map_err(|e| format!("bad `hw`: {e}"))?;
        options = options.with_hardware(hw);
    }

    let mut request = SynthesisRequest::new(model, options);
    if let Some(label) = value("label") {
        request = request.with_label(
            label
                .as_str()
                .ok_or("`label` must be a string".to_string())?,
        );
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_submission_matches_cli_defaults() {
        let request = parse_http_job(br#"{"model": "alexnet-cifar", "power": 9}"#).unwrap();
        assert_eq!(request.options.power_budget, Watts(9.0));
        assert_eq!(request.options.effort, Effort::Fast);
        assert_eq!(request.options.strategy, WtDupStrategy::SimulatedAnnealing);
        assert_eq!(request.options.objective, Objective::PowerEfficiency);
        assert_eq!(request.options.macro_mode, MacroMode::Specialized);
        assert!(request.options.allow_macro_sharing);
        assert!(request.options.parallel);
        assert_eq!(request.options.seed, pimsyn::DEFAULT_SEED);
        assert!(request.label.is_none());
    }

    #[test]
    fn full_submission_overrides_every_field() {
        let request = parse_http_job(
            br#"{"model": "alexnet-cifar", "power": 9,
                 "effort": "paper", "strategy": "none", "objective": "edp",
                 "macros": "identical", "sharing": false, "parallel": false,
                 "seed": "18446744073709551615", "cycle": 2, "timeout": 30,
                 "max_evals": 100, "hw": {"mvm_latency_ns": 50},
                 "label": "sweep-3"}"#,
        )
        .unwrap();
        assert_eq!(request.options.power_budget, Watts(9.0));
        assert_eq!(request.options.effort, Effort::Paper);
        assert_eq!(request.options.strategy, WtDupStrategy::NoDuplication);
        assert_eq!(request.options.objective, Objective::EnergyDelayProduct);
        assert_eq!(request.options.macro_mode, MacroMode::Identical);
        assert!(!request.options.allow_macro_sharing);
        assert!(!request.options.parallel);
        assert_eq!(request.options.seed, u64::MAX);
        assert_eq!(request.options.cycle_images, 2);
        assert_eq!(request.options.time_budget, Some(Duration::from_secs(30)));
        assert_eq!(request.options.max_evaluations, Some(100));
        assert_eq!(
            request.options.hw,
            hardware_config::from_json(r#"{"mvm_latency_ns": 50}"#).unwrap()
        );
        assert_eq!(request.label.as_deref(), Some("sweep-3"));
    }

    #[test]
    fn rejects_malformed_submissions() {
        for (body, needle) in [
            (&b"not json"[..], "not JSON"),
            (br#"[1]"#, "must be a JSON object"),
            (br#"{"power": 9}"#, "missing `model`"),
            (br#"{"model": "alexnet-cifar"}"#, "missing `power`"),
            (br#"{"model": "noznet", "power": 9}"#, "unknown zoo model"),
            (
                br#"{"model": "alexnet-cifar", "power": -1}"#,
                "positive and finite",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "effort": "max"}"#,
                "one of fast|paper",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "Seed": 3}"#,
                "unknown field `Seed`",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "macro_mode": "identical"}"#,
                "unknown field `macro_mode`",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "backend": "inline"}"#,
                "unknown field `backend`",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "eval_cache": false}"#,
                "unknown field `eval_cache`",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "max_evals": 0}"#,
                "`max_evals` must be at least 1",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "max_unique_evals": 5}"#,
                "unknown field `max_unique_evals`",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "timeout": 1e300}"#,
                "`timeout` must be at most",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "hw": {"scratchpad_bus_bits": 0}}"#,
                "scratchpad_bus_bits 0",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "hw": {"adc_max_bits": 0}}"#,
                "adc bit range 7..0",
            ),
            // Hyphenated spellings of job keys name the key; the gateway
            // reads no paths.
            (br#"{"max-evals": 5}"#, "spelled `max_evals`"),
            (br#"{"model-file": "x"}"#, "spelled `model_file`"),
            (br#"{"model_file": "x"}"#, "only the CLI reads"),
        ] {
            let err = parse_http_job(body).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    /// A value in another spelling than its key's one fails with an error
    /// naming the key and its rule.
    #[test]
    fn each_value_has_one_spelling() {
        let document = onnx::to_json(&zoo::alexnet_cifar(10));
        for (key, value, needle) in [
            (
                "power",
                JsonValue::String("4022000000000000".into()),
                "`power` must be a JSON number",
            ),
            (
                "timeout",
                JsonValue::String("30".into()),
                "`timeout` must be a JSON number",
            ),
            (
                "hw",
                JsonValue::String(r#"{"mvm_latency_ns": 50}"#.into()),
                "bad `hw`: invalid hardware config = top level must be an object",
            ),
            ("model", JsonValue::String(document), MODEL_RULE),
        ] {
            let mut job = vec![
                (
                    "model".to_string(),
                    JsonValue::String("alexnet-cifar".into()),
                ),
                ("power".to_string(), JsonValue::Number(9.0)),
            ];
            job.retain(|(k, _)| k != key);
            job.push((key.to_string(), value));
            let err = parse_job(&JsonValue::Object(job), &JsonValue::Null).unwrap_err();
            assert!(
                err.contains(needle),
                "{key}: `{err}` should mention `{needle}`"
            );
        }
    }

    /// Plain JSON numbers carry a job's floats bit for bit: the parser
    /// rounds correctly and the printer writes shortest round-trip
    /// decimals.
    #[test]
    fn plain_numbers_carry_floats_bit_for_bit() {
        let model = zoo::alexnet_cifar(10);
        let power = 9.0_f64 / 7.0;
        let timeout = 0.1_f64 + 0.2;
        let exponent = 0.1_f64 + 0.2;
        let body = JsonValue::Object(vec![
            (
                "model".into(),
                JsonValue::parse(&onnx::to_json(&model)).unwrap(),
            ),
            ("power".into(), JsonValue::Number(power)),
            ("timeout".into(), JsonValue::Number(timeout)),
            (
                "hw".into(),
                JsonValue::Object(vec![(
                    "crossbar_size_exponent".into(),
                    JsonValue::Number(exponent),
                )]),
            ),
            ("seed".into(), JsonValue::String("11".into())),
        ])
        .to_string();
        let request = parse_http_job(body.as_bytes()).unwrap();
        assert_eq!(request.model, model);
        assert_eq!(
            request.options.power_budget.value().to_bits(),
            power.to_bits()
        );
        assert_eq!(
            request.options.time_budget,
            Some(Duration::from_secs_f64(timeout))
        );
        assert_eq!(
            request.options.hw.crossbar_size_exponent.to_bits(),
            exponent.to_bits()
        );
        assert_eq!(request.options.seed, 11);
        assert_eq!(request.options.effort, Effort::Fast);
    }

    #[test]
    fn defaults_fill_the_keys_a_job_leaves_out() {
        let job = JsonValue::parse(r#"{"model": "alexnet-cifar", "effort": "fast"}"#).unwrap();
        let parse = |defaults: &str| parse_job(&job, &JsonValue::parse(defaults).unwrap());
        let request = parse(r#"{"power": 9, "seed": "7", "effort": "paper"}"#).unwrap();
        assert_eq!(request.options.power_budget, Watts(9.0));
        assert_eq!(request.options.seed, 7);
        // The job's own value wins.
        assert_eq!(request.options.effort, Effort::Fast);
        // Defaults follow the job's key and value rules.
        for (defaults, needle) in [
            ("null", "missing `power`"),
            (r#"{"power": 9, "max-evals": 5}"#, "spelled `max_evals`"),
            (r#"{"power": 9, "cycle": -1}"#, "`cycle` must be"),
            (r#"{"power": 9, "strategy": "x"}"#, "one of sa|woho|none"),
        ] {
            let err = parse(defaults).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn unknown_model_error_lists_the_zoo() {
        let err = parse_http_job(br#"{"model": "noznet", "power": 9}"#).unwrap_err();
        for name in zoo::names() {
            assert!(err.contains(name), "`{err}` should list `{name}`");
        }
    }
}
