//! The `POST /v1/jobs` body format.
//!
//! An HTTP front end faces `curl`, so this parser accepts friendly
//! spellings next to bit-exact ones:
//!
//! - `model` — a zoo name (`"alexnet-cifar"`) *or* an inline ONNX-style
//!   JSON document (an object, or a string containing one);
//! - `power` — a JSON number in watts *or* a 16-hex-digit `f64` bit
//!   pattern;
//! - everything else optional, defaulting exactly like the `pimsyn` CLI
//!   (effort `fast`, strategy `sa`, objective `eff`, macros
//!   `specialized`, sharing on, library seed) so a minimal
//!   HTTP submission is bit-identical to the equivalent CLI run.
//!
//! Unknown fields are rejected — the repo-wide protocol stance (see
//! `docs/PROTOCOLS.md`): a typo'd option must fail loudly, not silently
//! synthesize with defaults.

use std::time::Duration;

use pimsyn::{Effort, MacroMode, Objective, SynthesisOptions, SynthesisRequest, WtDupStrategy};
use pimsyn_arch::{hardware_config, Watts};
use pimsyn_model::json::JsonValue;
use pimsyn_model::{onnx, zoo, Model};

const KNOWN_FIELDS: [&str; 15] = [
    "model",
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
    "max_unique_evals",
    "label",
];

fn parse_model(value: &JsonValue) -> Result<Model, String> {
    match value {
        JsonValue::String(text) => {
            if let Some(model) = zoo::by_name(text) {
                return Ok(model);
            }
            if text.trim_start().starts_with('{') {
                return onnx::parse_model(text).map_err(|e| format!("cannot ingest model: {e}"));
            }
            Err(format!(
                "unknown zoo model `{text}` (and not an inline model document); \
                 available: {}",
                zoo::names().join(", ")
            ))
        }
        JsonValue::Object(_) => {
            onnx::parse_model(&value.to_string()).map_err(|e| format!("cannot ingest model: {e}"))
        }
        _ => Err("`model` must be a zoo name or a model document".to_string()),
    }
}

/// Validates a timeout in seconds into a `Duration`, rejecting NaN, zero,
/// negatives, and values `Duration::from_secs_f64` would panic on
/// (infinity / overflow). A year bounds any meaningful synthesis run. The
/// one bound for the CLI's `--timeout`, its batch `timeout` field and the
/// HTTP `timeout` field.
///
/// # Errors
///
/// A message completing "`timeout` ..." for out-of-range values.
pub fn timeout_duration(secs: f64) -> Result<Duration, String> {
    const MAX_TIMEOUT_SECS: f64 = 365.0 * 24.0 * 3600.0;
    if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err("must be positive".to_string());
    }
    if !secs.is_finite() || secs > MAX_TIMEOUT_SECS {
        return Err(format!("must be at most {MAX_TIMEOUT_SECS} seconds"));
    }
    Ok(Duration::from_secs_f64(secs))
}

/// A positive finite f64 from a JSON number or a 16-hex-digit bit pattern.
fn parse_f64_or_bits(value: &JsonValue, field: &str) -> Result<f64, String> {
    let parsed = match value {
        JsonValue::Number(n) => Some(*n),
        JsonValue::String(s) if s.len() == 16 => {
            u64::from_str_radix(s, 16).ok().map(f64::from_bits)
        }
        _ => None,
    };
    match parsed {
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        Some(_) => Err(format!("`{field}` must be positive and finite")),
        None => Err(format!(
            "`{field}` must be a number or a 16-hex-digit f64 bit pattern"
        )),
    }
}

/// A u64 from a JSON number (when integral and exactly representable) or
/// decimal text (the lossless spelling for large seeds). The one rule for
/// the HTTP `seed` field and the CLI's batch `seed` field.
///
/// # Errors
///
/// A message naming `field` for anything else (negative, fractional,
/// beyond 2^53 as a number, or not a number or decimal text).
pub fn parse_u64(value: &JsonValue, field: &str) -> Result<u64, String> {
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

/// An evaluation budget: like the CLI's `--max-evals`, zero is rejected,
/// since a search that may score nothing can only fail. The one rule for
/// the HTTP `max_evals`/`max_unique_evals` fields and the CLI's batch
/// `max-evals`/`max-unique-evals` fields.
///
/// # Errors
///
/// A message naming `field` for zero and for anything that is not an
/// integer up to 2^53.
pub fn parse_budget(value: &JsonValue, field: &str) -> Result<usize, String> {
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

/// Parses a `POST /v1/jobs` body into a synthesis request.
///
/// # Errors
///
/// A message naming the malformed, missing, or unknown field (the
/// gateway's 400 body).
pub fn parse_http_job(body: &[u8]) -> Result<SynthesisRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = JsonValue::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let fields = doc
        .as_object()
        .ok_or("body must be a JSON object".to_string())?;
    for (key, _) in fields {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}`"));
        }
    }

    let model = parse_model(doc.get("model").ok_or("missing `model`")?)?;
    let power = parse_f64_or_bits(doc.get("power").ok_or("missing `power`")?, "power")?;

    // Defaults below mirror the `pimsyn` CLI, not the library (which
    // defaults to paper effort): an HTTP submission with only model+power
    // must match `pimsyn --model ... --power ... --output json` bit for
    // bit.
    let mut options = SynthesisOptions::new(Watts(power))
        .with_effort(match doc.get("effort") {
            Some(v) => parse_tag(
                v,
                "effort",
                &[("fast", Effort::Fast), ("paper", Effort::Paper)],
            )?,
            None => Effort::Fast,
        })
        .with_strategy(match doc.get("strategy") {
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
        .with_objective(match doc.get("objective") {
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
        .with_macro_mode(match doc.get("macros") {
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
    if let Some(seed) = doc.get("seed") {
        options = options.with_seed(parse_u64(seed, "seed")?);
    }
    if let Some(sharing) = doc.get("sharing") {
        if !parse_bool(sharing, "sharing")? {
            options = options.without_macro_sharing();
        }
    }
    if let Some(parallel) = doc.get("parallel") {
        options.parallel = parse_bool(parallel, "parallel")?;
    }
    if let Some(cycle) = doc.get("cycle") {
        let images = parse_usize(cycle, "cycle")?;
        if images > 0 {
            options = options.with_cycle_validation(images);
        }
    }
    if let Some(timeout) = doc.get("timeout") {
        let secs = parse_f64_or_bits(timeout, "timeout")?;
        let limit = timeout_duration(secs).map_err(|e| format!("`timeout` {e}"))?;
        options = options.with_time_budget(limit);
    }
    if let Some(n) = doc.get("max_evals") {
        options = options.with_max_evaluations(parse_budget(n, "max_evals")?);
    }
    if let Some(n) = doc.get("max_unique_evals") {
        options = options.with_max_unique_evaluations(parse_budget(n, "max_unique_evals")?);
    }
    if let Some(hw) = doc.get("hw") {
        let parsed = match hw {
            // Either spelling; when neither reads, both errors are named, so
            // a bit-exact document with an invalid value says which.
            JsonValue::String(text) => hardware_config::from_json_exact(text).or_else(|exact| {
                hardware_config::from_json(text)
                    .map_err(|e| format!("{e}; as the bit-exact spelling: {exact}"))
            }),
            JsonValue::Object(_) => {
                hardware_config::from_json(&hw.to_string()).map_err(|e| e.to_string())
            }
            _ => return Err("`hw` must be a hardware-params document".to_string()),
        };
        options = options.with_hardware(parsed.map_err(|e| format!("bad `hw`: {e}"))?);
    }

    let mut request = SynthesisRequest::new(model, options);
    if let Some(label) = doc.get("label") {
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
        assert_eq!(request.options.seed, SynthesisOptions::DEFAULT_SEED);
        assert!(request.label.is_none());
    }

    #[test]
    fn full_submission_overrides_every_field() {
        let request = parse_http_job(
            br#"{"model": "alexnet-cifar", "power": "4022000000000000",
                 "effort": "paper", "strategy": "none", "objective": "edp",
                 "macros": "identical", "sharing": false, "parallel": false,
                 "seed": "18446744073709551615", "cycle": 2, "timeout": 30,
                 "max_evals": 100, "max_unique_evals": 50,
                 "label": "sweep-3"}"#,
        )
        .unwrap();
        assert_eq!(request.options.power_budget, Watts(9.0)); // 0x4022... = 9.0
        assert_eq!(request.options.effort, Effort::Paper);
        assert_eq!(request.options.strategy, WtDupStrategy::NoDuplication);
        assert_eq!(request.options.objective, Objective::EnergyDelayProduct);
        assert_eq!(request.options.macro_mode, MacroMode::Identical);
        assert!(!request.options.allow_macro_sharing);
        assert!(!request.options.parallel);
        assert_eq!(request.options.seed, u64::MAX);
        assert!(request.options.cycle_validation);
        assert_eq!(request.options.time_budget, Some(Duration::from_secs(30)));
        assert_eq!(request.options.max_evaluations, Some(100));
        assert_eq!(request.options.max_unique_evaluations, Some(50));
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
                br#"{"model": "alexnet-cifar", "power": 9, "max_unique_evals": 0}"#,
                "`max_unique_evals` must be at least 1",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "timeout": 1e300}"#,
                "`timeout` must be at most",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "timeout": "7fefffffffffffff"}"#,
                "`timeout` must be at most",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "hw": {"scratchpad_bus_bits": 0}}"#,
                "scratchpad_bus_bits 0",
            ),
            (
                br#"{"model": "alexnet-cifar", "power": 9, "hw": "{\"adc_max_bits\": 0}"}"#,
                "adc bit range 7..0",
            ),
        ] {
            let err = parse_http_job(body).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        // The bit-exact `hw` spelling passes the same validity check.
        let with = |set: fn(&mut pimsyn_arch::HardwareParams)| {
            let mut hw = pimsyn_arch::HardwareParams::date24();
            set(&mut hw);
            hw
        };
        for (hw, needle) in [
            (
                with(|hw| hw.scratchpad_bus_bits = 0),
                "scratchpad_bus_bits 0",
            ),
            (with(|hw| hw.adc_max_bits = 0), "adc bit range 7..0"),
        ] {
            let hw = JsonValue::String(hardware_config::to_json_exact(&hw));
            let body = format!(r#"{{"model": "alexnet-cifar", "power": 9, "hw": {hw}}}"#);
            let err = parse_http_job(body.as_bytes()).unwrap_err();
            assert!(err.contains("bit-exact spelling"), "{err}");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn wire_encoded_payloads_also_parse() {
        // The bit-exact spellings — an inline model document, exact `hw`
        // text and f64 bit patterns — carry a request losslessly, so a
        // client can replay a captured job without re-deriving any float.
        let model = zoo::alexnet_cifar(10);
        let mut hw = pimsyn_arch::HardwareParams::date24();
        hw.crossbar_size_exponent = 0.1 + 0.2;
        let power = 9.0_f64 / 7.0;
        let timeout = 0.1_f64 + 0.2;
        let body = JsonValue::Object(vec![
            ("model".into(), JsonValue::String(onnx::to_json(&model))),
            (
                "hw".into(),
                JsonValue::String(hardware_config::to_json_exact(&hw)),
            ),
            (
                "power".into(),
                JsonValue::String(format!("{:016x}", power.to_bits())),
            ),
            (
                "timeout".into(),
                JsonValue::String(format!("{:016x}", timeout.to_bits())),
            ),
            ("seed".into(), JsonValue::String("11".into())),
        ])
        .to_string();
        let request = parse_http_job(body.as_bytes()).unwrap();
        assert_eq!(request.model, model);
        assert_eq!(request.options.hw, hw);
        assert_eq!(
            request.options.power_budget.value().to_bits(),
            power.to_bits()
        );
        assert_eq!(
            request.options.time_budget,
            Some(Duration::from_secs_f64(timeout))
        );
        assert_eq!(request.options.seed, 11);
        assert_eq!(request.options.effort, Effort::Fast);
    }

    #[test]
    fn unknown_model_error_lists_the_zoo() {
        let err = parse_http_job(br#"{"model": "noznet", "power": 9}"#).unwrap_err();
        for name in zoo::names() {
            assert!(err.contains(name), "`{err}` should list `{name}`");
        }
    }
}
