//! Persistent cross-run evaluation cache.
//!
//! The [`CandidateEvaluator`](crate::CandidateEvaluator)'s memo lives for
//! one synthesis run; sweeps and repeated CLI invocations re-score the same
//! candidates from scratch. This module serializes its candidate-key →
//! score map to a JSON cache file keyed by a **fingerprint** of everything
//! scoring depends on: the model, the hardware parameters (bit-exact), the
//! power budget, the macro mode, the objective, and the cache-schema
//! version. A later run with the same fingerprint warm-starts from the
//! file; any mismatch (different hardware, different power, newer schema)
//! silently invalidates it, as does a corrupt or unreadable file — a cache
//! can speed a run up, never fail it.
//!
//! Floats are stored as `f64::to_bits` hex strings, so warm-started runs
//! remain bit-identical to cold ones. Run sections of older files may also
//! carry a `layers` array of per-layer base costs; loads ignore it and saves
//! drop it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use pimsyn_arch::{HardwareParams, MacroMode, Watts};
use pimsyn_model::json::JsonValue;
use pimsyn_model::Model;

use crate::ea::Objective;
use crate::eval::{CandidateKey, CandidateScore};

use super::protocol::{macro_mode_tag, objective_tag};

/// Cache-file schema version; part of the fingerprint, so bumping it
/// invalidates every existing cache file.
pub const EVAL_CACHE_SCHEMA: u32 = 1;

/// The serializable state of one evaluator: its candidate scores.
#[derive(Debug, Clone, Default)]
pub struct CacheSnapshot {
    /// Candidate-key → score entries.
    pub scores: Vec<(CandidateKey, CandidateScore)>,
}

/// Fingerprint of everything candidate scoring depends on. Equal
/// fingerprints guarantee a cached score is valid for this run.
pub(crate) fn run_fingerprint(
    model: &Model,
    total_power: Watts,
    hw: &HardwareParams,
    macro_mode: MacroMode,
    objective: Objective,
) -> String {
    let mut h = DefaultHasher::new();
    EVAL_CACHE_SCHEMA.hash(&mut h);
    pimsyn_model::onnx::to_json(model).hash(&mut h);
    pimsyn_arch::hardware_config::to_json_exact(hw).hash(&mut h);
    total_power.value().to_bits().hash(&mut h);
    macro_mode_tag(macro_mode).hash(&mut h);
    objective_tag(objective).hash(&mut h);
    format!("{:016x}", h.finish())
}

fn hex64(v: u64) -> JsonValue {
    JsonValue::String(super::u64_hex(v))
}

fn parse_hex64(v: Option<&JsonValue>) -> Option<u64> {
    super::parse_u64_hex(v?.as_str()?)
}

fn num(v: usize) -> JsonValue {
    JsonValue::Number(v as f64)
}

fn usizes(v: Option<&JsonValue>) -> Option<Vec<usize>> {
    v?.as_array()?.iter().map(JsonValue::as_usize).collect()
}

/// A cache file bound to one run fingerprint.
#[derive(Debug, Clone)]
pub struct PersistentEvalCache {
    path: PathBuf,
    fingerprint: String,
}

impl PersistentEvalCache {
    /// A handle for `path`, valid for the run described by the fingerprint
    /// inputs.
    pub fn for_run(
        path: impl Into<PathBuf>,
        model: &Model,
        total_power: Watts,
        hw: &HardwareParams,
        macro_mode: MacroMode,
        objective: Objective,
    ) -> Self {
        Self {
            path: path.into(),
            fingerprint: run_fingerprint(model, total_power, hw, macro_mode, objective),
        }
    }

    /// The cache file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run fingerprint this handle accepts.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The existing file's run sections, or empty when the file is missing,
    /// corrupt, or a different schema (never fatal).
    fn read_runs(&self) -> Vec<JsonValue> {
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return Vec::new();
        };
        let Ok(doc) = JsonValue::parse(&text) else {
            return Vec::new();
        };
        if doc.get("pimsyn_eval_cache").and_then(JsonValue::as_usize)
            != Some(EVAL_CACHE_SCHEMA as usize)
        {
            return Vec::new();
        }
        doc.get("runs")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::to_vec)
            .unwrap_or_default()
    }

    /// Loads the run section matching this run's fingerprint, if the file
    /// exists, parses, and holds one; `None` otherwise (missing, corrupt,
    /// or stale caches are ignored, never fatal).
    pub fn load(&self) -> Option<CacheSnapshot> {
        let run = self.read_runs().into_iter().find(|run| {
            run.get("fingerprint").and_then(JsonValue::as_str) == Some(&self.fingerprint)
        })?;
        let mut snapshot = CacheSnapshot::default();
        for entry in run.get("scores").and_then(JsonValue::as_array)? {
            // Individually malformed entries are skipped, not fatal.
            if let Some(pair) = decode_score(entry) {
                snapshot.scores.push(pair);
            }
        }
        Some(snapshot)
    }

    /// Upper bound on run sections kept in one cache file: a power sweep's
    /// levels coexist, while the file stays bounded (oldest runs evicted
    /// first).
    pub const MAX_RUNS: usize = 8;

    /// Writes the snapshot atomically (temp file + rename) into this run's
    /// section, *preserving other runs'* sections — a sweep alternating
    /// power levels warm-starts at every level instead of each run
    /// clobbering the last. Returns whether the write succeeded; IO
    /// failures are reported, not propagated — persistence is best-effort.
    ///
    /// Saves are serialized process-wide (batch jobs flush from parallel
    /// threads onto one file; without the lock the read-modify-write would
    /// drop sections) and the temp file carries the process id, so two
    /// *processes* sharing a cache file cannot corrupt it either — though
    /// the last process to rename still wins its sections.
    pub fn save(&self, snapshot: &CacheSnapshot) -> bool {
        static SAVE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serialized = SAVE_LOCK.lock().expect("cache save lock");
        let mut runs: Vec<JsonValue> = self
            .read_runs()
            .into_iter()
            .filter(|run| {
                run.get("fingerprint").and_then(JsonValue::as_str) != Some(&self.fingerprint)
            })
            .map(|mut run| {
                // Nothing reads the per-layer sections of older files.
                if let JsonValue::Object(fields) = &mut run {
                    fields.retain(|(key, _)| key != "layers");
                }
                run
            })
            .collect();
        runs.push(JsonValue::Object(vec![
            (
                "fingerprint".into(),
                JsonValue::String(self.fingerprint.clone()),
            ),
            (
                "scores".into(),
                JsonValue::Array(snapshot.scores.iter().map(encode_score).collect()),
            ),
        ]));
        // Most recent last; evict from the front.
        let excess = runs.len().saturating_sub(Self::MAX_RUNS);
        runs.drain(..excess);
        let doc = JsonValue::Object(vec![
            (
                "pimsyn_eval_cache".into(),
                JsonValue::Number(EVAL_CACHE_SCHEMA as f64),
            ),
            ("runs".into(), JsonValue::Array(runs)),
        ]);
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, format!("{doc}\n")).is_err() {
            return false;
        }
        std::fs::rename(&tmp, &self.path).is_ok()
    }
}

fn encode_score((key, score): &(CandidateKey, CandidateScore)) -> JsonValue {
    JsonValue::Object(vec![
        ("r".into(), hex64(key.ratio_bits)),
        ("x".into(), num(key.crossbar.size())),
        ("c".into(), num(key.crossbar.cell_bits() as usize)),
        ("d".into(), num(key.dac_bits as usize)),
        (
            "w".into(),
            JsonValue::Array(key.wt_dup.iter().map(|&d| num(d)).collect()),
        ),
        (
            "g".into(),
            JsonValue::Array(key.gene.iter().map(|&g| num(g as usize)).collect()),
        ),
        ("f".into(), hex64(score.fitness.to_bits())),
        ("ok".into(), JsonValue::Bool(score.feasible)),
    ])
}

fn decode_score(v: &JsonValue) -> Option<(CandidateKey, CandidateScore)> {
    use std::sync::Arc;
    let crossbar =
        pimsyn_arch::CrossbarConfig::new(v.get("x")?.as_usize()?, v.get("c")?.as_usize()? as u32)
            .ok()?;
    let key = CandidateKey {
        ratio_bits: parse_hex64(v.get("r"))?,
        crossbar,
        dac_bits: v.get("d")?.as_usize()? as u32,
        wt_dup: Arc::new(usizes(v.get("w"))?),
        gene: usizes(v.get("g"))?.into_iter().map(|g| g as u32).collect(),
    };
    let score = CandidateScore {
        fitness: f64::from_bits(parse_hex64(v.get("f"))?),
        feasible: v.get("ok")?.as_bool()?,
    };
    Some((key, score))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_model::zoo;
    use std::sync::Arc;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pimsyn-persist-{name}-{}", std::process::id()))
    }

    fn sample_snapshot() -> CacheSnapshot {
        let crossbar = pimsyn_arch::CrossbarConfig::new(128, 2).unwrap();
        CacheSnapshot {
            scores: vec![(
                CandidateKey {
                    ratio_bits: 0.3f64.to_bits(),
                    crossbar,
                    dac_bits: 1,
                    wt_dup: Arc::new(vec![1, 2]),
                    gene: vec![1, 1002],
                },
                CandidateScore {
                    fitness: 0.1 + 0.2, // a bit pattern JSON numbers mangle
                    feasible: true,
                },
            )],
        }
    }

    fn handle(path: PathBuf) -> PersistentEvalCache {
        let model = zoo::alexnet_cifar(10);
        PersistentEvalCache::for_run(
            path,
            &model,
            Watts(9.0),
            &HardwareParams::date24(),
            MacroMode::Specialized,
            Objective::PowerEfficiency,
        )
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let path = temp_path("round-trip");
        let cache = handle(path.clone());
        let snapshot = sample_snapshot();
        assert!(cache.save(&snapshot));
        let back = cache.load().expect("fingerprint matches");
        assert_eq!(back.scores.len(), 1);
        assert_eq!(back.scores[0].0, snapshot.scores[0].0);
        assert_eq!(
            back.scores[0].1.fitness.to_bits(),
            snapshot.scores[0].1.fitness.to_bits()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_invalidates() {
        let path = temp_path("invalidate");
        let cache = handle(path.clone());
        assert!(cache.save(&sample_snapshot()));

        let model = zoo::alexnet_cifar(10);
        // Different power.
        let other = PersistentEvalCache::for_run(
            path.clone(),
            &model,
            Watts(10.0),
            &HardwareParams::date24(),
            MacroMode::Specialized,
            Objective::PowerEfficiency,
        );
        assert!(other.load().is_none(), "power change must invalidate");
        // Different hardware.
        let mut hw = HardwareParams::date24();
        hw.adc_power_growth = 1.7;
        let other = PersistentEvalCache::for_run(
            path.clone(),
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
        );
        assert!(other.load().is_none(), "hardware change must invalidate");
        // Different objective.
        let other = PersistentEvalCache::for_run(
            path.clone(),
            &model,
            Watts(9.0),
            &HardwareParams::date24(),
            MacroMode::Specialized,
            Objective::EnergyDelayProduct,
        );
        assert!(other.load().is_none(), "objective change must invalidate");
        // The original handle still loads.
        assert!(handle(path.clone()).load().is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn runs_with_different_fingerprints_coexist_in_one_file() {
        let path = temp_path("coexist");
        let _ = std::fs::remove_file(&path);
        let model = zoo::alexnet_cifar(10);
        let at_power = |w: f64| {
            PersistentEvalCache::for_run(
                path.clone(),
                &model,
                Watts(w),
                &HardwareParams::date24(),
                MacroMode::Specialized,
                Objective::PowerEfficiency,
            )
        };
        // A sweep alternating power levels: each level's save must preserve
        // the other's section, so both warm-start on the second pass.
        let nine = at_power(9.0);
        let fifteen = at_power(15.0);
        assert!(nine.save(&sample_snapshot()));
        assert!(fifteen.save(&sample_snapshot()));
        assert!(nine.load().is_some(), "9 W section survived the 15 W save");
        assert!(fifteen.load().is_some());
        // Re-saving a level replaces its own section without duplicating.
        assert!(nine.save(&sample_snapshot()));
        assert!(nine.load().is_some());
        assert!(fifteen.load().is_some());
        // The file stays bounded: old runs evict once MAX_RUNS is exceeded.
        for i in 0..PersistentEvalCache::MAX_RUNS {
            assert!(at_power(20.0 + i as f64).save(&sample_snapshot()));
        }
        assert!(
            nine.load().is_none(),
            "oldest section must evict past MAX_RUNS"
        );
        assert!(at_power(20.0 + (PersistentEvalCache::MAX_RUNS - 1) as f64)
            .load()
            .is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_or_missing_files_are_ignored() {
        let path = temp_path("corrupt");
        let cache = handle(path.clone());
        assert!(cache.load().is_none(), "missing file");
        std::fs::write(&path, "{not json").unwrap();
        assert!(cache.load().is_none(), "corrupt file");
        std::fs::write(&path, r#"{"pimsyn_eval_cache":99,"fingerprint":"x"}"#).unwrap();
        assert!(cache.load().is_none(), "schema mismatch");
        let _ = std::fs::remove_file(&path);
    }
}
