//! Pluggable candidate-scoring backends.
//!
//! The synthesis loop spends virtually all of its time scoring candidates:
//! every EA macro-partitioning gene and every outer design point runs
//! components allocation plus the analytic performance model. This module
//! isolates that work behind the [`EvalBackend`] trait so the
//! [`CandidateEvaluator`](crate::CandidateEvaluator) — which owns the memo
//! caches, budget charging and statistics — composes with *where* the
//! scoring runs:
//!
//! - [`InlineBackend`] — on the calling thread (the default);
//! - [`SubprocessBackend`] — across a pool of `pimsyn --worker` child
//!   processes speaking the versioned JSON-lines [`protocol`], with
//!   per-worker failure isolation (a crashed worker is respawned and its
//!   in-flight jobs recomputed inline).
//!
//! Scoring is a pure function of the candidate, so every backend produces
//! bit-identical scores; only wall-clock and process placement differ. A
//! [`PersistentEvalCache`] can be layered over any backend to warm-start
//! repeated runs from a cache file.

mod inline;
mod persist;
pub mod protocol;
mod session;
mod shared;
mod subprocess;

pub use inline::InlineBackend;
pub use persist::{CacheSnapshot, PersistentEvalCache, EVAL_CACHE_SCHEMA};
pub use shared::SharedEvalResources;
pub use subprocess::{SubprocessBackend, WorkerPool};

use std::path::PathBuf;
use std::sync::Arc;

use pimsyn_ir::Dataflow;

use crate::ea::MacAllocGene;
use crate::eval::{CandidateScore, EvalCore};
use crate::space::DesignPoint;

/// One candidate to score: the compiled dataflow it runs on, the outer
/// design point, and the macro-partitioning gene.
#[derive(Debug, Clone, Copy)]
pub struct EvalJob<'a> {
    /// Compiled dataflow (fixes DAC resolution and weight duplication).
    pub df: &'a Dataflow,
    /// Outer design point (`RatioRram`, crossbar configuration).
    pub point: DesignPoint,
    /// The `MacAlloc` gene in the paper's encoding.
    pub gene: &'a MacAllocGene,
}

/// Cumulative counters of one backend instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// `score_batch` invocations.
    pub batches: usize,
    /// Jobs scored (across all batches).
    pub jobs: usize,
    /// Jobs scored by out-of-process workers (subprocess children).
    pub remote_jobs: usize,
    /// Jobs recomputed inline after a worker failure.
    pub fallback_jobs: usize,
    /// Worker processes spawned.
    pub worker_spawns: usize,
}

/// A cooperative cancellation probe handed to backends: `true` means the
/// caller no longer wants the results and remaining jobs may be skipped
/// (skipped jobs come back as [`CandidateScore::INFEASIBLE`] placeholders).
/// Budget and deadline stops are *not* routed through this — they are
/// accounted before dispatch, and every dispatched job must still compute
/// so that charged candidates always receive real scores.
pub type StopCheck<'a> = &'a (dyn Fn() -> bool + Sync);

/// A [`StopCheck`] that never stops (for callers outside a cancellable
/// context).
pub const NEVER_STOP: StopCheck<'static> = &|| false;

/// Where candidate scoring runs.
///
/// Implementations must be deterministic: scoring is a pure function of the
/// candidate, and [`score_batch`](Self::score_batch) must return scores in
/// input order regardless of internal scheduling, so that every backend is
/// bit-identical to [`InlineBackend`]. Implementations should poll `stop`
/// between jobs (or at least between chunks) so cancellation stays prompt
/// even inside a large batch.
pub trait EvalBackend: Send + Sync + std::fmt::Debug {
    /// Short identifier (`"inline"`, `"subprocess"`).
    fn name(&self) -> &'static str;

    /// Scores `jobs`, returning one score per job in input order; jobs
    /// skipped after `stop` turns `true` come back as
    /// [`CandidateScore::INFEASIBLE`].
    fn score_batch(
        &self,
        core: &EvalCore<'_>,
        jobs: &[EvalJob<'_>],
        stop: StopCheck<'_>,
    ) -> Vec<CandidateScore>;

    /// Scores a single job (default: a one-element batch, never skipped).
    fn score(&self, core: &EvalCore<'_>, job: &EvalJob<'_>) -> CandidateScore {
        self.score_batch(core, std::slice::from_ref(job), NEVER_STOP)
            .pop()
            .unwrap_or(CandidateScore::INFEASIBLE)
    }

    /// Snapshot of the backend's throughput counters.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    /// Releases buffered state (worker pipes, pending writes). Called once
    /// when a synthesis run finishes; a no-op for stateless backends.
    fn flush(&self) {}
}

/// Sizes a worker pool for one batch: `configured` workers (`0` = one per
/// available core), never more than there are jobs, never less than one.
pub(crate) fn pool_width(configured: usize, jobs: usize) -> usize {
    let width = if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        configured
    };
    width.clamp(1, jobs.max(1))
}

/// A `u64` (typically `f64::to_bits`) as the 16-digit hex string used by
/// both the worker protocol and the persistent cache file.
pub(crate) fn u64_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses a [`u64_hex`] bit pattern back.
pub(crate) fn parse_u64_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// Which [`EvalBackend`] implementation to run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Score on the calling thread (the default).
    #[default]
    Inline,
    /// Score batches across `pimsyn --worker` child processes; `workers ==
    /// 0` means one per available core.
    Subprocess {
        /// Worker-process count (0 = auto).
        workers: usize,
    },
}

/// Reads a shared-auth-token file, trimming surrounding whitespace (the
/// trailing newline every editor appends would otherwise corrupt the
/// JSON-lines request). The single reader for every surface that takes a
/// token file — `pimsyn serve` and its clients — so token normalization
/// can never diverge between them.
///
/// # Errors
///
/// A human-readable message naming the unreadable path.
pub fn read_token_file(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map(|text| text.trim().to_string())
        .map_err(|e| format!("cannot read token file {}: {e}", path.display()))
}

impl BackendKind {
    /// Parses the CLI spelling: `inline` or `subprocess[:N]`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown names or malformed counts.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let count = |arg: Option<&str>| -> Result<usize, String> {
            match arg {
                None => Ok(0),
                Some(t) => match t.parse::<usize>() {
                    Ok(n) if n >= 1 => Ok(n),
                    _ => Err(format!("worker count `{t}` must be a positive integer")),
                },
            }
        };
        match name {
            "inline" => match arg {
                None => Ok(BackendKind::Inline),
                Some(_) => Err("`inline` takes no worker count".to_string()),
            },
            "subprocess" => Ok(BackendKind::Subprocess {
                workers: count(arg)?,
            }),
            other => Err(format!(
                "unknown backend `{other}` (expected inline or subprocess[:N])"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Inline => write!(f, "inline"),
            BackendKind::Subprocess { workers: 0 } => write!(f, "subprocess"),
            BackendKind::Subprocess { workers } => write!(f, "subprocess:{workers}"),
        }
    }
}

/// Full evaluation-backend configuration: the backend kind plus the
/// cross-run persistence, sharing and worker-command overrides.
#[derive(Debug, Clone, Default)]
pub struct EvalBackendConfig {
    /// Which backend scores candidates.
    pub kind: BackendKind,
    /// Persistent evaluation-cache file: loaded (when its fingerprint
    /// matches the run) before the search and rewritten after it, so
    /// repeated invocations and sweeps warm-start.
    pub cache_file: Option<PathBuf>,
    /// Flush-time cap on candidate-score entries written per run section of
    /// the cache file: the oldest (first-inserted) entries are trimmed
    /// first, so paper-scale sweeps stop growing the file without bound.
    /// `None` writes every memo entry. Only meaningful with
    /// [`cache_file`](Self::cache_file).
    pub cache_max_entries: Option<usize>,
    /// Override of the worker executable for [`BackendKind::Subprocess`]
    /// (default: the current executable, which is the `pimsyn` CLI when
    /// launched from it). Tests point this at a built `pimsyn` binary.
    pub worker_command: Option<PathBuf>,
    /// Resources shared across runs: one subprocess worker pool (leased and
    /// re-sessioned per run instead of spawned per run) and one in-memory
    /// evaluation-cache snapshot store. Sharing is transparent — outcomes
    /// are bit-identical with or without it. Set by `sweep_power` and the
    /// synthesis service; `None` keeps every resource private to the run.
    pub shared: Option<Arc<SharedEvalResources>>,
}

/// Configurations compare by value, except the shared-resource handle which
/// compares by identity (two configs sharing the *same* pool are equal;
/// equal-but-distinct pools are not interchangeable).
impl PartialEq for EvalBackendConfig {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.cache_file == other.cache_file
            && self.cache_max_entries == other.cache_max_entries
            && self.worker_command == other.worker_command
            && match (&self.shared, &other.shared) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl EvalBackendConfig {
    /// The default inline configuration.
    pub fn inline() -> Self {
        Self::default()
    }

    /// Configuration for the given backend kind.
    pub fn new(kind: BackendKind) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Sets the persistent cache file.
    #[must_use]
    pub fn with_cache_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_file = Some(path.into());
        self
    }

    /// Caps candidate-score entries written per cache-file run section
    /// (oldest trimmed first at flush time).
    #[must_use]
    pub fn with_cache_max_entries(mut self, cap: usize) -> Self {
        self.cache_max_entries = Some(cap);
        self
    }

    /// Overrides the subprocess worker executable.
    #[must_use]
    pub fn with_worker_command(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker_command = Some(path.into());
        self
    }

    /// Attaches cross-run shared resources (worker pool, snapshot store).
    #[must_use]
    pub fn with_shared_resources(mut self, shared: Arc<SharedEvalResources>) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Instantiates the configured backend. With shared resources attached,
    /// a subprocess backend leases processes from the shared pool (created
    /// on first use) instead of owning a private one.
    pub fn build(&self) -> Box<dyn EvalBackend> {
        match &self.kind {
            BackendKind::Inline => Box::new(InlineBackend::default()),
            BackendKind::Subprocess { workers } => match &self.shared {
                Some(shared) => Box::new(SubprocessBackend::with_pool(
                    *workers,
                    shared.worker_pool(*workers, self.worker_command.clone()),
                )),
                None => Box::new(SubprocessBackend::new(
                    *workers,
                    self.worker_command.clone(),
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_cli_spellings() {
        assert_eq!(BackendKind::parse("inline").unwrap(), BackendKind::Inline);
        assert_eq!(
            BackendKind::parse("subprocess").unwrap(),
            BackendKind::Subprocess { workers: 0 }
        );
        assert_eq!(
            BackendKind::parse("subprocess:2").unwrap(),
            BackendKind::Subprocess { workers: 2 }
        );
        assert!(BackendKind::parse("inline:2").is_err());
        assert!(BackendKind::parse("subprocess:0").is_err());
        assert!(BackendKind::parse("subprocess:x").is_err());
        assert!(BackendKind::parse("gpu").is_err());
        assert!(BackendKind::parse("threads:2").is_err());
        assert!(BackendKind::parse("remote:127.0.0.1:7801").is_err());
    }

    #[test]
    fn backend_kind_displays_round_trip() {
        for kind in [
            BackendKind::Inline,
            BackendKind::Subprocess { workers: 0 },
            BackendKind::Subprocess { workers: 2 },
        ] {
            assert_eq!(BackendKind::parse(&kind.to_string()).unwrap(), kind);
        }
    }

    #[test]
    fn config_builds_the_configured_backend() {
        assert_eq!(EvalBackendConfig::inline().build().name(), "inline");
        assert_eq!(
            EvalBackendConfig::new(BackendKind::Subprocess { workers: 1 })
                .build()
                .name(),
            "subprocess"
        );
    }
}
