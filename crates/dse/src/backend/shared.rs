//! Process-wide evaluation resources shared across synthesis runs.
//!
//! A single synthesis run owns its evaluator, backend and persistent-cache
//! handle; sweeps, batches and long-lived services run *many* runs and waste
//! work re-creating what could be shared:
//!
//! - the subprocess [`WorkerPool`]: spawning and handshaking `pimsyn
//!   --worker` children per run pays process startup over and over, when the
//!   processes themselves are run-agnostic (a lease re-opens the session
//!   with the new run's model and hardware);
//! - the persistent evaluation cache: two jobs with the same fingerprint
//!   running back-to-back (or concurrently) each re-read — or worse, miss —
//!   the cache file, when the first job's snapshot is sitting in memory.
//!
//! [`SharedEvalResources`] bundles both behind one cloneable handle, wired
//! through [`EvalBackendConfig::shared`](super::EvalBackendConfig). Sharing
//! is *transparent*: scoring is a pure function of the candidate, so runs
//! with and without shared resources produce bit-identical outcomes; only
//! wall-clock (and spawn counts) differ.
//!
//! One caveat, inherited from the cache file itself: a run curtailed by
//! `max_unique_evaluations` stops by *work actually done* (memo misses),
//! and a warm-started memo turns misses into hits — so such a run's
//! stopping point depends on the warm-start state. That was already true
//! of sequential runs over one cache file; the in-memory store adds the
//! concurrent flavor (whether a sibling job's flush lands before this job's
//! evaluator is built decides its preload). Completed runs, and runs
//! bounded by the scored-candidate or wall-clock budgets, are unaffected.

use std::sync::{Arc, Mutex};

use super::persist::CacheSnapshot;
use super::subprocess::WorkerPool;

/// In-memory snapshots retained per shared handle; mirrors the cache file's
/// own bound so the two stay roughly in step.
const MAX_SNAPSHOTS: usize = super::persist::PersistentEvalCache::MAX_RUNS;

/// Evaluation resources shared by every run holding a clone of the handle:
/// one lazily-created subprocess [`WorkerPool`] and an in-memory
/// fingerprint-keyed store of evaluation-cache snapshots.
///
/// Create one per logical job group (a service, a sweep, a batch) and
/// attach it via
/// [`EvalBackendConfig::with_shared_resources`](super::EvalBackendConfig::with_shared_resources);
/// `sweep_power` and the `SynthesisService` do this automatically.
#[derive(Default)]
pub struct SharedEvalResources {
    /// Created on first use, with the first caller's worker count and
    /// command; later callers lease from the same pool regardless of their
    /// own configuration (the pool's cap governs globally).
    pool: Mutex<Option<Arc<WorkerPool>>>,
    /// Most-recent evaluation-cache snapshot per run fingerprint,
    /// insertion-ordered so the oldest evicts first.
    snapshots: Mutex<Vec<(String, Arc<CacheSnapshot>)>>,
}

impl std::fmt::Debug for SharedEvalResources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pool = self.pool.lock().expect("shared pool");
        let snapshots = self.snapshots.lock().expect("shared snapshots");
        f.debug_struct("SharedEvalResources")
            .field("pool", &pool.as_deref())
            .field("snapshots", &snapshots.len())
            .finish()
    }
}

impl SharedEvalResources {
    /// A fresh shared handle with no pool and no snapshots.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The shared worker pool, created on first call (that caller's
    /// `workers` cap and `command` stick for the pool's lifetime).
    pub(crate) fn worker_pool(
        &self,
        workers: usize,
        command: Option<std::path::PathBuf>,
    ) -> Arc<WorkerPool> {
        let mut slot = self.pool.lock().expect("shared pool");
        slot.get_or_insert_with(|| Arc::new(WorkerPool::new(workers, command)))
            .clone()
    }

    /// Worker processes spawned by the shared pool so far (0 before any
    /// subprocess-backend run leased from it). A long-lived pool serving N
    /// jobs reports at most the configured pool width here, not N × width.
    pub fn worker_spawns(&self) -> usize {
        self.pool
            .lock()
            .expect("shared pool")
            .as_ref()
            .map_or(0, |p| p.spawn_count())
    }

    /// Worker processes currently alive in the shared pool.
    pub fn live_workers(&self) -> usize {
        self.pool
            .lock()
            .expect("shared pool")
            .as_ref()
            .map_or(0, |p| p.live_workers())
    }

    /// The most recent snapshot published for `fingerprint`, if any.
    pub(crate) fn snapshot(&self, fingerprint: &str) -> Option<Arc<CacheSnapshot>> {
        self.snapshots
            .lock()
            .expect("shared snapshots")
            .iter()
            .find(|(fp, _)| fp == fingerprint)
            .map(|(_, snap)| Arc::clone(snap))
    }

    /// Snapshots currently retained (for observability and tests).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.lock().expect("shared snapshots").len()
    }

    /// Publishes a run's snapshot so later (or concurrent) runs with the
    /// same fingerprint warm-start from memory instead of the cache file.
    /// Replaces any previous snapshot for the fingerprint; the store keeps
    /// the most recent [`MAX_SNAPSHOTS`] fingerprints, oldest evicted.
    pub(crate) fn publish(&self, fingerprint: &str, snapshot: CacheSnapshot) {
        let mut store = self.snapshots.lock().expect("shared snapshots");
        store.retain(|(fp, _)| fp != fingerprint);
        store.push((fingerprint.to_string(), Arc::new(snapshot)));
        let excess = store.len().saturating_sub(MAX_SNAPSHOTS);
        store.drain(..excess);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_store_replaces_and_evicts_oldest_first() {
        let shared = SharedEvalResources::new();
        assert!(shared.snapshot("a").is_none());
        shared.publish("a", CacheSnapshot::default());
        shared.publish("b", CacheSnapshot::default());
        assert_eq!(shared.snapshot_count(), 2);
        assert!(shared.snapshot("a").is_some());
        // Re-publishing replaces in place (no duplicate entry).
        shared.publish("a", CacheSnapshot::default());
        assert_eq!(shared.snapshot_count(), 2);
        // Filling past the bound evicts the oldest fingerprints.
        for i in 0..MAX_SNAPSHOTS {
            shared.publish(&format!("fp{i}"), CacheSnapshot::default());
        }
        assert_eq!(shared.snapshot_count(), MAX_SNAPSHOTS);
        assert!(shared.snapshot("b").is_none(), "oldest must evict");
        assert!(shared
            .snapshot(&format!("fp{}", MAX_SNAPSHOTS - 1))
            .is_some());
    }

    #[test]
    fn worker_pool_is_created_once_and_counts_nothing_before_use() {
        let shared = SharedEvalResources::new();
        assert_eq!(shared.worker_spawns(), 0);
        assert_eq!(shared.live_workers(), 0);
        let a = shared.worker_pool(2, None);
        let b = shared.worker_pool(7, Some("/elsewhere".into()));
        assert!(Arc::ptr_eq(&a, &b), "first caller's pool sticks");
        assert_eq!(
            shared.worker_spawns(),
            0,
            "no spawns until a lease needs one"
        );
    }
}
