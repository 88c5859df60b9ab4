//! Tenant registry: API keys, weights and quotas from a keys file.
//!
//! The gateway authenticates requests by bearer token against a JSON keys
//! file and maps each key to a [`TenantPolicy`] (scheduling weight plus
//! queued/running quotas) that travels with every job it submits. Without
//! a keys file the gateway runs *open*: no `Authorization` header is
//! required and every job lands in one anonymous lane, dispatched in
//! submission order — exactly the single-tenant service behavior.
//!
//! Keys-file schema (see `docs/PROTOCOLS.md` for the normative version):
//!
//! ```json
//! {
//!   "tenants": [
//!     {"name": "alice", "key": "k-alice", "weight": 3,
//!      "max_queued": 8, "max_running": 2},
//!     {"name": "bob",   "key": "k-bob"}
//!   ]
//! }
//! ```
//!
//! `weight` defaults to 1; omitted quotas are unlimited.

use std::collections::HashMap;

use pimsyn::TenantPolicy;
use pimsyn_model::json::JsonValue;

/// The tenant registry a gateway authenticates against.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    by_key: HashMap<String, TenantPolicy>,
}

impl TenantRegistry {
    /// An empty registry: authentication disabled, anonymous submissions.
    pub fn open() -> Self {
        Self::default()
    }

    /// Whether the registry holds any tenants (i.e. auth is enforced).
    pub fn requires_auth(&self) -> bool {
        !self.by_key.is_empty()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Resolves an API key to its tenant policy.
    pub fn resolve(&self, key: &str) -> Option<&TenantPolicy> {
        self.by_key.get(key)
    }

    /// Parses a keys-file document.
    ///
    /// # Errors
    ///
    /// A message naming the malformed entry: missing/empty `name` or
    /// `key`, duplicate names or keys, zero/fractional `weight`, or
    /// fractional quota bounds.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("keys file is not JSON: {e}"))?;
        let tenants = doc
            .get("tenants")
            .and_then(|t| t.as_array())
            .ok_or("keys file has no `tenants` array")?;
        let mut by_key = HashMap::new();
        let mut seen_names = std::collections::HashSet::new();
        for (index, entry) in tenants.iter().enumerate() {
            let at = |detail: &str| format!("tenant entry {index}: {detail}");
            let name = entry
                .get("name")
                .and_then(|n| n.as_str())
                .filter(|n| !n.is_empty())
                .ok_or_else(|| at("missing or empty `name`"))?;
            let key = entry
                .get("key")
                .and_then(|k| k.as_str())
                .filter(|k| !k.is_empty())
                .ok_or_else(|| at("missing or empty `key`"))?;
            if !seen_names.insert(name.to_string()) {
                return Err(at(&format!("duplicate tenant name `{name}`")));
            }
            let mut policy = TenantPolicy::new(name);
            if let Some(weight) = entry.get("weight") {
                let weight = weight
                    .as_usize()
                    .filter(|&w| w > 0 && w <= u32::MAX as usize)
                    .ok_or_else(|| at("`weight` must be a positive integer"))?;
                policy = policy.with_weight(weight as u32);
            }
            if let Some(max) = entry.get("max_queued") {
                let max = max
                    .as_usize()
                    .ok_or_else(|| at("`max_queued` must be a non-negative integer"))?;
                policy = policy.with_max_queued(max);
            }
            if let Some(max) = entry.get("max_running") {
                let max = max
                    .as_usize()
                    .ok_or_else(|| at("`max_running` must be a non-negative integer"))?;
                policy = policy.with_max_running(max);
            }
            if by_key.insert(key.to_string(), policy).is_some() {
                return Err(at("duplicate API key"));
            }
        }
        Ok(Self { by_key })
    }

    /// Reads and parses a keys file from disk.
    ///
    /// # Errors
    ///
    /// I/O failures and everything [`parse`](Self::parse) rejects.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text)
    }
}

/// A tenant registry that follows its keys file across rotations.
///
/// The gateway resolves every request against [`current`](Self::current),
/// which re-reads the keys file whenever its on-disk fingerprint
/// (modification time and size) changes — so API keys can be added or
/// revoked on a *live* gateway by rewriting the file, no restart needed.
/// A keys file that turns unreadable or malformed mid-rotation keeps the
/// last good registry (and says so on stderr once per bad revision): a
/// fumbled rotation must not lock every tenant out.
#[derive(Debug)]
pub struct TenantSource {
    path: Option<String>,
    state: std::sync::Mutex<SourceState>,
}

#[derive(Debug)]
struct SourceState {
    registry: std::sync::Arc<TenantRegistry>,
    fingerprint: Option<(std::time::SystemTime, u64)>,
}

impl TenantSource {
    /// A source seeded with `registry`, reloading from `path` when set.
    pub fn new(registry: TenantRegistry, path: Option<String>) -> Self {
        let fingerprint = path.as_deref().and_then(keys_fingerprint);
        Self {
            path,
            state: std::sync::Mutex::new(SourceState {
                registry: std::sync::Arc::new(registry),
                fingerprint,
            }),
        }
    }

    /// A static source that never reloads (no keys file on disk).
    pub fn fixed(registry: TenantRegistry) -> Self {
        Self::new(registry, None)
    }

    /// The registry as of the keys file's current on-disk state.
    pub fn current(&self) -> std::sync::Arc<TenantRegistry> {
        let mut state = self.state.lock().expect("tenant source");
        if let Some(path) = &self.path {
            let fresh = keys_fingerprint(path);
            if fresh != state.fingerprint {
                match TenantRegistry::load(path) {
                    Ok(registry) => state.registry = std::sync::Arc::new(registry),
                    // Keep the last good key set. Recording the bad
                    // revision's fingerprint anyway means the warning
                    // prints once per rewrite, not once per request.
                    Err(e) => eprintln!("pimsyn gateway: keys file reload failed: {e}"),
                }
                state.fingerprint = fresh;
            }
        }
        std::sync::Arc::clone(&state.registry)
    }
}

/// The (mtime, size) pair that decides whether a keys file changed.
/// `None` when the file is missing or unreadable — distinct from every
/// readable fingerprint, so deleting and restoring the file triggers a
/// reload too.
fn keys_fingerprint(path: &str) -> Option<(std::time::SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tenants_with_defaults_and_quotas() {
        let registry = TenantRegistry::parse(
            r#"{"tenants": [
                {"name": "alice", "key": "k-a", "weight": 3, "max_queued": 8, "max_running": 2},
                {"name": "bob", "key": "k-b"}
            ]}"#,
        )
        .unwrap();
        assert!(registry.requires_auth());
        assert_eq!(registry.len(), 2);
        let alice = registry.resolve("k-a").unwrap();
        assert_eq!(alice.name, "alice");
        assert_eq!(alice.weight, 3);
        assert_eq!(alice.max_queued, Some(8));
        assert_eq!(alice.max_running, Some(2));
        let bob = registry.resolve("k-b").unwrap();
        assert_eq!(bob.weight, 1);
        assert_eq!(bob.max_queued, None);
        assert!(registry.resolve("k-c").is_none());
    }

    #[test]
    fn open_registry_requires_no_auth() {
        assert!(!TenantRegistry::open().requires_auth());
    }

    #[test]
    fn source_follows_keys_file_rotations() {
        let path = std::env::temp_dir().join(format!(
            "pimsyn-tenant-source-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_str().unwrap().to_string();
        std::fs::write(&path, r#"{"tenants": [{"name": "alice", "key": "k-a"}]}"#).unwrap();
        let seed = TenantRegistry::load(&path_str).unwrap();
        let source = TenantSource::new(seed, Some(path_str.clone()));
        assert!(source.current().resolve("k-a").is_some());
        assert!(source.current().resolve("k-bob").is_none());
        // Rotate: bob in, alice out. The revisions differ in size, so the
        // fingerprint changes even on filesystems with coarse mtimes.
        std::fs::write(&path, r#"{"tenants": [{"name": "bob", "key": "k-bob"}]}"#).unwrap();
        assert!(source.current().resolve("k-bob").is_some());
        assert!(source.current().resolve("k-a").is_none());
        // A malformed rewrite keeps the last good key set.
        std::fs::write(&path, "not json {").unwrap();
        assert!(source.current().resolve("k-bob").is_some());
        std::fs::remove_file(&path).unwrap();
        // A fixed source never reloads.
        let fixed = TenantSource::fixed(TenantRegistry::open());
        assert!(!fixed.current().requires_auth());
    }

    #[test]
    fn rejects_malformed_registries() {
        for (text, needle) in [
            ("[]", "no `tenants` array"),
            (r#"{"tenants": [{"key": "k"}]}"#, "missing or empty `name`"),
            (r#"{"tenants": [{"name": "a"}]}"#, "missing or empty `key`"),
            (
                r#"{"tenants": [{"name": "a", "key": "k", "weight": 0}]}"#,
                "positive integer",
            ),
            (
                r#"{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}"#,
                "duplicate tenant name",
            ),
            (
                r#"{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}"#,
                "duplicate API key",
            ),
        ] {
            let err = TenantRegistry::parse(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }
}
