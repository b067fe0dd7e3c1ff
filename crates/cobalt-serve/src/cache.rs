//! The shared proof cache: a [`Journal`]-backed map from request
//! fingerprint to a finished, deterministic result.
//!
//! The cache obeys the standing durability rules (`DESIGN.md` §10):
//! every insert is append+fsync so a daemon kill loses at most the
//! in-flight work; loading tolerates truncated tails; any journal
//! trouble (open failure, lock contention, write error, injected
//! `serve.cache` fault) **degrades to uncached service** — the daemon
//! keeps answering with identical verdicts, responses just carry a
//! `note` and stop saying `served:"cache"`. A cache problem can never
//! change a verdict.
//!
//! Only *deterministic* outcomes are cached: exit 0 (proved / ok) and
//! exit 2 (unsound). Resource-limited (exit 3) and error (exit 1)
//! outcomes depend on budgets and transient conditions, so replaying
//! them could flip a verdict that a fresh run would get right — they
//! are always re-executed.

use crate::proto::{Response, ServedFrom};
use cobalt_support::journal::{Keep, LoadReport, ResumeMode, Store};
use std::path::Path;
use std::time::Duration;

cobalt_support::journal_record! {
    /// One cached result, stored under its request fingerprint (see
    /// `exec::request_fingerprint`): everything needed to replay a
    /// response except the correlation id (which belongs to the asking
    /// client, not the proof).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CachedResult {
        /// `verify` or `optimize`.
        pub op: String = "op",
        /// CLI-compatible exit code (only 0 and 2 are ever cached).
        pub exit: u8 = "exit",
        /// Human verdict (`proved`, `unsound`, `ok`).
        pub verdict: String = "verdict",
        /// The deterministic report text.
        pub output: String = "output",
    }
}

impl CachedResult {
    /// Whether this outcome is deterministic and therefore cacheable.
    /// Exit 3 (resource-limited) depends on budgets; exit 1 (error)
    /// may be transient. Neither may be replayed.
    pub fn cacheable(exit: u8) -> bool {
        exit == 0 || exit == 2
    }

    /// Replays this result as a response for `id`.
    pub fn to_response(&self, id: &str, served: ServedFrom) -> Response {
        Response::ok(id, self.exit, &self.verdict, served, self.output.clone())
    }
}

/// A journal-backed, degrade-don't-fail proof cache. All methods are
/// infallible from the caller's perspective: trouble flips the cache
/// into its degraded (in-memory-only) state and the daemon keeps
/// serving.
#[derive(Debug)]
pub struct ProofCache(Store<CachedResult>);

impl ProofCache {
    /// A cache with no journal: single-flight dedup and in-memory
    /// replay still work, nothing survives a restart.
    pub fn in_memory() -> ProofCache {
        ProofCache(Store::in_memory())
    }

    /// Opens (creating if absent) the cache journal at `path` under
    /// its advisory exclusive lock, replaying intact records with a
    /// cacheable exit into the in-memory map (`ResumeMode::Fresh`
    /// truncates instead). Trouble — open failure, lock contention, an
    /// injected `serve.cache` fault — yields a *degraded* in-memory
    /// cache, never an error: the daemon must come up and serve
    /// regardless.
    pub fn open(path: impl AsRef<Path>, mode: ResumeMode, lock_wait: Duration) -> ProofCache {
        let mut store: Store<CachedResult> =
            Store::open_or_degrade(path.as_ref(), mode, lock_wait, Some("serve.cache"));
        store.retain(|r| CachedResult::cacheable(r.exit));
        ProofCache(store)
    }

    /// Why persistence was disabled, if it was. Verdicts are
    /// unaffected — only warmth across restarts is lost.
    pub fn degraded(&self) -> Option<&str> {
        self.0.degraded()
    }

    /// What the journal loader recovered and discarded at open.
    pub fn load_report(&self) -> &LoadReport {
        self.0.load_report()
    }

    /// Number of cached results currently replayable.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the cache holds no replayable results.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Looks up a finished result by request fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<&CachedResult> {
        self.0.get(fingerprint)
    }

    /// Records a finished result when its outcome is cacheable (exit 0
    /// or 2): into the in-memory map always, and append+fsync into the
    /// journal while persistence is healthy. A write failure (or
    /// injected `serve.cache` fault) degrades persistence for the rest
    /// of the run — the in-memory map keeps working.
    pub fn insert(&mut self, fingerprint: u64, result: CachedResult) {
        if CachedResult::cacheable(result.exit) {
            self.0.append(fingerprint, result);
        }
    }

    /// Compacts the journal down to every live result (atomic
    /// temp-file + rename) and releases it. Called once during graceful
    /// drain; a compaction failure degrades (the appended journal is
    /// still valid) rather than erroring.
    pub fn finish(&mut self) {
        self.0.finish(Keep::All);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_support::fault;

    fn result(exit: u8) -> CachedResult {
        CachedResult {
            op: "verify".into(),
            exit,
            verdict: if exit == 0 { "proved" } else { "unsound" }.into(),
            output: "verified `r`: 3/3 obligations\twith\ttabs\nand newlines".into(),
        }
    }

    #[test]
    fn uncacheable_records_are_skipped_at_load() {
        let dir = std::env::temp_dir().join(format!("cobalt-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t0.jrnl");
        let _ = std::fs::remove_file(&path);
        // A record claiming a non-deterministic exit must never be
        // replayed, even if something managed to write one.
        let mut store =
            Store::open(&path, ResumeMode::Fresh, Duration::from_secs(1), None).unwrap();
        store.append(1, result(3));
        store.append(2, result(0));
        drop(store);
        let cache = ProofCache::open(&path, ResumeMode::Resume, Duration::from_secs(1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.get(2), Some(&result(0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persists_and_reloads_across_open() {
        let dir = std::env::temp_dir().join(format!("cobalt-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t1.jrnl");
        let _ = std::fs::remove_file(&path);
        let mut cache = ProofCache::open(&path, ResumeMode::Fresh, Duration::from_secs(1));
        assert!(cache.degraded().is_none());
        cache.insert(1, result(0));
        cache.insert(2, result(2));
        cache.insert(3, result(3)); // resource-limited: not cached at all
        assert_eq!(cache.len(), 2);
        drop(cache); // unclean: no finish() — appends alone must survive
        let cache = ProofCache::open(&path, ResumeMode::Resume, Duration::from_secs(1));
        assert!(cache.degraded().is_none());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1), Some(&result(0)));
        assert_eq!(cache.get(2), Some(&result(2)));
        assert_eq!(cache.get(3), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_mode_truncates_and_finish_compacts() {
        let dir = std::env::temp_dir().join(format!("cobalt-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.jrnl");
        let _ = std::fs::remove_file(&path);
        let mut cache = ProofCache::open(&path, ResumeMode::Fresh, Duration::from_secs(1));
        cache.insert(10, result(0));
        cache.finish();
        assert!(cache.degraded().is_none());
        let cache = ProofCache::open(&path, ResumeMode::Fresh, Duration::from_secs(1));
        assert!(cache.is_empty(), "fresh mode discards prior results");
        drop(cache);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_fault_degrades_open_and_write_without_changing_replay() {
        let dir = std::env::temp_dir().join(format!("cobalt-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t3.jrnl");
        let _ = std::fs::remove_file(&path);
        // Fault at open: cache comes up degraded but alive.
        fault::with_faults("serve.cache:fail", || {
            let mut cache = ProofCache::open(&path, ResumeMode::Fresh, Duration::from_secs(1));
            let why = cache.degraded().expect("open fault degrades").to_string();
            assert!(why.contains("serve.cache"), "{why}");
            cache.insert(5, result(0));
            assert_eq!(cache.get(5), Some(&result(0)), "in-memory replay survives");
        });
        // Fault at the first write: open succeeds, persistence then
        // degrades, in-memory replay still works.
        let mut cache = ProofCache::open(&path, ResumeMode::Fresh, Duration::from_secs(1));
        assert!(cache.degraded().is_none());
        fault::with_faults("serve.cache:fail", || {
            cache.insert(6, result(0));
        });
        assert!(cache.degraded().is_some());
        assert_eq!(cache.get(6), Some(&result(0)));
        cache.insert(7, result(0));
        drop(cache);
        let cache = ProofCache::open(&path, ResumeMode::Resume, Duration::from_secs(1));
        assert!(cache.is_empty(), "nothing persisted after degradation");
        drop(cache);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lock_contention_degrades_second_opener() {
        let dir = std::env::temp_dir().join(format!("cobalt-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t4.jrnl");
        let _ = std::fs::remove_file(&path);
        let holder = ProofCache::open(&path, ResumeMode::Fresh, Duration::from_secs(1));
        assert!(holder.degraded().is_none());
        let second = ProofCache::open(&path, ResumeMode::Resume, Duration::from_millis(50));
        let why = second.degraded().expect("contended lock degrades").to_string();
        assert!(why.contains("lock"), "{why}");
        drop(holder);
        drop(second);
        let _ = std::fs::remove_file(&path);
    }
}
