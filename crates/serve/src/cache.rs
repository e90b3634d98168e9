//! The content-addressed artifact cache behind every projection
//! endpoint.
//!
//! A response body is a deterministic function of its cache key — the
//! endpoint, the netlist fingerprint, the seed / n-detect target, the
//! defect-model parameters, and the engine version (see
//! [`crate::service`] for the key recipe). So the cache can promise the
//! strongest property a cache can have: **a hit replays the exact bytes
//! a miss would have computed.** Artifacts are stored as sealed
//! [`dlp_core::ckpt`] envelopes (kind [`CACHE_KIND`]), written with
//! [`dlp_core::ckpt::atomic_write`] so a crash mid-store leaves either
//! the old artifact or the new one, never a torn file.
//!
//! Corruption is *not* an error: an envelope that fails its checksum,
//! kind, key, or version check is reported as a typed miss
//! ([`CacheLookup::Miss`] carrying the [`CkptError`]) and recomputed —
//! a damaged cache degrades to a cold one.
//!
//! A hit does only the work its bytes demand. Every probe reads the
//! artifact whole, once, so a deleted, truncated or corrupted file is
//! seen on the very next request. The verdict of
//! [`dlp_core::ckpt::open`] and the rendering of the body are a pure
//! function of (bytes, kind, key), so the cache remembers the envelope
//! text it last verified for each key: when the bytes read equal it,
//! the probe replays the body, which is a slice of that text, without
//! parsing, checksumming or rendering again. Any other bytes take the
//! full verification path, and a verified envelope replaces the
//! remembered one. Like the recompute locks, the memo holds one entry
//! per key served.
//!
//! Eviction policy: **none, by design.** Every artifact is re-derivable
//! from its key, artifacts are small (a few KB of JSON), and the
//! catalogue of circuits × seeds a deployment serves is finite, so the
//! directory is bounded by usage. Operators reclaim space with `rm`:
//! every file is self-describing and independently sealed.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dlp_core::ckpt::{self, CkptError};
use dlp_core::obs::{Json, Recorder};

use crate::error::ServeError;

/// The envelope kind every cached response artifact is sealed under.
pub const CACHE_KIND: &str = "serve.response";

/// Bumped whenever the projection pipeline changes in a way that can
/// alter response bytes; part of every cache key, so stale artifacts
/// from an older engine can never be replayed. Version 2: response
/// bodies carry the fallout distribution (`dist`, `lambda`) and the
/// catalogue gained the scale-class members.
pub const ENGINE_VERSION: u64 = 2;

/// The outcome of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    /// The sealed artifact was present and intact; the payload's
    /// canonical rendering — byte-identical to what the original miss
    /// returned.
    Hit(String),
    /// No usable artifact. `None` means the file does not exist (a cold
    /// miss); `Some(err)` means an envelope was present but failed
    /// verification (a *typed* miss — the corruption is reported, then
    /// recomputed over).
    Miss(Option<CkptError>),
}

/// A directory of sealed response artifacts plus the per-key recompute
/// locks that give the cache its single-flight property.
pub struct ArtifactCache {
    dir: PathBuf,
    /// One recompute mutex per hot key. Entries are never removed: the
    /// map is bounded by the number of distinct keys served, and an
    /// `Arc<Mutex<()>>` is a few dozen bytes.
    locks: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    /// The envelope text last verified for each key, and where in it
    /// the body's canonical rendering sits.
    verified: Mutex<HashMap<u64, Verified>>,
}

/// A sealed envelope that passed verification, kept so the next probe
/// that reads the same bytes can replay its body directly.
struct Verified {
    text: String,
    body: Range<usize>,
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the error if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactCache {
            dir,
            locks: Mutex::new(HashMap::new()),
            verified: Mutex::new(HashMap::new()),
        })
    }

    /// The artifact path for a key: `<dir>/serve-<key as 16 hex>.json`.
    pub fn path_for(&self, key: u64) -> String {
        self.dir
            .join(format!("serve-{key:016x}.json"))
            .to_string_lossy()
            .into_owned()
    }

    /// Probes the cache without computing anything. The artifact is read
    /// on every probe; bytes equal to the ones last verified for `key`
    /// replay the remembered body, any others are verified in full.
    pub fn lookup(&self, key: u64) -> CacheLookup {
        let path = self.path_for(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => return CacheLookup::Miss(None),
            Err(e) => {
                return CacheLookup::Miss(Some(CkptError::Io {
                    path,
                    error: e.to_string(),
                }))
            }
        };
        {
            let verified = self.verified.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(seen) = verified.get(&key).filter(|seen| seen.text == text) {
                return CacheLookup::Hit(seen.text[seen.body.clone()].to_string());
            }
        }
        let rendered = match ckpt::open(&text, CACHE_KIND, key) {
            Ok(payload) => match payload.get("body") {
                Some(body) => ckpt::render(body),
                None => {
                    return CacheLookup::Miss(Some(CkptError::Malformed {
                        what: "cached artifact payload has no body field",
                    }))
                }
            },
            Err(e) => return CacheLookup::Miss(Some(e)),
        };
        // An envelope this cache sealed holds the rendering verbatim; one
        // that does not (say, re-indented by hand yet still valid) is
        // verified again on every probe.
        if let Some(start) = text.rfind(&rendered) {
            let body = start..start + rendered.len();
            let mut verified = self.verified.lock().unwrap_or_else(|p| p.into_inner());
            verified.insert(key, Verified { text, body });
        }
        CacheLookup::Hit(rendered)
    }

    /// Seals and atomically stores a response body, returning the same
    /// canonical rendering a later [`CacheLookup::Hit`] will replay.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cache`] if the envelope cannot be written.
    pub fn store(&self, key: u64, body: &Json) -> Result<String, ServeError> {
        let rendered = ckpt::render(body);
        let payload = Json::object([("body", body.clone())]);
        ckpt::save(&self.path_for(key), CACHE_KIND, key, &payload)?;
        Ok(rendered)
    }

    /// Loads and verifies the sealed artifact for `key`, surfacing the
    /// verification error instead of degrading it to a miss — for tests
    /// and the fault-injection corpus, which assert on the *typed*
    /// failure a corrupted envelope produces.
    ///
    /// # Errors
    ///
    /// The [`CkptError`] from [`dlp_core::ckpt::load`].
    pub fn open_strict(&self, key: u64) -> Result<Json, CkptError> {
        ckpt::load(&self.path_for(key), CACHE_KIND, key)
    }

    /// The hit-or-recompute path every endpoint goes through.
    ///
    /// On a hit the sealed artifact's bytes are replayed. On a miss,
    /// exactly one caller recomputes per key — concurrent requests for
    /// the same key serialize on a per-key mutex, and the losers of the
    /// race re-probe the cache after the winner stores (the
    /// single-flight property the cache-race test pins down). Returns
    /// the body and whether it was served from cache.
    ///
    /// Counters on the request's recorder `obs`: `serve.cache.hit`,
    /// `serve.cache.miss`, `serve.cache.corrupt` (typed misses),
    /// `serve.recompute` (actual pipeline executions — at most one per
    /// key under any concurrency). Spans: `cache.probe` around each
    /// probe, `recompute` around the compute closure (whose own spans
    /// nest inside it), and `seal` around the store.
    ///
    /// # Errors
    ///
    /// Whatever `compute` fails with, or [`ServeError::Cache`] if the
    /// recomputed artifact cannot be stored.
    pub(crate) fn get_or_compute(
        &self,
        key: u64,
        obs: &Recorder,
        compute: impl FnOnce() -> Result<Json, ServeError>,
    ) -> Result<(String, bool), ServeError> {
        let probed = {
            let _probe = obs.span("cache.probe");
            self.lookup(key)
        };
        match probed {
            CacheLookup::Hit(body) => {
                obs.incr("serve.cache.hit");
                return Ok((body, true));
            }
            CacheLookup::Miss(Some(_)) => {
                obs.incr("serve.cache.miss");
                obs.incr("serve.cache.corrupt");
            }
            CacheLookup::Miss(None) => obs.incr("serve.cache.miss"),
        }
        let lock = self.lock_for(key);
        let _guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        // Double-check under the lock: if another request already
        // recomputed this key, replay its bytes instead of computing
        // again.
        let probed = {
            let _probe = obs.span("cache.probe");
            self.lookup(key)
        };
        if let CacheLookup::Hit(body) = probed {
            return Ok((body, true));
        }
        obs.incr("serve.recompute");
        let body = {
            let _recompute = obs.span("recompute");
            compute()?
        };
        let rendered = {
            let _seal = obs.span("seal");
            self.store(key, &body)?
        };
        Ok((rendered, false))
    }

    fn lock_for(&self, key: u64) -> Arc<Mutex<()>> {
        let mut locks = self.locks.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(locks.entry(key).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dlp_serve_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn body() -> Json {
        Json::Object(vec![
            ("circuit".to_string(), Json::String("c17".to_string())),
            ("dl".to_string(), Json::Number(0.125)),
        ])
    }

    #[test]
    fn store_then_lookup_replays_identical_bytes() {
        let cache = ArtifactCache::new(tmp_dir("roundtrip")).expect("cache dir");
        let stored = cache.store(7, &body()).expect("store");
        match cache.lookup(7) {
            CacheLookup::Hit(replayed) => assert_eq!(replayed, stored),
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn absent_artifacts_are_cold_misses() {
        let cache = ArtifactCache::new(tmp_dir("cold")).expect("cache dir");
        assert!(matches!(cache.lookup(1), CacheLookup::Miss(None)));
    }

    #[test]
    fn corrupted_envelopes_are_typed_misses() {
        let cache = ArtifactCache::new(tmp_dir("corrupt")).expect("cache dir");
        cache.store(9, &body()).expect("store");
        let path = cache.path_for(9);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, text.replace("0.125", "0.625")).expect("corrupt");
        match cache.lookup(9) {
            CacheLookup::Miss(Some(e)) => {
                assert!(matches!(e, CkptError::ChecksumMismatch { .. }), "{e}")
            }
            other => panic!("expected a typed miss, got {other:?}"),
        }
        // And open_strict surfaces the same failure as an error.
        assert!(cache.open_strict(9).is_err());
    }

    #[test]
    fn verified_bytes_replay_and_changed_bytes_are_reverified() {
        let cache = ArtifactCache::new(tmp_dir("reverify")).expect("cache dir");
        let stored = cache.store(11, &body()).expect("store");
        let path = cache.path_for(11);
        let sealed = std::fs::read_to_string(&path).expect("read");
        let hit =
            |cache: &ArtifactCache| matches!(cache.lookup(11), CacheLookup::Hit(b) if b == stored);
        assert!(hit(&cache) && hit(&cache));
        // A same-length flip after verified hits is still caught.
        std::fs::write(&path, sealed.replace("0.125", "0.625")).expect("corrupt");
        assert!(matches!(cache.lookup(11), CacheLookup::Miss(Some(_))));
        std::fs::write(&path, &sealed).expect("restore");
        assert!(hit(&cache));
        // Whitespace the canonical rendering lacks: still a valid
        // envelope, so still a hit with the same body.
        std::fs::write(&path, sealed.replacen('{', "{ ", 1)).expect("respace");
        assert!(hit(&cache) && hit(&cache));
    }

    #[test]
    fn wrong_key_artifacts_never_replay() {
        let cache = ArtifactCache::new(tmp_dir("key")).expect("cache dir");
        cache.store(3, &body()).expect("store");
        let other = cache.path_for(4);
        std::fs::copy(cache.path_for(3), other).expect("copy");
        assert!(matches!(cache.lookup(4), CacheLookup::Miss(Some(_))));
    }

    #[test]
    fn get_or_compute_counts_and_replays() {
        let cache = ArtifactCache::new(tmp_dir("counts")).expect("cache dir");
        let obs = Recorder::enabled();
        let (first, hit) = cache
            .get_or_compute(5, &obs, || Ok(body()))
            .expect("compute");
        assert!(!hit);
        let (second, hit) = cache
            .get_or_compute(5, &obs, || panic!("must not recompute a hit"))
            .expect("replay");
        assert!(hit);
        assert_eq!(first, second);
        assert_eq!(obs.counter_value("serve.cache.miss"), Some(1));
        assert_eq!(obs.counter_value("serve.cache.hit"), Some(1));
        assert_eq!(obs.counter_value("serve.recompute"), Some(1));
        // The miss and the hit each probed, the miss recomputed and
        // sealed — all visible as spans on the request's recorder.
        let report = obs.report("cache");
        assert!(report.span_nanos("cache.probe").is_some());
        assert!(report.span_nanos("recompute").is_some());
        assert!(report.span_nanos("seal").is_some());
    }
}
