//! Versioned benchmark-report schema (`BENCH_*.json`).
//!
//! The bench bins used to write ad-hoc flat JSON maps, which made
//! cross-run comparison guesswork: a number with no unit, no sample
//! spread, and no record of the machine that produced it. A
//! [`BenchReport`] fixes the schema:
//!
//! ```json
//! {
//!   "schema_version": 1.0,
//!   "checksum": "<16 hex digits>",
//!   "name": "fault_sim",
//!   "env": {"threads":8.0,"cpus":8.0,"git_rev":"941dcd8c0a2b"},
//!   "entries": [
//!     {
//!       "label": "ppsfp_256v_t1",
//!       "unit": "ns/iter",
//!       "value": 1843921.0,
//!       "samples": [1840102.0,1843921.0,1850773.0]
//!     }
//!   ]
//! }
//! ```
//!
//! `value` is the headline number (the **median** of `samples` when
//! samples were taken; a derived quantity like a speedup ratio
//! otherwise, with `samples` empty). `env` records what the regression
//! gate needs to judge comparability: resolved worker count, machine
//! CPU count, and the git revision that produced the report.
//! [`BENCH_SCHEMA_VERSION`] gates parsing — `perf_regress` refuses to
//! compare across schema versions. `checksum` is FNV-1a over the
//! canonical rendering of the `name`, `env` and `entries` members.
//!
//! The report is a [`Json`] value ([`BenchReport::to_json`]) laid out by
//! [`crate::ckpt::render_pretty`], so every number, integral ones
//! included, is written as a float; the reader takes `schema_version`
//! and the `env` counts through [`Json::as_uint`].

use super::json::{Json, JsonError};
use std::path::{Path, PathBuf};

/// The bench-report schema version this crate reads and writes.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Execution environment captured alongside benchmark numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnv {
    /// Resolved worker count (the `DLP_THREADS` contract).
    pub threads: usize,
    /// The machine's available parallelism.
    pub cpus: usize,
    /// Abbreviated git revision of the checkout the binary was built
    /// from, or `"unknown"` when it was not built from one.
    pub git_rev: String,
}

impl BenchEnv {
    /// Captures the current environment. `DLP_THREADS` parse failures
    /// fall back to auto — capture is diagnostics, never a gate.
    fn capture() -> BenchEnv {
        let threads = crate::par::ThreadCount::from_env()
            .unwrap_or(crate::par::ThreadCount::Auto)
            .get();
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        BenchEnv {
            threads,
            cpus,
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The repository revision *as of now*: the abbreviated `HEAD`
    /// commit with `"-dirty"` appended when the worktree has
    /// uncommitted modifications; `None` outside a checkout.
    ///
    /// Reports must derive their recorded revision at *write* time, not
    /// capture time — a long-lived report written after a commit would
    /// otherwise pin the previous commit's hash (the committed
    /// `BENCH_scale_sweep.json` did exactly that).
    pub fn current_git_rev() -> Option<String> {
        let mut rev = git_rev()?;
        if worktree_dirty() == Some(true) {
            rev.push_str("-dirty");
        }
        Some(rev)
    }

    /// Re-derives [`git_rev`](BenchEnv::git_rev) from the repository as
    /// of now (see [`BenchEnv::current_git_rev`]); keeps `"unknown"`
    /// outside a checkout.
    fn refresh_git_rev(&mut self) {
        self.git_rev = BenchEnv::current_git_rev().unwrap_or_else(|| "unknown".to_string());
    }
}

/// The `.git` directory of the checkout this crate was built from: the
/// nearest one above the build's source tree, so a binary records its
/// own revision from whatever directory it runs in.
fn git_dir() -> Option<PathBuf> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join(".git"))
        .find(|git| git.is_dir())
}

/// Best-effort abbreviated git revision of the build's checkout. No
/// subprocess, no dependency.
fn git_rev() -> Option<String> {
    head_rev(&git_dir()?)
}

/// The abbreviated commit `HEAD` names in the `.git` directory `git`,
/// following one level of indirection.
fn head_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = if let Some(reference) = head.strip_prefix("ref: ") {
        std::fs::read_to_string(git.join(reference)).ok()?
    } else {
        head.to_string()
    };
    let full = full.trim();
    if full.len() < 12 || !full.bytes().take(12).all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some(full[..12].to_string())
}

/// Best-effort worktree-modification check of the build's checkout via
/// `git status --porcelain` (the one question the `.git` files alone
/// cannot answer); `None` when git is unavailable or the command fails —
/// absence of evidence never marks a report dirty.
fn worktree_dirty() -> Option<bool> {
    let worktree = git_dir()?.parent()?.to_path_buf();
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .current_dir(worktree)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(!out.stdout.is_empty())
}

/// One measured quantity in a [`BenchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// What was measured (e.g. `ppsfp_256v_t1`).
    pub label: String,
    /// The unit of `value` (e.g. `ns/iter`, `ratio`, `ppm`).
    pub unit: String,
    /// The headline number: median of `samples` when present.
    pub value: f64,
    /// The raw per-batch samples behind `value` (empty for derived
    /// quantities such as ratios).
    pub samples: Vec<f64>,
}

/// The median of `samples` (mean of the middle pair for even counts);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A versioned benchmark report — see the module docs for the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The report name (the `BENCH_<name>.json` stem by convention).
    pub name: String,
    /// The environment the numbers were measured in.
    pub env: BenchEnv,
    /// Measured quantities, in recording order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// An empty report for `name`, capturing the current environment.
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            env: BenchEnv::capture(),
            entries: Vec::new(),
        }
    }

    /// Records a derived quantity (no samples).
    pub fn record(&mut self, label: &str, unit: &str, value: f64) {
        self.entries.push(BenchEntry {
            label: label.to_string(),
            unit: unit.to_string(),
            value,
            samples: Vec::new(),
        });
    }

    /// Records a sampled quantity; `value` becomes the median of
    /// `samples`.
    pub fn record_samples(&mut self, label: &str, unit: &str, samples: &[f64]) {
        self.entries.push(BenchEntry {
            label: label.to_string(),
            unit: unit.to_string(),
            value: median(samples),
            samples: samples.to_vec(),
        });
    }

    /// The entry with this label, if recorded.
    pub fn entry(&self, label: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.label == label)
    }

    /// The headline value of the labelled entry, if recorded.
    pub fn value(&self, label: &str) -> Option<f64> {
        self.entry(label).map(|e| e.value)
    }

    /// The checksummed members: name, environment, and entries.
    fn body(&self) -> Vec<(String, Json)> {
        let env = Json::object([
            ("threads", Json::Number(self.env.threads as f64)),
            ("cpus", Json::Number(self.env.cpus as f64)),
            ("git_rev", Json::String(self.env.git_rev.clone())),
        ]);
        let entries = self.entries.iter().map(|e| {
            Json::object([
                ("label", Json::String(e.label.clone())),
                ("unit", Json::String(e.unit.clone())),
                ("value", Json::Number(e.value)),
                (
                    "samples",
                    Json::Array(e.samples.iter().copied().map(Json::Number).collect()),
                ),
            ])
        });
        vec![
            ("name".to_string(), Json::String(self.name.clone())),
            ("env".to_string(), env),
            ("entries".to_string(), Json::Array(entries.collect())),
        ]
    }

    /// The report's integrity checksum: 64-bit FNV-1a (as 16 hex
    /// digits) over the canonical rendering of the name, environment,
    /// and entries. Stable across write/parse cycles, so a loaded report
    /// can be verified against the checksum recorded in its file.
    pub fn checksum(&self) -> String {
        let canonical = crate::ckpt::render(&Json::Object(self.body()));
        format!("{:016x}", crate::ckpt::fnv64(canonical.as_bytes()))
    }

    /// The report as a [`Json`] value of the shape in the module docs,
    /// with the [`checksum`](Self::checksum) recorded so loaders can
    /// detect corruption.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "schema_version".to_string(),
                Json::Number(BENCH_SCHEMA_VERSION as f64),
            ),
            ("checksum".to_string(), Json::String(self.checksum())),
        ];
        members.extend(self.body());
        Json::Object(members)
    }

    /// Parses a report, rejecting unknown schema versions.
    ///
    /// # Errors
    ///
    /// [`JsonError`] for malformed JSON, a missing/mismatched
    /// `schema_version`, or a malformed section. The offset points at
    /// the document start for schema-level (as opposed to syntax-level)
    /// problems.
    pub fn from_json(text: &str) -> Result<BenchReport, JsonError> {
        let schema_err = |message| JsonError { offset: 0, message };
        let doc = Json::parse(text)?;
        let version = doc
            .get("schema_version")
            .ok_or_else(|| schema_err("missing schema_version"))?;
        if version.as_uint() != Some(BENCH_SCHEMA_VERSION) {
            return Err(schema_err("unsupported bench schema_version"));
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| schema_err("missing name"))?
            .to_string();
        let env = doc.get("env").ok_or_else(|| schema_err("missing env"))?;
        let env_usize = |key| {
            env.get(key)
                .and_then(Json::as_uint)
                .ok_or_else(|| schema_err("malformed env"))
        };
        let env = BenchEnv {
            threads: env_usize("threads")?,
            cpus: env_usize("cpus")?,
            git_rev: env
                .get("git_rev")
                .and_then(Json::as_str)
                .ok_or_else(|| schema_err("malformed env"))?
                .to_string(),
        };
        let mut entries = Vec::new();
        for item in doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| schema_err("missing entries"))?
        {
            let label = item
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| schema_err("entry without a label"))?
                .to_string();
            let unit = item
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| schema_err("entry without a unit"))?
                .to_string();
            let value = match item.get("value") {
                Some(Json::Null) => f64::NAN,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| schema_err("entry without a value"))?,
                None => return Err(schema_err("entry without a value")),
            };
            let samples = item
                .get("samples")
                .and_then(Json::as_array)
                .ok_or_else(|| schema_err("entry without samples"))?
                .iter()
                .map(|s| s.as_f64().ok_or_else(|| schema_err("non-numeric sample")))
                .collect::<Result<Vec<f64>, JsonError>>()?;
            entries.push(BenchEntry {
                label,
                unit,
                value,
                samples,
            });
        }
        let report = BenchReport { name, env, entries };
        // Reports written before the checksum existed (e.g. a committed
        // baseline) carry no checksum field and stay loadable; when the
        // field is present it must verify.
        if let Some(recorded) = doc.get("checksum") {
            let recorded = recorded
                .as_str()
                .ok_or_else(|| schema_err("malformed checksum"))?;
            if recorded != report.checksum() {
                return Err(schema_err("bench checksum mismatch"));
            }
        }
        Ok(report)
    }

    /// Writes [`to_json`](Self::to_json), laid out by
    /// [`crate::ckpt::render_pretty`], to `path` atomically
    /// (write-temp-then-rename via [`crate::ckpt::atomic_write`]), so a
    /// crash mid-write can never leave a half-written report.
    ///
    /// `env.git_rev` is re-derived at write time (with a `"-dirty"`
    /// marker when the worktree is modified): a report captured before
    /// a commit and written after it would otherwise record the stale
    /// revision. The in-memory report is left untouched; the checksum
    /// in the file covers the refreshed revision.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating, writing, or renaming the file.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        let mut fresh = self.clone();
        fresh.env.refresh_git_rev();
        crate::ckpt::atomic_write(path, &crate::ckpt::render_pretty(&fresh.to_json()))
    }

    /// Reads and verifies a report previously written by
    /// [`write_to`](Self::write_to): the file must exist, be UTF-8,
    /// parse under the versioned schema, and — when a checksum is
    /// recorded — hash to it.
    ///
    /// # Errors
    ///
    /// [`crate::ckpt::CkptError::Io`] if the file cannot be read,
    /// [`crate::ckpt::CkptError::Json`] for parse/schema/checksum
    /// failures.
    pub fn load(path: &str) -> Result<BenchReport, crate::ckpt::CkptError> {
        Ok(BenchReport::from_json(&crate::ckpt::read_text(path)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report as [`BenchReport::write_to`] lays it out.
    fn text(report: &BenchReport) -> String {
        crate::ckpt::render_pretty(&report.to_json())
    }

    #[test]
    fn git_rev_comes_from_the_build_checkout() {
        // Whatever the current directory, the `.git` found is the one
        // above this crate's source tree.
        if let Some(git) = git_dir() {
            let worktree = git.parent().expect("a .git has a parent");
            assert!(Path::new(env!("CARGO_MANIFEST_DIR")).starts_with(worktree));
            assert_eq!(git_rev(), head_rev(&git));
        }
        // HEAD through a ref, a detached HEAD, and a malformed one.
        let git = std::env::temp_dir().join(format!("dlp-git-rev-{}", std::process::id()));
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        let commit = "0123456789abcdef0123456789abcdef01234567";
        std::fs::write(git.join("refs/heads/main"), format!("{commit}\n")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(head_rev(&git).as_deref(), Some("0123456789ab"));
        std::fs::write(git.join("HEAD"), commit).unwrap();
        assert_eq!(head_rev(&git).as_deref(), Some("0123456789ab"));
        std::fs::write(git.join("HEAD"), "not a commit").unwrap();
        assert_eq!(head_rev(&git), None);
        std::fs::remove_dir_all(&git).unwrap();
    }

    #[test]
    fn median_of_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn checksum_detects_entry_tampering_but_tolerates_absence() {
        let mut report = BenchReport::new("x");
        report.record("a", "ns/iter", 120.0);
        let text = text(&report);
        assert!(text.contains("\"checksum\""));
        // A value flip inside an entry must fail the checksum.
        let tampered = text.replace("120.0", "125.0");
        assert_ne!(tampered, text);
        let err = BenchReport::from_json(&tampered).expect_err("tamper detected");
        assert_eq!(err.message, "bench checksum mismatch");
        // A checksum-free report (pre-checksum baseline) still loads.
        let legacy: String = text
            .lines()
            .filter(|l| !l.contains("\"checksum\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = BenchReport::from_json(&legacy).expect("legacy loads");
        assert_eq!(parsed, report);
        // A non-string checksum is malformed, not a panic.
        let bad = text.replace(
            &format!("\"checksum\": \"{}\"", report.checksum()),
            "\"checksum\": 3",
        );
        let err = BenchReport::from_json(&bad).expect_err("typed error");
        assert_eq!(err.message, "malformed checksum");
    }

    #[test]
    fn atomic_write_and_load_round_trip() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("dlp_bench_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().expect("utf-8 path");
        let mut report = BenchReport::new("atomic");
        report.record_samples("w", "ns/iter", &[3.0, 1.0, 2.0]);
        report.write_to(path).expect("atomic write");
        let loaded = BenchReport::load(path).expect("verified load");
        // write_to refreshes env.git_rev (possibly adding "-dirty"), so
        // compare everything else exactly and the revision by prefix.
        assert_eq!(loaded.name, report.name);
        assert_eq!(loaded.entries, report.entries);
        assert_eq!(loaded.env.threads, report.env.threads);
        assert_eq!(loaded.env.cpus, report.env.cpus);
        let rev = loaded.env.git_rev.trim_end_matches("-dirty");
        assert!(
            rev == "unknown" || rev.len() == 12,
            "{}",
            loaded.env.git_rev
        );
        // Corrupt the file on disk: load is a typed error.
        let text = std::fs::read_to_string(path).expect("read");
        std::fs::write(path, &text[..text.len() / 2]).expect("truncate");
        assert!(matches!(
            BenchReport::load(path),
            Err(crate::ckpt::CkptError::Json(_))
        ));
        assert!(matches!(
            BenchReport::load("/nonexistent/nowhere.json"),
            Err(crate::ckpt::CkptError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new("unit");
        report.record_samples("stage_a", "ns/iter", &[120.0, 100.0, 110.0]);
        report.record("speedup_t2", "ratio", 1.7);
        assert_eq!(report.value("stage_a"), Some(110.0), "median of samples");
        let parsed = BenchReport::from_json(&text(&report)).expect("round-trips");
        assert_eq!(parsed, report);
        assert_eq!(
            parsed.entry("speedup_t2").map(|e| e.unit.as_str()),
            Some("ratio")
        );
        assert_eq!(parsed.value("missing"), None);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = BenchReport::new("empty");
        let parsed = BenchReport::from_json(&text(&report)).expect("round-trips");
        assert!(parsed.entries.is_empty());
        assert!(parsed.env.cpus >= 1);
    }

    #[test]
    fn nan_values_round_trip_as_null() {
        let mut report = BenchReport::new("nan");
        report.record("undefined_ratio", "ratio", f64::NAN);
        let json = text(&report);
        assert!(json.contains("\"value\": null"), "{json}");
        let parsed = BenchReport::from_json(&json).expect("parses");
        assert!(parsed.value("undefined_ratio").is_some_and(f64::is_nan));
    }

    #[test]
    fn schema_version_is_enforced() {
        let report = BenchReport::new("v");
        let future = text(&report).replace("\"schema_version\": 1.0", "\"schema_version\": 99.0");
        let err = BenchReport::from_json(&future).expect_err("future schema rejected");
        assert_eq!(err.message, "unsupported bench schema_version");
        // The old flat ad-hoc shape (no schema_version at all) is rejected.
        let err = BenchReport::from_json(r#"{"ppsfp_64v": 123.0}"#).expect_err("flat map");
        assert_eq!(err.message, "missing schema_version");
    }

    #[test]
    fn malformed_sections_are_typed_errors() {
        for (doc, why) in [
            (r#"{"schema_version": 1, "name": "x"}"#, "missing env"),
            (
                r#"{"schema_version": 1, "name": "x", "env": {"threads": 1, "cpus": 2, "git_rev": "r"}}"#,
                "missing entries",
            ),
            (
                r#"{"schema_version": 1, "name": "x", "env": {"threads": -1, "cpus": 2, "git_rev": "r"}, "entries": []}"#,
                "negative threads",
            ),
            (
                r#"{"schema_version": 1, "name": "x", "env": {"threads": 1, "cpus": 2, "git_rev": "r"}, "entries": [{"label": "a"}]}"#,
                "entry missing fields",
            ),
        ] {
            assert!(BenchReport::from_json(doc).is_err(), "{why}: {doc}");
        }
    }

    #[test]
    fn env_counts_past_the_integer_rule_are_rejected() {
        // 1e300 used to saturate to usize::MAX instead of failing.
        for threads in ["1e300", "18014398509481985", "2.5"] {
            let doc = format!(
                r#"{{"schema_version": 1, "name": "x", "env": {{"threads": {threads}, "cpus": 2, "git_rev": "r"}}, "entries": []}}"#
            );
            let err = BenchReport::from_json(&doc).expect_err("past the integer rule");
            assert_eq!(err.message, "malformed env", "threads = {threads}");
        }
    }

    #[test]
    fn captured_env_is_sane() {
        let env = BenchEnv::capture();
        assert!(env.cpus >= 1);
        assert!(env.threads >= 1);
        assert!(!env.git_rev.is_empty());
    }

    #[test]
    fn written_rev_is_derived_at_write_time() {
        // A report written inside a checkout must record the *current*
        // HEAD (modulo the dirty marker), even when the report object
        // was constructed earlier with a doctored revision.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("dlp_bench_rev_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        let path = dir.join("BENCH_rev.json");
        let path = path.to_str().expect("utf-8 path");
        let mut report = BenchReport::new("rev");
        report.env.git_rev = "stale0stale0".to_string();
        report.write_to(path).expect("atomic write");
        let loaded = BenchReport::load(path).expect("verified load");
        assert_ne!(loaded.env.git_rev, "stale0stale0");
        assert_eq!(
            loaded.env.git_rev,
            BenchEnv::current_git_rev().unwrap_or_else(|| "unknown".to_string())
        );
        // The in-memory report is untouched.
        assert_eq!(report.env.git_rev, "stale0stale0");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
