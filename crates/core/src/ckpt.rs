//! Versioned, checksummed checkpoint artifacts and atomic file writes.
//!
//! Every long stage (PPSFP simulation, n-detect schedule construction,
//! Monte-Carlo fallout) snapshots its state into a one-line *envelope*:
//!
//! ```text
//! {"ckpt_version":1,"kind":"sim.ppsfp","key":"<16 hex>","checksum":"<16 hex>","payload":{...}}
//! ```
//!
//! - `ckpt_version` — envelope format version; readers reject anything
//!   newer than [`CKPT_VERSION`] with a typed error instead of guessing.
//! - `kind` — which stage wrote it, so a Monte-Carlo checkpoint can
//!   never be resumed into a PPSFP run.
//! - `key` — an FNV-1a digest of the stage's *inputs* (netlist, faults,
//!   vectors, config). Resuming against different inputs is a
//!   [`CkptError::KeyMismatch`], not silent wrong data.
//! - `checksum` — FNV-1a over the canonical rendering of `payload`;
//!   detects truncation and bit flips.
//!
//! The rendering is canonical (no whitespace, [`Json::Object`] members
//! in source order, numbers via the same shortest-round-trip formatter
//! the reports use), so checksums are stable across write/parse cycles.
//! Run and bench reports are the same [`Json`] values laid out for
//! people by [`render_pretty`], and every reader takes integers through
//! the one rule of [`Json::as_uint`].
//!
//! [`atomic_write`] is the shared write-temp-then-rename helper used by
//! every artifact writer in the workspace (checkpoints, `RunReport`,
//! `BenchReport`, `TRACE_*.json`, perf baselines): a crash mid-write
//! leaves either the old file or nothing, never a torn artifact.

use std::error::Error;
use std::fmt;
use std::io::Write;

use crate::obs::json::{json_number, json_string};
use crate::obs::{Json, JsonError};

/// The checkpoint envelope format version this build reads and writes.
pub const CKPT_VERSION: u64 = 1;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string — the workspace's dependency-free
/// integrity hash (not cryptographic; it detects corruption, not
/// tampering by an adversary with write access).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Incremental FNV-1a hasher for building checkpoint *keys* out of a
/// stage's inputs. Each write is length-prefixed where ambiguity is
/// possible, so `["ab","c"]` and `["a","bc"]` hash differently.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> KeyHasher {
        KeyHasher { state: FNV_OFFSET }
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes in a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.mix(&v.to_le_bytes());
    }

    /// Mixes in a `usize` (as `u64`).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mixes in a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.mix(&[u8::from(v)]);
    }

    /// Mixes in an `f64` by bit pattern (so `-0.0` and `0.0` differ and
    /// NaN payloads are preserved — keys must be exact, not numeric).
    pub fn write_f64(&mut self, v: f64) {
        self.mix(&v.to_bits().to_le_bytes());
    }

    /// Mixes in a byte string, length-prefixed.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.mix(bytes);
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Renders a [`Json`] value canonically: compact (no whitespace),
/// object members in source order, numbers through the same
/// shortest-round-trip formatter the reports use. Checksums are
/// computed over this rendering, so it must stay byte-stable.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Number(v) => out.push_str(&json_number(*v)),
        Json::String(s) => out.push_str(&json_string(s)),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(k));
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Renders a [`Json`] value for people to read, ending in a newline.
/// The layout is fixed: a container that holds only scalars is one
/// canonical [`render`] line; a container that holds a container puts
/// one member per line, indented two spaces per level. Every scalar is
/// formatted exactly as [`render`] formats it, so the text parses back
/// to the value the canonical rendering does.
pub fn render_pretty(value: &Json) -> String {
    let mut out = String::new();
    pretty_into(value, 0, &mut out);
    out.push('\n');
    out
}

fn pretty_into(value: &Json, depth: usize, out: &mut String) {
    let nested = |v: &Json| matches!(v, Json::Array(_) | Json::Object(_));
    let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match value {
        Json::Array(items) if items.iter().any(nested) => {
            ('[', ']', items.iter().map(|v| (None, v)).collect())
        }
        Json::Object(members) if members.iter().any(|(_, v)| nested(v)) => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        _ => return out.push_str(&render(value)),
    };
    out.push(open);
    for (i, (key, v)) in members.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&json_string(key));
            out.push_str(": ");
        }
        pretty_into(v, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// Writes `contents` to `path` atomically: write to a unique temp file
/// beside the target, flush to disk, then rename over the target. A
/// crash at any point leaves either the previous file or no file —
/// never a torn one. The temp name carries both the pid and a process-
/// wide counter: two *threads* writing the same target concurrently
/// (e.g. racing misses sealing a shared sibling artifact) each get
/// their own temp file, so one writer's rename can never strand or
/// truncate the other's.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename; the temp file is
/// removed on failure.
pub fn atomic_write(path: &str, contents: &str) -> std::io::Result<()> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = format!("{path}.tmp{}.{seq}", std::process::id());
    let write_result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write_result.is_err() {
        // Best-effort cleanup; the original error is the one that matters.
        let _ = std::fs::remove_file(&tmp);
    }
    write_result
}

/// A checkpoint or artifact that cannot be trusted. Every variant is a
/// typed, recoverable condition — corruption must never surface as a
/// panic or, worse, as silently wrong data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CkptError {
    /// The file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The I/O error, stringified (std's error is not `Clone`).
        error: String,
    },
    /// The bytes are not valid JSON (truncation, bit flips in
    /// structure, non-UTF-8 garbage).
    Json(JsonError),
    /// The document parses but is not a checkpoint envelope.
    Malformed {
        /// Which part is missing or has the wrong shape.
        what: &'static str,
    },
    /// The envelope was written by a newer format than this build reads.
    VersionMismatch {
        /// The version found in the envelope.
        found: u64,
        /// The newest version this build supports ([`CKPT_VERSION`]).
        supported: u64,
    },
    /// The checkpoint belongs to a different stage.
    KindMismatch {
        /// The kind the resuming stage expected.
        expected: String,
        /// The kind found in the envelope.
        found: String,
    },
    /// The checkpoint was produced from different inputs (another
    /// netlist, fault list, vector set, or config).
    KeyMismatch {
        /// The key the resuming stage derived from its inputs.
        expected: String,
        /// The key found in the envelope.
        found: String,
    },
    /// The payload does not hash to the recorded checksum — the file
    /// was truncated or bit-flipped inside the payload.
    ChecksumMismatch {
        /// The checksum recorded in the envelope.
        expected: String,
        /// The checksum computed from the payload actually present.
        computed: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, error } => write!(f, "cannot access {path}: {error}"),
            CkptError::Json(e) => write!(f, "not valid JSON: {e}"),
            CkptError::Malformed { what } => write!(f, "not a checkpoint envelope: {what}"),
            CkptError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint version {found} is newer than the supported version {supported}"
            ),
            CkptError::KindMismatch { expected, found } => {
                write!(f, "checkpoint kind is {found:?}, expected {expected:?}")
            }
            CkptError::KeyMismatch { expected, found } => write!(
                f,
                "checkpoint key {found} does not match these inputs (expected {expected})"
            ),
            CkptError::ChecksumMismatch { expected, computed } => write!(
                f,
                "payload checksum {computed} does not match the recorded {expected} — the file is corrupt"
            ),
        }
    }
}

impl Error for CkptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CkptError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for CkptError {
    fn from(e: JsonError) -> Self {
        CkptError::Json(e)
    }
}

/// Seals `payload` into a one-line versioned, checksummed envelope.
/// `key` is the stage's input digest (from a [`KeyHasher`]).
pub fn seal(kind: &str, key: u64, payload: &Json) -> String {
    let rendered = render(payload);
    let checksum = fnv64(rendered.as_bytes());
    format!(
        "{{\"ckpt_version\":{CKPT_VERSION},\"kind\":{},\"key\":\"{key:016x}\",\"checksum\":\"{checksum:016x}\",\"payload\":{rendered}}}",
        json_string(kind),
    )
}

/// Opens an envelope previously produced by [`seal`], verifying (in
/// order) JSON well-formedness, envelope shape, format version, stage
/// `kind`, input `key`, and the payload checksum. Returns the payload.
///
/// # Errors
///
/// The first [`CkptError`] encountered in that verification order.
pub fn open(text: &str, kind: &str, key: u64) -> Result<Json, CkptError> {
    let doc = Json::parse(text)?;
    if doc.as_object().is_none() {
        return Err(CkptError::Malformed {
            what: "document is not an object",
        });
    }
    let version = doc
        .get("ckpt_version")
        .and_then(Json::as_uint::<u64>)
        .ok_or(CkptError::Malformed {
            what: "missing ckpt_version",
        })?;
    if version > CKPT_VERSION {
        return Err(CkptError::VersionMismatch {
            found: version,
            supported: CKPT_VERSION,
        });
    }
    let found_kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or(CkptError::Malformed {
            what: "missing kind",
        })?;
    if found_kind != kind {
        return Err(CkptError::KindMismatch {
            expected: kind.to_string(),
            found: found_kind.to_string(),
        });
    }
    let found_key = doc
        .get("key")
        .and_then(Json::as_str)
        .ok_or(CkptError::Malformed {
            what: "missing key",
        })?;
    let expected_key = format!("{key:016x}");
    if found_key != expected_key {
        return Err(CkptError::KeyMismatch {
            expected: expected_key,
            found: found_key.to_string(),
        });
    }
    let recorded = doc
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or(CkptError::Malformed {
            what: "missing checksum",
        })?
        .to_string();
    let payload = doc.get("payload").ok_or(CkptError::Malformed {
        what: "missing payload",
    })?;
    let computed = format!("{:016x}", fnv64(render(payload).as_bytes()));
    if recorded != computed {
        return Err(CkptError::ChecksumMismatch {
            expected: recorded,
            computed,
        });
    }
    Ok(payload.clone())
}

/// Seals `payload` and writes it to `path` atomically.
///
/// # Errors
///
/// [`CkptError::Io`] if the atomic write fails.
pub fn save(path: &str, kind: &str, key: u64, payload: &Json) -> Result<(), CkptError> {
    atomic_write(path, &seal(kind, key, payload)).map_err(|e| CkptError::Io {
        path: path.to_string(),
        error: e.to_string(),
    })
}

/// Reads `path` and opens the envelope (see [`open`] for the
/// verification order).
///
/// # Errors
///
/// [`CkptError::Io`] if the file cannot be read (including non-UTF-8
/// bytes from corruption), otherwise whatever [`open`] reports.
pub fn load(path: &str, kind: &str, key: u64) -> Result<Json, CkptError> {
    open(&read_text(path)?, kind, key)
}

/// Reads a UTF-8 artifact file whole.
///
/// # Errors
///
/// [`CkptError::Io`] if the file cannot be read or is not UTF-8.
pub(crate) fn read_text(path: &str) -> Result<String, CkptError> {
    std::fs::read_to_string(path).map_err(|e| CkptError::Io {
        path: path.to_string(),
        error: e.to_string(),
    })
}

/// A long stage's resume state, sealed on disk as an envelope of kind
/// [`Checkpoint::KIND`].
///
/// The implementor owns the payload codec; the caller supplies the
/// input `key`, which each stage derives from its own inputs (its
/// type's `key(…)` function), so a checkpoint only ever resumes the run
/// it was cut from.
pub trait Checkpoint: Sized {
    /// The envelope `kind` this stage writes and accepts.
    const KIND: &'static str;

    /// The checkpoint payload, rendered into the envelope by [`seal`].
    fn to_payload(&self) -> Json;

    /// Decodes a payload produced by [`Checkpoint::to_payload`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] if the payload does not have the
    /// stage's expected shape.
    fn from_payload(payload: &Json) -> Result<Self, CkptError>;

    /// Seals this checkpoint under `key` and writes it to `path`
    /// atomically.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] if the atomic write fails.
    fn save(&self, path: &str, key: u64) -> Result<(), CkptError> {
        save(path, Self::KIND, key, &self.to_payload())
    }

    /// Reads `path`, verifies the envelope against [`Checkpoint::KIND`]
    /// and `key` (see [`open`]), and decodes the payload.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`]: unreadable file, corrupt envelope, wrong
    /// version/kind/key, checksum mismatch, or malformed payload.
    fn load(path: &str, key: u64) -> Result<Self, CkptError> {
        Self::from_payload(&load(path, Self::KIND, key)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Json {
        Json::Object(vec![
            ("next".to_string(), Json::Number(3.0)),
            (
                "state".to_string(),
                Json::Array(vec![Json::Number(1.0), Json::Number(2.5), Json::Null]),
            ),
            ("label".to_string(), Json::String("a\"b".to_string())),
        ])
    }

    #[test]
    fn render_is_canonical_and_round_trips() {
        let payload = sample_payload();
        let text = render(&payload);
        assert_eq!(
            text,
            "{\"next\":3.0,\"state\":[1.0,2.5,null],\"label\":\"a\\\"b\"}"
        );
        // Parse and re-render: byte-identical (checksum stability).
        let reparsed = Json::parse(&text).expect("canonical text parses");
        assert_eq!(render(&reparsed), text);
    }

    #[test]
    fn render_pretty_breaks_only_nested_containers() {
        let value = Json::object([
            ("flat", sample_payload()),
            ("empty", Json::Array(Vec::new())),
            ("rows", Json::Array(vec![Json::Array(vec![Json::Null])])),
        ]);
        let text = render_pretty(&value);
        assert_eq!(
            text,
            "{\n  \"flat\": {\n    \"next\": 3.0,\n    \"state\": [1.0,2.5,null],\n    \
             \"label\": \"a\\\"b\"\n  },\n  \"empty\": [],\n  \"rows\": [\n    [null]\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&text), Ok(value));
        assert_eq!(render_pretty(&Json::Number(2.0)), "2.0\n");
    }

    #[test]
    fn seal_open_round_trip() {
        let payload = sample_payload();
        let sealed = seal("test.kind", 0xABCD, &payload);
        assert!(!sealed.contains('\n'), "envelope must be one line");
        let reopened = open(&sealed, "test.kind", 0xABCD).expect("own envelope opens");
        assert_eq!(reopened, payload);
    }

    #[test]
    fn open_rejects_wrong_kind_and_key() {
        let sealed = seal("test.kind", 7, &sample_payload());
        match open(&sealed, "other.kind", 7) {
            Err(CkptError::KindMismatch { expected, found }) => {
                assert_eq!(expected, "other.kind");
                assert_eq!(found, "test.kind");
            }
            other => panic!("expected a kind mismatch, got {other:?}"),
        }
        match open(&sealed, "test.kind", 8) {
            Err(CkptError::KeyMismatch { .. }) => {}
            other => panic!("expected a key mismatch, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_newer_versions_but_accepts_older() {
        let sealed = seal("k", 1, &Json::Null);
        let newer = sealed.replace("\"ckpt_version\":1", "\"ckpt_version\":999");
        assert_eq!(
            open(&newer, "k", 1),
            Err(CkptError::VersionMismatch {
                found: 999,
                supported: CKPT_VERSION,
            })
        );
        // Version 0 (hypothetically older) is not rejected on version.
        let older = sealed.replace("\"ckpt_version\":1", "\"ckpt_version\":0");
        assert!(open(&older, "k", 1).is_ok());
    }

    #[test]
    fn open_detects_payload_tampering() {
        let sealed = seal("k", 1, &sample_payload());
        let tampered = sealed.replace("\"next\":3.0", "\"next\":4.0");
        assert_ne!(tampered, sealed, "the tamper must hit the payload");
        match open(&tampered, "k", 1) {
            Err(CkptError::ChecksumMismatch { expected, computed }) => {
                assert_ne!(expected, computed);
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let sealed = seal("k", 1, &sample_payload());
        for cut in [1, sealed.len() / 3, sealed.len() - 1] {
            let truncated = &sealed[..cut];
            assert!(
                matches!(open(truncated, "k", 1), Err(CkptError::Json(_))),
                "truncation at {cut} must be a JSON error"
            );
        }
        assert!(matches!(open("", "k", 1), Err(CkptError::Json(_))));
        assert_eq!(
            open("[1,2,3]", "k", 1),
            Err(CkptError::Malformed {
                what: "document is not an object"
            })
        );
        assert_eq!(
            open("{\"a\":1}", "k", 1),
            Err(CkptError::Malformed {
                what: "missing ckpt_version"
            })
        );
    }

    #[test]
    fn key_hasher_is_order_and_boundary_sensitive() {
        let digest = |f: &dyn Fn(&mut KeyHasher)| {
            let mut h = KeyHasher::new();
            f(&mut h);
            h.finish()
        };
        let ab_c = digest(&|h| {
            h.write_bytes(b"ab");
            h.write_bytes(b"c");
        });
        let a_bc = digest(&|h| {
            h.write_bytes(b"a");
            h.write_bytes(b"bc");
        });
        assert_ne!(ab_c, a_bc, "length prefixes must disambiguate");
        let x = digest(&|h| h.write_u64(1));
        let y = digest(&|h| h.write_u64(2));
        assert_ne!(x, y);
        assert_ne!(
            digest(&|h| h.write_f64(0.0)),
            digest(&|h| h.write_f64(-0.0)),
            "keys hash bit patterns, not numeric values"
        );
        assert_eq!(x, digest(&|h| h.write_u64(1)), "keys are deterministic");
    }

    /// A scratch directory inside the workspace `target/` tree (tests
    /// must not write outside the repository).
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = scratch_dir("dlp_ckpt_test");
        std::fs::create_dir_all(&dir).expect("create test dir");
        let path = dir.join("artifact.json");
        let path = path.to_str().expect("utf-8 path");
        atomic_write(path, "first").expect("first write");
        assert_eq!(std::fs::read_to_string(path).expect("read"), "first");
        atomic_write(path, "second").expect("overwrite");
        assert_eq!(std::fs::read_to_string(path).expect("read"), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files may remain");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn save_load_round_trip_through_a_file() {
        let dir = scratch_dir("dlp_ckpt_rt");
        std::fs::create_dir_all(&dir).expect("create test dir");
        let path = dir.join("ckpt.json");
        let path = path.to_str().expect("utf-8 path");
        let payload = sample_payload();
        save(path, "k", 42, &payload).expect("save");
        assert_eq!(load(path, "k", 42).expect("load"), payload);
        match load(path, "k", 43) {
            Err(CkptError::KeyMismatch { .. }) => {}
            other => panic!("expected a key mismatch, got {other:?}"),
        }
        match load("/nonexistent/nowhere.json", "k", 42) {
            Err(CkptError::Io { .. }) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
