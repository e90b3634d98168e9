//! The structured access log: one canonical-JSON line per finished
//! request.
//!
//! Each line is a [`TraceRecord`] rendered through
//! [`TraceRecord::to_access_json`] — trace id, endpoint, circuit,
//! distribution, cache disposition, per-stage nanoseconds, status, and
//! body bytes — so a `grep` for a trace id from a client-observed error
//! body lands on the exact request, and the per-stage breakdown says
//! where its time went without fetching the full span tree.
//!
//! Failure philosophy: an unusable sink is a **typed construction
//! error** ([`ServeError::Io`]) — the operator asked for a log they
//! cannot have and must hear about it — but once the service is up, a
//! failed write never fails the request it describes (the write result
//! is deliberately dropped). Lines are rendered fully before a single
//! locked `write_all`, so concurrent requests cannot interleave bytes.

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::Mutex;

use dlp_core::obs::trace::TraceRecord;
use dlp_core::obs::Json;

use crate::error::ServeError;

/// Where the access log goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessLogConfig {
    /// No access log.
    Off,
    /// One line per request on standard error.
    Stderr,
    /// One line per request appended to this file (created if absent).
    Path(String),
}

enum Sink {
    Stderr,
    File(std::fs::File),
}

/// An open access log; see the module docs for the line shape and the
/// failure philosophy.
pub struct AccessLog {
    sink: Option<Mutex<Sink>>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl AccessLog {
    /// Opens the configured sink. A file sink is opened for append
    /// (created if absent) up front, so a bad path fails service
    /// construction instead of silently losing every line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be opened.
    pub fn open(config: &AccessLogConfig) -> Result<AccessLog, ServeError> {
        let sink = match config {
            AccessLogConfig::Off => None,
            AccessLogConfig::Stderr => Some(Mutex::new(Sink::Stderr)),
            AccessLogConfig::Path(path) => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(ServeError::Io)?;
                Some(Mutex::new(Sink::File(file)))
            }
        };
        Ok(AccessLog { sink })
    }

    /// Whether lines go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Logs one finished request.
    pub fn write_record(&self, record: &TraceRecord) {
        self.write_json(&record.to_access_json());
    }

    /// Logs an arbitrary JSON document (used for the shutdown flight
    /// dump). Rendered to one `\n`-terminated line and written with a
    /// single locked `write_all`; write failures are dropped by design.
    pub fn write_json(&self, doc: &Json) {
        let Some(sink) = &self.sink else {
            return;
        };
        let mut line = dlp_core::ckpt::render(doc);
        line.push('\n');
        let mut sink = sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = match &mut *sink {
            Sink::Stderr => std::io::stderr().write_all(line.as_bytes()),
            Sink::File(f) => f.write_all(line.as_bytes()),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> TraceRecord {
        use dlp_core::obs::trace::{derive_trace_id, TraceContext, TraceOutcome};
        let target = "/v1/dl?circuit=c17";
        let ctx = TraceContext::new(derive_trace_id(target, 0), 0, std::time::Instant::now());
        drop(ctx.obs().span("route"));
        let (record, _obs) = ctx.finish(&TraceOutcome {
            endpoint: "dl",
            target,
            circuit: Some("c17"),
            dist: None,
            status: 200,
            cache: "miss",
            bytes: 7,
            error: None,
        });
        record
    }

    #[test]
    fn off_log_is_disabled_and_silent() {
        let log = AccessLog::open(&AccessLogConfig::Off).expect("off always opens");
        assert!(!log.is_enabled());
        log.write_record(&sample_record());
    }

    #[test]
    fn file_log_appends_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("dlp_access_log_test_{}.jsonl", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open(&AccessLogConfig::Path(path_str.clone())).expect("opens");
        assert!(log.is_enabled());
        log.write_record(&sample_record());
        log.write_record(&sample_record());
        let text = std::fs::read_to_string(&path).expect("log file readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let doc = Json::parse(line).expect("access line parses");
            assert_eq!(doc.get("endpoint").and_then(Json::as_str), Some("dl"));
            assert_eq!(doc.get("cache").and_then(Json::as_str), Some("miss"));
            assert!(doc
                .get("stages")
                .and_then(|s| s.get("route"))
                .and_then(Json::as_f64)
                .is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_path_is_a_typed_error() {
        let path = std::env::temp_dir()
            .join(format!("dlp_access_log_missing_{}", std::process::id()))
            .join("sub")
            .join("access.log");
        let err = AccessLog::open(&AccessLogConfig::Path(path.to_string_lossy().into_owned()))
            .expect_err("missing parent directory must not open");
        assert!(matches!(err, ServeError::Io(_)));
    }
}
