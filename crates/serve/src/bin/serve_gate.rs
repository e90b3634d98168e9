//! CI gate for the projection service.
//!
//! Starts `dlp-serve` on an ephemeral port with a fresh cache
//! directory, then proves the service contract end to end over real
//! sockets:
//!
//! 1. a cold `/v1/dl` request recomputes (exactly one pipeline
//!    execution),
//! 2. the same request again replays **byte-identical** bytes from the
//!    cache,
//! 3. the sibling `/v1/faults` artifact was sealed by the same miss (no
//!    second recompute),
//! 4. a clustered-distribution request (`dist=nb`) recomputes under its
//!    own cache key, differs from the Poisson body, and then replays
//!    byte-identically,
//! 5. after those hits, a same-length in-place corruption of the sealed
//!    `/v1/dl` artifact is a typed miss (`serve.cache.corrupt`) whose
//!    recompute answers the original bytes,
//! 6. a scale-class member (c1355) projects through the template path,
//!    and `/v1/dln` refuses it with a 400,
//! 7. client mistakes — including garbage distribution parameters and
//!    garbage `/v1/traces` limits — map to their statuses (404 / 400),
//!    and every error body carries a `trace_id` that round-trips to the
//!    flight recorder and the access log,
//! 8. `/metrics` scrapes as a valid OpenMetrics exposition with the
//!    exact OpenMetrics `Content-Type`, carrying the cache counters,
//! 9. `GET /v1/traces` dumps the flight recorder; the dump is written
//!    to `TRACE_serve_gate.json` at the workspace root for
//!    `validate_trace --serve-trace`.
//!
//! Exits nonzero on the first violated expectation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;

use dlp_core::obs::{openmetrics, Json};
use dlp_core::par::ThreadCount;
use dlp_serve::accesslog::AccessLogConfig;
use dlp_serve::server::{serve, ServerConfig};
use dlp_serve::service::{artifact_key, netlist_for, ServiceConfig};

/// The exact exposition media type the OpenMetrics spec requires.
const OPENMETRICS_CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

fn workspace_trace_path() -> String {
    format!("{}/../../TRACE_serve_gate.json", env!("CARGO_MANIFEST_DIR"))
}

/// One blocking HTTP/1.1 exchange; returns `(status, headers, body)`.
fn http_get(addr: SocketAddr, target: &str) -> Result<(u16, String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: gate\r\n\r\n").as_bytes())
        .map_err(|e| format!("send {target}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv {target}: {e}"))?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{target}: malformed status line in {raw:?}"))?;
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .ok_or_else(|| format!("{target}: no header/body separator"))?;
    Ok((status, headers, body))
}

fn expect_status(addr: SocketAddr, target: &str, want: u16) -> Result<String, String> {
    let (status, _headers, body) = http_get(addr, target)?;
    if status != want {
        return Err(format!(
            "{target}: expected status {want}, got {status} ({body})"
        ));
    }
    Ok(body)
}

/// Extracts the `trace_id` an error body must carry.
fn error_trace_id(target: &str, body: &str) -> Result<String, String> {
    let doc = Json::parse(body).map_err(|e| format!("{target}: body is not JSON: {e}"))?;
    let id = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{target}: error body has no trace_id: {body}"))?;
    if id.len() != 16 || !id.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("{target}: trace_id {id:?} is not 16 hex digits"));
    }
    Ok(id.to_string())
}

fn run() -> Result<(), String> {
    let cache_dir = std::env::temp_dir().join(format!("dlp_serve_gate_{}", std::process::id()));
    let log_path = std::env::temp_dir().join(format!(
        "dlp_serve_gate_access_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_file(&log_path);
    let threads = ThreadCount::from_env().map_err(|e| e.to_string())?;
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            cache_dir: cache_dir.to_string_lossy().into_owned(),
            threads,
            miss_budget_ms: None,
            flight_capacity: 64,
            access_log: AccessLogConfig::Path(log_path.to_string_lossy().into_owned()),
        },
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.addr();
    println!("serve_gate: listening on {addr}");

    let result = (|| {
        expect_status(addr, "/healthz", 200)?;

        // Miss, then hit: byte-identical bodies, exactly one recompute.
        let miss = expect_status(addr, "/v1/dl?circuit=c17&seed=1", 200)?;
        let obs = handle.service().obs();
        if obs.counter_value("serve.recompute") != Some(1) {
            return Err(format!(
                "cold request should recompute exactly once, counted {:?}",
                obs.counter_value("serve.recompute")
            ));
        }
        let hit = expect_status(addr, "/v1/dl?circuit=c17&seed=1", 200)?;
        if miss != hit {
            return Err(format!(
                "hit must replay the miss byte-for-byte\nmiss: {miss}\nhit:  {hit}"
            ));
        }
        if obs.counter_value("serve.cache.hit") != Some(1) {
            return Err("the second request should have been a cache hit".to_string());
        }

        // The miss sealed the sibling artifacts: the fault report for
        // the same circuit answers without another pipeline execution.
        expect_status(addr, "/v1/faults?circuit=c17", 200)?;
        if obs.counter_value("serve.recompute") != Some(1) {
            return Err("the sibling /v1/faults artifact should already be sealed".to_string());
        }

        // A clustered distribution is a distinct artifact: new key,
        // one more recompute, a different body, then byte-stable hits.
        let nb_miss = expect_status(addr, "/v1/dl?circuit=c17&seed=1&dist=nb&alpha=2", 200)?;
        if obs.counter_value("serve.recompute") != Some(2) {
            return Err("the nb-distribution request must recompute under its own key".to_string());
        }
        if nb_miss == miss {
            return Err("nb and poisson projections must differ".to_string());
        }
        if !nb_miss.contains("nb(alpha=2)") {
            return Err(format!("nb body should name its distribution: {nb_miss}"));
        }
        let nb_hit = expect_status(addr, "/v1/dl?circuit=c17&seed=1&dist=nb&alpha=2", 200)?;
        if nb_miss != nb_hit {
            return Err("the nb hit must replay the miss byte-for-byte".to_string());
        }

        // A hit never vouches for bytes it has not read: flip the sealed
        // Poisson artifact in place, same length and with no pause, and
        // the next request must be a typed miss that recomputes the
        // original bytes.
        let netlist = netlist_for("c17").map_err(|e| e.to_string())?;
        let key = artifact_key("dl", &netlist, 1, 0, &dlp_yield::Fallout::poisson());
        let path = handle.service().cache().path_for(key);
        let sealed = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let flipped = sealed.replace("\"circuit\":\"c17\"", "\"circuit\":\"c18\"");
        if flipped == sealed {
            return Err(format!("{path} does not name c17: {sealed}"));
        }
        std::fs::write(&path, flipped).map_err(|e| format!("{path}: {e}"))?;
        let recomputed = expect_status(addr, "/v1/dl?circuit=c17&seed=1", 200)?;
        if recomputed != miss {
            return Err(format!(
                "a corrupted artifact must recompute the original bytes\nmiss:       {miss}\nrecomputed: {recomputed}"
            ));
        }
        if obs.counter_value("serve.cache.corrupt") != Some(1)
            || obs.counter_value("serve.recompute") != Some(3)
        {
            return Err(format!(
                "the corrupted artifact must be one typed miss and one recompute, counted corrupt {:?} recompute {:?}",
                obs.counter_value("serve.cache.corrupt"),
                obs.counter_value("serve.recompute")
            ));
        }

        // A scale-class member projects through the template path...
        let scale = expect_status(addr, "/v1/dl?circuit=c1355&seed=1", 200)?;
        if !scale.contains("\"class\":\"scale\"") {
            return Err(format!("c1355 should be served as scale class: {scale}"));
        }
        let scale_hit = expect_status(addr, "/v1/dl?circuit=c1355&seed=1", 200)?;
        if scale != scale_hit {
            return Err("the scale hit must replay the miss byte-for-byte".to_string());
        }
        // ...and the catalogue advertises both classes.
        let circuits = expect_status(addr, "/v1/circuits", 200)?;
        for needle in ["\"c17\"", "\"c1355\"", "\"full\"", "\"scale\""] {
            if !circuits.contains(needle) {
                return Err(format!("/v1/circuits does not list {needle}: {circuits}"));
            }
        }

        // Client mistakes are typed, not 500s — and every error body
        // carries a trace_id.
        let not_found = expect_status(addr, "/v1/nope", 404)?;
        let lost_trace = error_trace_id("/v1/nope", &not_found)?;
        for (target, want) in [
            ("/v1/dl?circuit=does_not_exist", 404),
            ("/v1/dl", 400),
            ("/v1/dln?circuit=c17&n=99", 400),
            ("/v1/dl?circuit=c17&dist=weibull", 400),
            ("/v1/dl?circuit=c17&dist=nb&alpha=0", 400),
            ("/v1/dl?circuit=c17&dist=nb&alpha=NaN", 400),
            ("/v1/dl?circuit=c17&dist=hier&dies_per_wafer=0", 400),
            ("/v1/dln?circuit=c1355&n=1", 400),
            ("/v1/traces?limit=banana", 400),
            ("/v1/traces?limit=0", 400),
        ] {
            let body = expect_status(addr, target, want)?;
            error_trace_id(target, &body)?;
        }

        // The exposition must satisfy the in-tree OpenMetrics validator,
        // announce the exact OpenMetrics media type, and carry the cache
        // counters this gate just exercised.
        let (status, headers, metrics) = http_get(addr, "/metrics")?;
        if status != 200 {
            return Err(format!("/metrics: expected 200, got {status}"));
        }
        let want_header = format!("Content-Type: {OPENMETRICS_CONTENT_TYPE}");
        if !headers.contains(&want_header) {
            return Err(format!(
                "/metrics must announce {want_header:?}; headers were:\n{headers}"
            ));
        }
        openmetrics::validate(&metrics).map_err(|e| format!("/metrics is invalid: {e}"))?;
        for needle in [
            "serve.cache.hit",
            "serve.cache.miss",
            "serve.cache.corrupt",
            "serve.request_seconds",
        ] {
            if !metrics.contains(needle) {
                return Err(format!("/metrics does not expose {needle}"));
            }
        }

        // The flight recorder saw everything above: dump it, check the
        // 404's trace id round-trips, persist for validate_trace.
        let dump_body = expect_status(addr, "/v1/traces", 200)?;
        let dump =
            Json::parse(&dump_body).map_err(|e| format!("/v1/traces body is not JSON: {e}"))?;
        let traces = dump
            .get("traces")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("/v1/traces has no traces array: {dump_body}"))?;
        if traces.is_empty() {
            return Err("/v1/traces dumped an empty flight recorder".to_string());
        }
        let recorded_ids: Vec<&str> = traces
            .iter()
            .filter_map(|t| t.get("trace_id").and_then(Json::as_str))
            .collect();
        if !recorded_ids.contains(&lost_trace.as_str()) {
            return Err(format!(
                "the 404 trace {lost_trace} is not in the flight dump: {recorded_ids:?}"
            ));
        }
        let trace_path = workspace_trace_path();
        dlp_core::ckpt::atomic_write(&trace_path, &dump_body)
            .map_err(|e| format!("cannot write {trace_path}: {e}"))?;
        println!("serve_gate: wrote {trace_path}");

        // ...and the access log has the same trace id on its own line.
        let log_text = std::fs::read_to_string(&log_path)
            .map_err(|e| format!("cannot read access log: {e}"))?;
        let logged = log_text.lines().any(|line| {
            Json::parse(line)
                .ok()
                .and_then(|doc| doc.get("trace_id").and_then(Json::as_str).map(String::from))
                .is_some_and(|id| id == lost_trace)
        });
        if !logged {
            return Err(format!(
                "the 404 trace {lost_trace} never reached the access log"
            ));
        }
        Ok(())
    })();

    handle.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_file(&log_path);
    result.map(|()| {
        println!(
            "serve_gate: OK — miss/hit byte-identity, corruption after a hit, typed errors, traces, metrics"
        );
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve_gate: {msg}");
            ExitCode::FAILURE
        }
    }
}
