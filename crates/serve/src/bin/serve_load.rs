//! Latency benchmark for the projection service: cold misses versus
//! warm cache hits under concurrent clients.
//!
//! Starts the server on an ephemeral port with a fresh cache, then:
//!
//! 1. **cold** — `/v1/dl` on the c432-class circuit at distinct seeds,
//!    each a guaranteed miss. The first (`serve/cold_miss/c432`) runs
//!    the full pipeline, layout and extraction included; the later ones
//!    (`serve/fresh_seed_miss/c432`) reuse the service's memoised
//!    extraction and pay for ATPG and simulation only;
//! 2. **warm** — concurrent client threads hammer one already-sealed
//!    key and record per-request latency.
//!
//! Writes `BENCH_serve.json` at the workspace root in the versioned
//! [`BenchReport`] schema — raw sample lists for the timed entries plus
//! derived p50/p90/p99 and hit-rate scalars — and **fails** unless the
//! warm-hit p99 beats the first cold miss by at least
//! [`REQUIRED_SPEEDUP`]x: a content-addressed cache whose replay is not
//! dramatically cheaper than recomputation is mis-built. The report
//! carries the standard `calibration/spin` entry, so `perf_regress
//! --current BENCH_serve.json` can gate it against a committed
//! baseline.
//!
//! `--smoke` shrinks the profile for CI — one fresh-seed miss instead
//! of three, fewer warm requests; labels are unchanged, so smoke
//! reports compare against the same baseline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Instant;

use dlp_bench::regress::{calibration_spin, sample_ns, CALIBRATION_LABEL, TIMED_UNIT};
use dlp_core::obs::BenchReport;
use dlp_core::par::ThreadCount;
use dlp_serve::server::{serve, ServerConfig, ServerHandle};
use dlp_serve::service::ServiceConfig;

/// The warm-hit p99 must be at least this many times cheaper than the
/// first cold miss (the acceptance bar for the artifact cache).
pub const REQUIRED_SPEEDUP: f64 = 20.0;

/// Distinct seeds driven cold. The first seed's miss computes the
/// extraction stage; the rest are fresh-seed misses that reuse it,
/// three so their timed entry carries a noise floor. The smoke profile
/// drives the first two.
const COLD_SEEDS: [u64; 4] = [11, 12, 13, 14];

fn workspace_report_path() -> String {
    format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR"))
}

fn http_get(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: load\r\n\r\n").as_bytes())
        .map_err(|e| format!("send {target}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv {target}: {e}"))?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{target}: malformed status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| format!("{target}: no body separator"))?;
    Ok((status, body))
}

/// One timed request that must answer 200; returns (latency ns, body).
fn timed_get(addr: SocketAddr, target: &str) -> Result<(f64, String), String> {
    let t0 = Instant::now();
    let (status, body) = http_get(addr, target)?;
    let nanos = t0.elapsed().as_nanos() as f64;
    if status != 200 {
        return Err(format!("{target}: status {status} ({body})"));
    }
    Ok((nanos, body))
}

/// The q-quantile of an unsorted sample set (nearest-rank on a copy).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

fn run(smoke: bool) -> Result<(), String> {
    let (clients, requests_per_client) = if smoke { (2, 16) } else { (4, 64) };
    let cold_seeds = if smoke {
        &COLD_SEEDS[..2]
    } else {
        &COLD_SEEDS[..]
    };

    let cache_dir = std::env::temp_dir().join(format!("dlp_serve_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let threads = ThreadCount::from_env().map_err(|e| e.to_string())?;
    let handle: ServerHandle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            cache_dir: cache_dir.to_string_lossy().into_owned(),
            threads,
            miss_budget_ms: None,
            // Tracing stays ON for the benchmark: the 20x warm-hit gate
            // below is also the overhead gate for the flight recorder.
            flight_capacity: dlp_serve::service::DEFAULT_FLIGHT_CAPACITY,
            access_log: dlp_serve::AccessLogConfig::Off,
        },
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.addr();
    println!(
        "serve_load: {} profile against {addr} ({clients} clients x {requests_per_client} warm requests)",
        if smoke { "smoke" } else { "full" }
    );

    let result = (|| {
        // Cold: each seed is a distinct cache key, so every request
        // recomputes; only the first lays out and extracts c432-class.
        let mut cold_ns = Vec::new();
        let mut warm_body = String::new();
        for &seed in cold_seeds {
            let (nanos, body) = timed_get(addr, &format!("/v1/dl?circuit=c432&seed={seed}"))?;
            cold_ns.push(nanos);
            if seed == COLD_SEEDS[0] {
                warm_body = body;
            }
        }
        let (first_ns, fresh_ns) = cold_ns.split_at(1);

        // Warm: concurrent clients replaying the first seed's artifact.
        let warm_target = format!("/v1/dl?circuit=c432&seed={}", COLD_SEEDS[0]);
        let mut warm_ns: Vec<f64> = Vec::new();
        let lat_results: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let target = warm_target.clone();
                    let warm_body = &warm_body;
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(requests_per_client);
                        for _ in 0..requests_per_client {
                            let (nanos, body) = timed_get(addr, &target)?;
                            if body != *warm_body {
                                return Err("warm hit did not replay the cold miss byte-for-byte"
                                    .to_string());
                            }
                            latencies.push(nanos);
                        }
                        Ok(latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        for r in lat_results {
            warm_ns.extend(r?);
        }

        let obs = handle.service().obs();
        let hits = obs.counter_value("serve.cache.hit").unwrap_or(0) as f64;
        let misses = obs.counter_value("serve.cache.miss").unwrap_or(0) as f64;
        let hit_rate = hits / (hits + misses).max(1.0);

        let first = first_ns[0];
        let fresh_best = fresh_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let p50 = quantile(&warm_ns, 0.50);
        let p90 = quantile(&warm_ns, 0.90);
        let p99 = quantile(&warm_ns, 0.99);
        let speedup = first / p99;

        let mut report = BenchReport::new("serve_load");
        report.record_samples(CALIBRATION_LABEL, TIMED_UNIT, &sample_ns(calibration_spin));
        report.record_samples("serve/cold_miss/c432", "ns/iter", first_ns);
        report.record_samples("serve/fresh_seed_miss/c432", "ns/iter", fresh_ns);
        report.record_samples("serve/warm_hit/c432", "ns/iter", &warm_ns);
        report.record("serve/warm_p50", "ns", p50);
        report.record("serve/warm_p90", "ns", p90);
        report.record("serve/warm_p99", "ns", p99);
        report.record("serve/hit_rate", "fraction", hit_rate);
        report.record("serve/hit_speedup_p99", "x", speedup);
        let path = workspace_report_path();
        report
            .write_to(&path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;

        println!(
            "serve_load: first miss {:.1} ms | fresh-seed best {:.1} ms | warm p50 {:.0} us, \
             p90 {:.0} us, p99 {:.0} us | hit rate {:.3} | p99 speedup {speedup:.0}x",
            first / 1e6,
            fresh_best / 1e6,
            p50 / 1e3,
            p90 / 1e3,
            p99 / 1e3,
            hit_rate
        );
        println!("serve_load: wrote {path}");

        if speedup < REQUIRED_SPEEDUP {
            return Err(format!(
                "warm-hit p99 is only {speedup:.1}x cheaper than the first cold miss \
                 (required: {REQUIRED_SPEEDUP}x) — the artifact cache is not paying for itself"
            ));
        }
        Ok(())
    })();

    handle.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

fn main() -> ExitCode {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    match run(smoke) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve_load: {msg}");
            ExitCode::FAILURE
        }
    }
}
