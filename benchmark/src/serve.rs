//! The `serve-mix` workload: the projection service under a seeded mix
//! of cache hits and misses, driven over loopback TCP by one load
//! generator with two threads and at most two open connections.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dlp_core::obs::Json;
use dlp_core::rng::Xorshift64Star;
use dlp_serve::server::ServerHandle;

use crate::flow::common_layers;
use crate::layers;
use crate::spans::{SpanRec, Spans};
use crate::stats::{median, nearest_rank, peak_rss_mb, tail};
use crate::{Metric, Outcome, SETUPS};

/// Open-loop arrival rate of the `low` phase, requests per second:
/// about 20 % of the closed-loop capacity (≈ 850 req/s) measured when the
/// benchmark was introduced, and kept fixed so that runs compare.
pub const LOW_RPS: f64 = 170.0;
/// Open-loop arrival rate of the `high` phase: about 60 % of that capacity.
pub const HIGH_RPS: f64 = 510.0;
/// c17 seeds sealed during set-up; `/v1/dl` and `/v1/curve` at each.
pub const HIT_SEEDS: u64 = 32;
/// Largest n-detect target sealed during set-up.
pub const MAX_N: u64 = 8;
/// Share of requests that miss.
pub const MISS_SHARE: f64 = 0.10;
/// Load-generator threads, each with at most one open connection.
pub const CLIENTS: usize = 2;
/// Shares of `--seconds` spent in the `low`, `high` and closed-loop phases.
pub const PHASES: [f64; 3] = [0.35, 0.40, 0.25];
/// The generator sleeps until this long before a request is due, then spins.
const SPIN: Duration = Duration::from_micros(150);

/// What a request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// A key sealed during set-up, by index.
    Hit(usize),
    /// A fresh c17 seed: `/v1/dl` or `/v1/curve`, optionally clustered.
    Miss {
        /// The fresh seed.
        seed: u64,
        /// `/v1/curve` rather than `/v1/dl`.
        curve: bool,
        /// With `dist=nb&alpha=2`.
        nb: bool,
    },
}

/// One scheduled request: due this many nanoseconds into its phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// Due offset from the phase start.
    pub due_ns: u64,
    /// The request.
    pub kind: Kind,
}

/// Draws the next request of the mix. Fresh seeds come from `fresh`, so
/// no two misses share a key.
fn draw(rng: &mut Xorshift64Star, keys: usize, fresh: &AtomicU64) -> Kind {
    if rng.next_f64() < MISS_SHARE {
        Kind::Miss {
            seed: fresh.fetch_add(1, Ordering::Relaxed),
            curve: rng.next_bool(),
            nb: rng.next_below(4) == 0,
        }
    } else {
        Kind::Hit(rng.next_below(keys))
    }
}

/// The seeded open-loop schedule of one phase: exponential
/// inter-arrival times at `rate` for `seconds`.
pub fn schedule(
    seed: u64,
    phase: u64,
    rate: f64,
    seconds: f64,
    keys: usize,
    fresh: &AtomicU64,
) -> Vec<Planned> {
    let mut rng = Xorshift64Star::split(seed, phase);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Planned {
            due_ns: (t * 1e9) as u64,
            kind: draw(&mut rng, keys, fresh),
        });
    }
}

/// First seed of the hit keys; misses use seeds from `base + 2^19` up.
fn seed_base(seed: u64) -> u64 {
    (seed % (1 << 30)) << 20
}

fn target(kind: &Kind, keys: &[Sealed]) -> String {
    match kind {
        Kind::Hit(i) => keys[*i].target.clone(),
        Kind::Miss { seed, curve, nb } => format!(
            "/v1/{}?circuit=c17&seed={seed}{}",
            if *curve { "curve" } else { "dl" },
            if *nb { "&dist=nb&alpha=2" } else { "" }
        ),
    }
}

/// One GET over a fresh connection: (status, body).
fn get(addr: SocketAddr, target: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(|e| format!("send {target}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("recv {target}: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{target}: no header end"))?;
    let status = std::str::from_utf8(&raw[..split.min(12)])
        .ok()
        .and_then(|s| s.strip_prefix("HTTP/1.1 "))
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{target}: malformed status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// A key sealed during set-up and the body it must replay.
#[derive(Debug, Clone)]
pub struct Sealed {
    /// Request target.
    pub target: String,
    /// The body served when it was sealed.
    pub body: Vec<u8>,
}

/// A running server with its sealed keys.
struct Server {
    handle: ServerHandle,
    dir: String,
    keys: Vec<Sealed>,
}

impl Server {
    fn stop(self) {
        self.handle.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: a server with a fresh cache, then the hit keys sealed: c17
/// `/v1/dl` at [`HIT_SEEDS`] seeds (which also seals `/v1/curve` and
/// `/v1/faults`) and `/v1/dln` for n = 1..=[`MAX_N`].
fn setup(seed: u64, traced: bool, index: usize) -> Result<Server, String> {
    let dir = format!(
        "{}/out/serve-cache-{}-{index}",
        env!("CARGO_MANIFEST_DIR"),
        std::process::id()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let handle = layers::start_server(&dir, traced)?;
    let server = Server {
        handle,
        dir,
        keys: Vec::new(),
    };
    match seal(server.handle.addr(), seed) {
        Ok(keys) => Ok(Server { keys, ..server }),
        Err(e) => {
            server.stop();
            Err(e)
        }
    }
}

fn seal(addr: SocketAddr, seed: u64) -> Result<Vec<Sealed>, String> {
    let mut targets = Vec::new();
    for s in 0..HIT_SEEDS {
        let s = seed_base(seed) + s;
        targets.push(format!("/v1/dl?circuit=c17&seed={s}"));
        targets.push(format!("/v1/curve?circuit=c17&seed={s}"));
    }
    targets.push("/v1/faults?circuit=c17".to_string());
    targets.extend((1..=MAX_N).map(|n| format!("/v1/dln?circuit=c17&n={n}")));
    targets
        .into_iter()
        .map(|target| match get(addr, &target)? {
            (200, body) => Ok(Sealed { target, body }),
            (status, _) => Err(format!("set-up {target}: status {status}")),
        })
        .collect()
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
struct Done {
    hit: bool,
    ok: bool,
    latency_ns: u64,
    late_ns: u64,
    backlog: usize,
}

/// Whether a response is correct: a hit replays its sealed body byte
/// for byte; a miss answers 200 with JSON echoing its circuit and seed.
fn check(kind: &Kind, keys: &[Sealed], got: &Result<(u16, Vec<u8>), String>) -> bool {
    let Ok((status, body)) = got else {
        return false;
    };
    match kind {
        Kind::Hit(i) => *status == 200 && *body == keys[*i].body,
        Kind::Miss { seed, .. } => {
            *status == 200
                && std::str::from_utf8(body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                    .is_some_and(|j| {
                        j.get("circuit").and_then(Json::as_str) == Some("c17")
                            && j.get("seed").and_then(Json::as_f64) == Some(*seed as f64)
                    })
        }
    }
}

/// Runs an open-loop phase: each generator thread takes the next
/// scheduled request, waits until it is due (or sends at once when
/// late), and times it from its due time.
fn open_loop(
    addr: SocketAddr,
    keys: &[Sealed],
    plan: &[Planned],
    spans: &Spans,
    op0: u64,
) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(p) = plan.get(i) else { break };
                let due = start + Duration::from_nanos(p.due_ns);
                wait_until(due);
                let sent = Instant::now();
                let since =
                    u64::try_from(sent.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
                let backlog = plan
                    .partition_point(|q| q.due_ns <= since)
                    .saturating_sub(i + 1);
                let got = get(addr, &target(&p.kind, keys));
                let end = Instant::now();
                let ok = check(&p.kind, keys, &got);
                record_request(spans, &p.kind, due, end, op0 + i as u64);
                done.lock().expect("result list poisoned").push(Done {
                    hit: matches!(p.kind, Kind::Hit(_)),
                    ok,
                    latency_ns: nanos(end.duration_since(due)),
                    late_ns: nanos(sent.saturating_duration_since(due)),
                    backlog,
                });
            });
        }
    });
    done.into_inner().expect("result list poisoned")
}

/// Runs the closed loop: each generator thread sends its next request
/// when the previous one completes, until `seconds` have passed.
fn closed_loop(
    addr: SocketAddr,
    keys: &[Sealed],
    seed: u64,
    seconds: f64,
    fresh: &AtomicU64,
) -> (Vec<Done>, f64) {
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let done = &done;
            scope.spawn(move || {
                let mut rng = Xorshift64Star::split(seed, 16 + client as u64);
                while Instant::now() < stop {
                    let kind = draw(&mut rng, keys.len(), fresh);
                    let sent = Instant::now();
                    let got = get(addr, &target(&kind, keys));
                    let ok = check(&kind, keys, &got);
                    done.lock().expect("result list poisoned").push(Done {
                        hit: matches!(kind, Kind::Hit(_)),
                        ok,
                        latency_ns: nanos(sent.elapsed()),
                        late_ns: 0,
                        backlog: 0,
                    });
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (done.into_inner().expect("result list poisoned"), elapsed)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn record_request(spans: &Spans, kind: &Kind, due: Instant, end: Instant, op: u64) {
    spans.record(SpanRec {
        name: if matches!(kind, Kind::Hit(_)) {
            "request.hit"
        } else {
            "request.miss"
        },
        start: spans.offset(due),
        end: spans.offset(end),
        parent: None,
        op,
    });
}

/// Latencies in ms of the hits or the misses of a phase.
fn latencies(done: &[Done], hit: bool) -> Vec<f64> {
    let mut v: Vec<f64> = done
        .iter()
        .filter(|d| d.hit == hit)
        .map(|d| d.latency_ns as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `sorted` in ms, or with `high` the highest percentile
/// that has ten samples beyond it; annotated with the percentile, the
/// sample count and the samples beyond it.
fn percentile(name: &str, sorted: &[f64], high: bool) -> Metric {
    let at = if high {
        tail(sorted)
    } else {
        nearest_rank(sorted, 50.0).map(|(v, beyond)| (50.0, v, beyond))
    };
    let (p, value, beyond) = at.unwrap_or((f64::NAN, f64::NAN, 0));
    Metric::new(name, value, "ms")
        .with_count(sorted.len(), beyond)
        .with_note(&format!("p{p}"))
}

/// The OpenMetrics samples of a `/metrics` scrape, by series.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics: status {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Runs `serve-mix` for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    run_phases(seed, seconds, trace, &PHASES)
}

/// The `--smoke` profile: `seconds` of the `low` phase only.
pub fn smoke(seed: u64, seconds: f64) -> Outcome {
    run_phases(seed, seconds, false, &[1.0, 0.0, 0.0])
}

fn run_phases(seed: u64, seconds: f64, trace: bool, phases: &[f64; 3]) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for index in 0..SETUPS {
        let started = Instant::now();
        match setup(seed, trace, index) {
            Ok(s) => {
                setups.push(started.elapsed().as_secs_f64());
                if let Some(old) = server.replace(s) {
                    old.stop();
                }
            }
            Err(e) => {
                if let Some(old) = server {
                    old.stop();
                }
                return Outcome::failed(&format!("serve-mix: set-up: {e}"));
            }
        }
    }
    let server = server.expect("SETUPS is non-zero");
    let out = measure(&server, seed, seconds, trace, phases, median(&setups));
    server.stop();
    out
}

fn measure(
    server: &Server,
    seed: u64,
    seconds: f64,
    trace: bool,
    phases: &[f64; 3],
    setup_s: f64,
) -> Outcome {
    let addr = server.handle.addr();
    let keys = &server.keys;
    let spans = if trace { Spans::on() } else { Spans::off() };
    let before = if trace { scrape(addr).ok() } else { None };
    let fresh = AtomicU64::new(seed_base(seed) + (1 << 19));
    let low_plan = schedule(seed, 0, LOW_RPS, seconds * phases[0], keys.len(), &fresh);
    let high_plan = schedule(seed, 1, HIGH_RPS, seconds * phases[1], keys.len(), &fresh);
    let low = open_loop(addr, keys, &low_plan, &spans, 0);
    let high = open_loop(addr, keys, &high_plan, &spans, low_plan.len() as u64);
    let (closed, closed_s) = if phases[2] > 0.0 {
        closed_loop(addr, keys, seed, seconds * phases[2], &fresh)
    } else {
        (Vec::new(), 1.0)
    };

    let all: Vec<&Done> = low.iter().chain(&high).chain(&closed).collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|d| !d.ok).count() as u64;
    let capacity = closed.len() as f64 / closed_s;
    let digest = sealed_digest(keys);
    let pinned = crate::pinned("serve-mix", seed);
    let digest_ok = pinned.is_none_or(|p| p == digest);
    if !digest_ok {
        eprintln!(
            "serve-mix: digest {digest:016x} does not match the pinned {:016x}",
            pinned.unwrap_or(0)
        );
    }
    let failed = failed + u64::from(!digest_ok);
    let late: Vec<f64> = {
        let mut v: Vec<f64> = low
            .iter()
            .chain(&high)
            .map(|d| d.late_ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let max_backlog = low
        .iter()
        .chain(&high)
        .map(|d| d.backlog)
        .max()
        .unwrap_or(0);

    let mut details = Vec::new();
    for (phase, done) in [("low", &low), ("high", &high)] {
        if done.is_empty() {
            continue;
        }
        let hits = latencies(done, true);
        let misses = latencies(done, false);
        details.push(percentile(&format!("hit_p50_ms.{phase}"), &hits, false));
        details.push(percentile(&format!("hit_tail_ms.{phase}"), &hits, true));
        details.push(percentile(&format!("miss_p50_ms.{phase}"), &misses, false));
        details.push(percentile(&format!("miss_tail_ms.{phase}"), &misses, true));
    }
    details.push(Metric::new("capacity_rps", capacity, "req/s"));
    details.push(Metric::new(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    details.push(percentile("loadgen.late_ms_tail", &late, true));
    details.push(Metric::new(
        "loadgen.max_backlog",
        max_backlog as f64,
        "count",
    ));

    let mut out = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        digest: Some(digest),
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("latency_ms", median(&latencies(&low, true)), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        ],
        details,
        layers: Vec::new(),
        layer_details: Vec::new(),
        trace: None,
    };
    if trace {
        match serve_layers(addr, before.as_ref(), &all, &spans, &out.details) {
            Ok((layers, layer_details, json)) => {
                out.layers = layers;
                out.layer_details = layer_details;
                out.trace = Some(json);
            }
            Err(e) => {
                eprintln!("serve-mix: trace: {e}");
                out.correct = false;
                out.failed += 1;
            }
        }
    }
    out
}

/// FNV-1a over every sealed target and body.
fn sealed_digest(keys: &[Sealed]) -> u64 {
    let mut h = dlp_core::ckpt::KeyHasher::new();
    for k in keys {
        h.write_bytes(k.target.as_bytes());
        h.write_bytes(&k.body);
    }
    h.finish()
}

/// The per-layer metrics of a traced run, from the `/metrics` samples
/// the measured phases added: the flow layers per miss, the cache, and
/// the load generator.
fn serve_layers(
    addr: SocketAddr,
    before: Option<&BTreeMap<String, f64>>,
    done: &[&Done],
    spans: &Spans,
    details: &[Metric],
) -> Result<(Vec<Metric>, Vec<Metric>, Json), String> {
    let after = scrape(addr)?;
    let before = before.ok_or("no /metrics scrape before the phases")?;
    let delta = |key: &str| {
        after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
    };
    let span_ns = |name: &str| delta(&format!("dlp_span_nanos_total{{span=\"{name}\"}}"));
    let count = |name: &str| delta(&format!("dlp_counter_total{{name=\"{name}\"}}"));
    let misses = delta("dlp_span_runs_total{span=\"layout\"}").max(1.0);
    let hist = |cache: &str, field: &str| -> f64 {
        after
            .iter()
            .filter(|(k, _)| {
                k.starts_with(&format!(
                    "dlp_hist_{field}{{name=\"serve.request_seconds\","
                )) && k.contains(&format!("cache=\"{cache}\""))
            })
            .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
            .sum()
    };
    let service_ms = |cache: &str| 1e3 * hist(cache, "sum") / hist(cache, "count");
    let client_hit_ms = {
        let hits: Vec<f64> = done
            .iter()
            .filter(|d| d.hit)
            .map(|d| d.latency_ns as f64 / 1e6)
            .collect();
        hits.iter().sum::<f64>() / hits.len().max(1) as f64
    };
    let (hits, miss_count) = (count("serve.cache.hit"), count("serve.cache.miss"));

    let common = common_layers(&|name| span_ns(name) / 1e9 / misses, &|name| {
        count(name) / misses
    });
    // Two chunks on two workers: the slower chunk sets the stage's time.
    let workers = |what: &str| -> Vec<f64> {
        (0..layers::SERVE_THREADS)
            .map(|i| count(&format!("sim.switch.worker{i}.{what}_nanos")))
            .collect()
    };
    let busy = workers("busy");
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    let mut extra = vec![
        Metric::new(
            "sim.switch.worker_wait_s",
            workers("wait").iter().sum::<f64>() / 1e9 / misses,
            "s",
        ),
        Metric::new(
            "sim.switch.imbalance",
            busy.iter().copied().fold(0.0, f64::max) / mean_busy,
            "ratio",
        ),
        Metric::new("serve.cache.hit_ratio", hits / (hits + miss_count), "ratio")
            .with_note(&format!("{hits} hits, {miss_count} misses")),
        Metric::new(
            "serve.recompute",
            delta("dlp_span_runs_total{span=\"recompute\"}"),
            "count",
        ),
        Metric::new("serve.hit.service_ms_mean", service_ms("hit"), "ms"),
        Metric::new("serve.miss.service_ms_mean", service_ms("miss"), "ms"),
        Metric::new(
            "serve.hit.wait_ms_mean",
            client_hit_ms - service_ms("hit"),
            "ms",
        ),
    ];
    extra.extend(
        details
            .iter()
            .filter(|d| d.name.starts_with("loadgen."))
            .cloned(),
    );

    let stage_ns: f64 = ["layout", "extract", "atpg", "sim.gate", "sim.switch"]
        .iter()
        .map(|s| span_ns(s))
        .sum();
    let mut self_times: Vec<Metric> = ["http.parse", "route", "cache.probe", "seal", "write"]
        .iter()
        .chain(&["layout", "extract", "atpg", "sim.gate", "sim.switch"])
        .map(|&n| Metric::new(&format!("{n}.self_s"), span_ns(n) / 1e9, "s"))
        .collect();
    self_times.push(Metric::new(
        "recompute.self_s",
        (span_ns("recompute") - stage_ns) / 1e9,
        "s",
    ));
    let mut json =
        crate::trace_document("serve-mix", &common, &extra, &self_times, &spans.snapshot());
    let (status, traces) = get(addr, "/v1/traces?limit=16")?;
    if status != 200 {
        return Err(format!("/v1/traces: status {status}"));
    }
    let traces = Json::parse(&String::from_utf8_lossy(&traces)).map_err(|e| e.to_string())?;
    if let Json::Object(fields) = &mut json {
        fields.push(("flight_recorder".to_string(), traces));
    }
    Ok((common, extra, json))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let plan = |seed| schedule(seed, 1, 600.0, 2.0, 100, &AtomicU64::new(7));
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4));
        let p = plan(3);
        assert!(p.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // ≈ 1200 arrivals, ≈ 10 % of them misses on distinct seeds.
        assert!((1000..1400).contains(&p.len()), "{}", p.len());
        let misses: Vec<u64> = p
            .iter()
            .filter_map(|q| match q.kind {
                Kind::Miss { seed, .. } => Some(seed),
                Kind::Hit(_) => None,
            })
            .collect();
        assert!((80..170).contains(&misses.len()), "{}", misses.len());
        assert!(misses.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lateness_and_backlog_count_from_the_due_time() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A server that answers each connection after 20 ms, so a
        // schedule of six requests all due at once runs late.
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(6) {
                let mut stream = stream.expect("accept");
                let mut buf = [0u8; 256];
                let _ = stream.read(&mut buf);
                std::thread::sleep(Duration::from_millis(20));
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\n\r\n{}");
            }
        });
        let keys = vec![Sealed {
            target: "/k".to_string(),
            body: b"{}".to_vec(),
        }];
        let plan: Vec<Planned> = (0..6)
            .map(|_| Planned {
                due_ns: 0,
                kind: Kind::Hit(0),
            })
            .collect();
        let done = open_loop(addr, &keys, &plan, &Spans::off(), 0);
        server.join().expect("server thread");
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|d| d.ok));
        let mut late: Vec<u64> = done.iter().map(|d| d.late_ns).collect();
        late.sort_unstable();
        // Two connections: the last pair waits for two earlier rounds.
        assert!(late[5] >= 35_000_000, "{late:?}");
        assert!(done.iter().all(|d| d.latency_ns >= d.late_ns + 20_000_000));
        // When the first request goes out, the other five are already due.
        assert_eq!(done.iter().map(|d| d.backlog).max(), Some(5));
    }
}
