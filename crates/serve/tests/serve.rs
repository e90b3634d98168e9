//! End-to-end contracts of the projection service, driven on the cheap
//! c17 circuit so the full pipeline runs in debug-mode test time:
//!
//! - **single-flight**: two concurrent misses for one key produce
//!   exactly one recompute and byte-identical responses;
//! - **hit/miss identity**: a hit replays the miss byte-for-byte;
//! - **thread determinism**: services pinned to 1 and 4 simulation
//!   threads produce identical bytes for every endpoint;
//! - **corruption**: a damaged cache envelope is a typed miss that
//!   recomputes to the original bytes (and `open_strict` surfaces the
//!   typed error);
//! - **sibling sealing**: one `/v1/dl` miss also seals `/v1/curve` and
//!   `/v1/faults`;
//! - **stage reuse**: misses after the first reuse the circuit's
//!   memoised extraction and answer byte-for-byte what a fresh service
//!   answers;
//! - **stable keys**: artifact keys are pinned, so a change to how they
//!   are computed cannot orphan a deployed cache;
//! - **verified replay**: a hit that replays remembered bytes still sees
//!   a deletion, truncation or same-length corruption on the next
//!   request.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlp_core::par::ThreadCount;
use dlp_serve::accesslog::AccessLogConfig;
use dlp_serve::cache::CacheLookup;
use dlp_serve::http::Request;
use dlp_serve::service::{
    artifact_key, fallout_param, netlist_for, query_params, Service, ServiceConfig,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlp_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(tag: &str, threads: usize) -> Service {
    Service::new(&ServiceConfig {
        cache_dir: tmp_dir(tag).to_string_lossy().into_owned(),
        threads: ThreadCount::fixed(threads).expect("thread count"),
        miss_budget_ms: None,
        flight_capacity: 32,
        access_log: AccessLogConfig::Off,
    })
    .expect("service")
}

fn get(target: &str) -> Request {
    Request {
        method: "GET".to_string(),
        target: target.to_string(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// The cache file behind `/v1/dl?circuit=c17&seed={seed}`.
fn c17_dl_path(service: &Service, seed: u64) -> String {
    let netlist = netlist_for("c17").expect("catalogue circuit");
    let key = artifact_key("dl", &netlist, seed, 0, &dlp_yield::Fallout::poisson());
    service.cache().path_for(key)
}

fn body_text(service: &Service, target: &str) -> String {
    let response = service.handle(&get(target));
    assert_eq!(
        response.status,
        200,
        "{target}: {}",
        String::from_utf8_lossy(&response.body)
    );
    String::from_utf8(response.body).expect("utf-8 body")
}

#[test]
fn concurrent_misses_recompute_exactly_once_with_identical_bytes() {
    let service = Arc::new(service("race", 1));
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                scope.spawn(move || body_text(&service, "/v1/dl?circuit=c17&seed=3"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(
        bodies[0], bodies[1],
        "racing requests must agree byte-for-byte"
    );
    assert_eq!(
        service.obs().counter_value("serve.recompute"),
        Some(1),
        "exactly one of the two racing misses may execute the pipeline"
    );
    assert_eq!(service.obs().counter_value("serve.cache.miss"), Some(2));
}

#[test]
fn hits_replay_misses_byte_for_byte() {
    let service = service("hit", 1);
    let miss = body_text(&service, "/v1/dl?circuit=c17&seed=5");
    let hit = body_text(&service, "/v1/dl?circuit=c17&seed=5");
    assert_eq!(miss, hit);
    assert_eq!(service.obs().counter_value("serve.cache.hit"), Some(1));
    assert_eq!(service.obs().counter_value("serve.recompute"), Some(1));
    // The body is well-formed JSON with the projection fields.
    let parsed = dlp_core::obs::Json::parse(&hit).expect("valid JSON");
    assert_eq!(
        parsed
            .get("circuit")
            .and_then(|c| c.as_str().map(String::from)),
        Some("c17".to_string())
    );
    for field in ["theta", "dl", "dl_ppm", "vectors"] {
        assert!(
            parsed.get(field).and_then(|v| v.as_f64()).is_some(),
            "missing numeric field {field}"
        );
    }
}

#[test]
fn responses_are_identical_across_simulation_thread_counts() {
    let one = service("t1", 1);
    let four = service("t4", 4);
    for target in [
        "/v1/dl?circuit=c17&seed=2",
        "/v1/curve?circuit=c17&seed=2",
        "/v1/faults?circuit=c17",
        "/v1/dln?circuit=c17&n=2",
    ] {
        assert_eq!(
            body_text(&one, target),
            body_text(&four, target),
            "{target} must not depend on the worker count"
        );
    }
    // The non-timing trace content is deterministic too: same ids,
    // labels, and span tree shape regardless of the simulation thread
    // count (trace ids depend only on the target and sequence number).
    let project = |service: &Service| -> Vec<_> {
        service
            .flight()
            .snapshot()
            .into_iter()
            .map(|r| {
                let name_of = |id: u64| {
                    r.spans
                        .iter()
                        .find(|s| s.id == id)
                        .map(|s| s.name.clone())
                        .unwrap_or_default()
                };
                let mut tree: Vec<(String, String)> = r
                    .spans
                    .iter()
                    .map(|s| (s.parent.map(name_of).unwrap_or_default(), s.name.clone()))
                    .collect();
                tree.sort();
                (r.trace_id, r.seq, r.endpoint, r.cache, r.status, tree)
            })
            .collect()
    };
    assert_eq!(
        project(&one),
        project(&four),
        "deterministic trace content must not depend on the worker count"
    );
}

#[test]
fn concurrent_requests_keep_isolated_traces_and_additive_counters() {
    let service = Arc::new(service("iso", 1));
    // Seed one sealed artifact sequentially, then race two hits on it
    // against two distinct-seed misses.
    let sealed = body_text(&service, "/v1/dl?circuit=c17&seed=21");
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = [
            "/v1/dl?circuit=c17&seed=21",
            "/v1/dl?circuit=c17&seed=21",
            "/v1/dl?circuit=c17&seed=22",
            "/v1/dl?circuit=c17&seed=23",
        ]
        .into_iter()
        .map(|target| {
            let service = Arc::clone(&service);
            scope.spawn(move || body_text(&service, target))
        })
        .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(bodies[0], sealed);
    assert_eq!(bodies[1], sealed);

    let records = service.flight().snapshot();
    assert_eq!(records.len(), 5, "every request leaves exactly one trace");
    let mut ids: Vec<u64> = records.iter().map(|r| r.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 5, "trace ids must be unique");

    for r in &records {
        let roots = r.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 1, "trace {} must have exactly one root", r.seq);
        assert_eq!(r.spans[0].name, "request");
        assert_eq!(r.counter("serve.requests"), 1, "no cross-request bleed");
        match r.cache.as_str() {
            "hit" => {
                assert_eq!(
                    r.counter("serve.recompute"),
                    0,
                    "a hit must not absorb a concurrent miss's recompute"
                );
                assert!(
                    !r.spans.iter().any(|s| s.name == "recompute"),
                    "a hit trace must not carry a recompute span"
                );
            }
            "miss" => {
                assert_eq!(r.counter("serve.recompute"), 1);
                // Pipeline stages nest where they ran: `atpg` under
                // `recompute` on every miss; `extract` under `recompute`,
                // its sub-passes under `extract`, only on the sequential
                // seed-21 miss that computed the stage. The racing
                // misses reuse it.
                let parent_name = |name: &str| {
                    let span = r.spans.iter().find(|s| s.name == name);
                    let parent = span.and_then(|s| s.parent).expect("non-root span");
                    r.spans[parent as usize].name.clone()
                };
                assert_eq!(parent_name("atpg"), "recompute");
                if r.seq == 0 {
                    assert_eq!(r.counter("serve.stage.compute"), 1);
                    assert_eq!(r.counter("serve.stage.reuse"), 0);
                    assert_eq!(parent_name("extract"), "recompute");
                    assert_eq!(parent_name("extract.bridges"), "extract");
                } else {
                    assert_eq!(r.counter("serve.stage.compute"), 0);
                    assert_eq!(r.counter("serve.stage.reuse"), 1);
                    assert!(
                        !r.spans
                            .iter()
                            .any(|s| s.name == "layout" || s.name == "extract"),
                        "trace {}: a reusing miss must not lay out or extract",
                        r.seq
                    );
                }
                // The root's direct children account for the request:
                // the span tree explains at least 90% of the wall time.
                let root = &r.spans[0];
                let covered: u64 = r
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(root.id))
                    .map(|s| s.nanos)
                    .sum();
                assert!(
                    covered as f64 >= 0.9 * root.nanos as f64,
                    "trace {}: children cover {covered} of {} root nanos",
                    r.seq,
                    root.nanos
                );
            }
            other => panic!("unexpected cache disposition {other}"),
        }
    }
    assert_eq!(records.iter().filter(|r| r.cache == "hit").count(), 2);
    assert_eq!(records.iter().filter(|r| r.cache == "miss").count(), 3);

    // The global recorder is exactly the sum of the per-request
    // recorders: merged counters equal the per-trace counter sums.
    let global = service.obs().report("iso");
    for (name, value) in &global.counters {
        if name == "obs.series_dropped_points" {
            continue;
        }
        let summed: u64 = records.iter().map(|r| r.counter(name)).sum();
        assert_eq!(
            *value, summed,
            "{name}: global merge must equal the per-request sum"
        );
    }
}

#[test]
fn misses_reusing_the_stage_answer_what_a_fresh_service_answers() {
    let reused = service("stage_reused", 1);
    let targets = [
        "/v1/dl?circuit=c17&seed=1",
        "/v1/dl?circuit=c17&seed=2&dist=nb&alpha=2",
        "/v1/curve?circuit=c17&seed=3",
        "/v1/curve?circuit=c17&seed=4&dist=hier",
        "/v1/faults?circuit=c17",
        "/v1/dl?circuit=c17&seed=5",
        "/v1/dln?circuit=c17&n=1",
        "/v1/dln?circuit=c17&n=3",
        "/v1/dln?circuit=c17&n=8",
    ];
    for (i, target) in targets.iter().enumerate() {
        let fresh = service(&format!("stage_fresh{i}"), 1);
        assert_eq!(
            body_text(&reused, target),
            body_text(&fresh, target),
            "{target}: a reused stage must not change the response"
        );
        assert_eq!(fresh.obs().counter_value("serve.stage.compute"), Some(1));
    }
    // `/v1/faults` replays the artifact the seed-1 miss sealed; every
    // other target misses, and only the first computes the stage.
    let obs = reused.obs();
    assert_eq!(obs.counter_value("serve.recompute"), Some(8));
    assert_eq!(obs.counter_value("serve.stage.compute"), Some(1));
    assert_eq!(obs.counter_value("serve.stage.reuse"), Some(7));
    let report = obs.report("stage");
    let runs = |name: &str| {
        report
            .spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.count)
    };
    assert_eq!(runs("layout"), Some(1));
    assert_eq!(runs("extract"), Some(1));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "lays out c432-class; scripts/check.sh runs it in release"
)]
fn c432_and_the_scale_path_share_one_extraction() {
    let service = service("stage_c432", 2);
    let _ = body_text(&service, "/v1/dl?circuit=c432&seed=1");
    let _ = body_text(&service, "/v1/dl?circuit=c1355&seed=1");
    let obs = service.obs();
    assert_eq!(obs.counter_value("serve.recompute"), Some(2));
    assert_eq!(
        obs.counter_value("serve.stage.compute"),
        Some(1),
        "the scale template must reuse the c432 miss's extraction"
    );
    assert_eq!(obs.counter_value("serve.stage.reuse"), Some(1));
}

#[test]
fn http_parse_is_the_first_child_of_the_request_it_precedes() {
    let service = service("parse", 1);
    let target = "/v1/dl?circuit=c17&seed=13";
    let _ = body_text(&service, target);
    let parse_start = Instant::now() - Duration::from_millis(2);
    let response = service.handle_traced(&get(target), Some(parse_start));
    assert_eq!(response.status, 200);
    let records = service.flight().snapshot();
    let hit = records.iter().find(|r| r.seq == 1).expect("hit trace");
    assert_eq!(hit.cache, "hit");
    let root = &hit.spans[0];
    let children: Vec<_> = hit
        .spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .collect();
    assert_eq!(children[0].name, "http.parse");
    assert_eq!(children[0].start_nanos, 0);
    assert!(children[0].nanos >= 2_000_000, "{} ns", children[0].nanos);
    // The root's children run one after another inside the root, and
    // the root's wall time includes the parse.
    for pair in children.windows(2) {
        assert!(
            pair[0].start_nanos + pair[0].nanos <= pair[1].start_nanos,
            "{} overlaps {}",
            pair[0].name,
            pair[1].name
        );
    }
    let sum: u64 = children.iter().map(|s| s.nanos).sum();
    assert!(
        sum <= root.nanos,
        "children sum {sum} > root {}",
        root.nanos
    );
    assert_eq!(root.nanos, hit.nanos);
}

#[test]
fn one_dl_miss_seals_the_sibling_artifacts() {
    let service = service("siblings", 1);
    let _ = body_text(&service, "/v1/dl?circuit=c17&seed=7");
    assert_eq!(service.obs().counter_value("serve.recompute"), Some(1));
    let _ = body_text(&service, "/v1/curve?circuit=c17&seed=7");
    let _ = body_text(&service, "/v1/faults?circuit=c17");
    assert_eq!(
        service.obs().counter_value("serve.recompute"),
        Some(1),
        "curve and faults must be served from the artifacts the dl miss sealed"
    );
    // Another seed's miss leaves the sealed, seed-independent fault
    // report as it is instead of writing it again.
    let netlist = netlist_for("c17").expect("catalogue circuit");
    let faults = service.cache().path_for(artifact_key(
        "faults",
        &netlist,
        0,
        0,
        &dlp_yield::Fallout::poisson(),
    ));
    let modified = || {
        std::fs::metadata(&faults)
            .and_then(|m| m.modified())
            .expect("sealed fault report")
    };
    let sealed_at = modified();
    let _ = body_text(&service, "/v1/dl?circuit=c17&seed=8");
    assert_eq!(service.obs().counter_value("serve.recompute"), Some(2));
    assert_eq!(
        modified(),
        sealed_at,
        "the fault report must not be sealed again"
    );
}

#[test]
fn corrupted_artifacts_are_typed_misses_that_recompute_to_the_same_bytes() {
    let service = service("corrupt", 1);
    let original = body_text(&service, "/v1/dl?circuit=c17&seed=9");

    // Damage the sealed envelope's payload on disk.
    let netlist = netlist_for("c17").expect("catalogue circuit");
    let key = artifact_key("dl", &netlist, 9, 0, &dlp_yield::Fallout::poisson());
    let path = service.cache().path_for(key);
    let sealed = std::fs::read_to_string(&path).expect("artifact exists");
    std::fs::write(
        &path,
        sealed.replace("\"circuit\":\"c17\"", "\"circuit\":\"c18\""),
    )
    .expect("corrupt artifact");

    // The strict probe surfaces the typed error...
    let err = service
        .cache()
        .open_strict(key)
        .expect_err("must fail verification");
    assert!(
        matches!(err, dlp_core::CkptError::ChecksumMismatch { .. }),
        "expected a checksum mismatch, got {err}"
    );
    // ...while the serving path degrades it to a typed miss.
    assert!(matches!(
        service.cache().lookup(key),
        CacheLookup::Miss(Some(_))
    ));

    let recomputed = body_text(&service, "/v1/dl?circuit=c17&seed=9");
    assert_eq!(
        original, recomputed,
        "recompute must reproduce the original bytes"
    );
    assert_eq!(service.obs().counter_value("serve.cache.corrupt"), Some(1));
    assert_eq!(service.obs().counter_value("serve.recompute"), Some(2));
}

#[test]
fn metrics_exposition_validates_after_traffic() {
    let service = service("metrics", 1);
    let _ = body_text(&service, "/v1/faults?circuit=c17");
    let _ = service.handle(&get("/v1/nope"));
    let response = service.handle(&get("/metrics"));
    assert_eq!(response.status, 200);
    let text = String::from_utf8(response.body).expect("utf-8");
    dlp_core::obs::openmetrics::validate(&text).expect("valid OpenMetrics");
    for needle in [
        "serve.requests",
        "serve.errors",
        "serve.cache.miss",
        "serve.request_seconds",
        "serve.in_flight",
    ] {
        assert!(text.contains(needle), "/metrics does not expose {needle}");
    }
}

/// `(circuit, endpoint, seed, n, dist, key)`: pinned [`artifact_key`]
/// values, so a change to how keys are computed cannot silently orphan
/// a deployed cache. `dln` rows key the n-detect target with seed 0, as
/// the service does.
const PINNED_KEYS: [(&str, &str, u64, u64, &str, u64); 48] = [
    ("c17", "dl", 1, 0, "poisson", 0xfddb54ca1515059e),
    ("c17", "dl", 1, 0, "nb", 0x06b133753205dfbd),
    ("c17", "dl", 1, 0, "hier", 0xed33a98b1327c5bd),
    ("c17", "dl", 2, 0, "poisson", 0xc2993714741bfdff),
    ("c17", "dl", 2, 0, "nb", 0x344c7df34acfb7e2),
    ("c17", "dl", 2, 0, "hier", 0x0ff4a0a1d071f976),
    ("c17", "curve", 1, 0, "poisson", 0xc8ab415abe7455e2),
    ("c17", "curve", 1, 0, "nb", 0x9437dc7240466be1),
    ("c17", "curve", 1, 0, "hier", 0xb00d8dae769d6651),
    ("c17", "curve", 2, 0, "poisson", 0x520e87362707d8b3),
    ("c17", "curve", 2, 0, "nb", 0xeefa97ed8718d026),
    ("c17", "curve", 2, 0, "hier", 0xfb2f814ff3814fda),
    ("c17", "faults", 1, 0, "poisson", 0x6f93bbfc1f1635b1),
    ("c17", "faults", 1, 0, "nb", 0xaca0f024414f2c34),
    ("c17", "faults", 1, 0, "hier", 0x57f3986f0ab29580),
    ("c17", "faults", 2, 0, "poisson", 0xdfd535036185d87c),
    ("c17", "faults", 2, 0, "nb", 0x448c8a9af947ab23),
    ("c17", "faults", 2, 0, "hier", 0xaa8b5ead295121fb),
    ("c17", "dln", 0, 1, "poisson", 0xbcda45c1118b2697),
    ("c17", "dln", 0, 1, "nb", 0x04918a956eff515a),
    ("c17", "dln", 0, 1, "hier", 0x24067e5b5c53b41e),
    ("c17", "dln", 0, 2, "poisson", 0x1314647526625656),
    ("c17", "dln", 0, 2, "nb", 0x582c571ded181895),
    ("c17", "dln", 0, 2, "hier", 0x810c4ec3bfb81b85),
    ("c432", "dl", 1, 0, "poisson", 0x90d40097f9e1a06c),
    ("c432", "dl", 1, 0, "nb", 0xa2b14a2e4845c1b3),
    ("c432", "dl", 1, 0, "hier", 0x4e1651d10350500b),
    ("c432", "dl", 2, 0, "poisson", 0x3f87a31cd41a7661),
    ("c432", "dl", 2, 0, "nb", 0x81d19767c53af684),
    ("c432", "dl", 2, 0, "hier", 0xb0817a79357a2350),
    ("c432", "curve", 1, 0, "poisson", 0xc65116de1e744ec8),
    ("c432", "curve", 1, 0, "nb", 0x1ebe75c6e23e0f4f),
    ("c432", "curve", 1, 0, "hier", 0xe4b8c0f4db2097b7),
    ("c432", "curve", 2, 0, "poisson", 0x849e282c9cf9b59d),
    ("c432", "curve", 2, 0, "nb", 0x156a3fed0451d040),
    ("c432", "curve", 2, 0, "hier", 0x05955dcf30eac6cc),
    ("c432", "faults", 1, 0, "poisson", 0x8389254212201335),
    ("c432", "faults", 1, 0, "nb", 0x8a48a4d9cb330e98),
    ("c432", "faults", 1, 0, "hier", 0x8f874c8991dbbcf4),
    ("c432", "faults", 2, 0, "poisson", 0xaaf58c2c12ad5bc0),
    ("c432", "faults", 2, 0, "nb", 0x19777d8522e10047),
    ("c432", "faults", 2, 0, "hier", 0x639b080bbcd9711f),
    ("c432", "dln", 0, 1, "poisson", 0x37775acb967984b7),
    ("c432", "dln", 0, 1, "nb", 0x50ce8a29d25d31fa),
    ("c432", "dln", 0, 1, "hier", 0x32543cff2b28cd3e),
    ("c432", "dln", 0, 2, "poisson", 0xce8f920ecdb5cc76),
    ("c432", "dln", 0, 2, "nb", 0xca8fdf758dd97b35),
    ("c432", "dln", 0, 2, "hier", 0x50ab2083f8dac525),
];

#[test]
fn artifact_keys_match_the_pinned_values() {
    for (circuit, endpoint, seed, n, dist, pinned) in PINNED_KEYS {
        let netlist = netlist_for(circuit).expect("catalogue circuit");
        let query = match dist {
            "nb" => "dist=nb&alpha=2",
            "hier" => "dist=hier",
            _ => "dist=poisson",
        };
        let fallout = fallout_param(&query_params(Some(query))).expect("distribution");
        assert_eq!(
            artifact_key(endpoint, &netlist, seed, n, &fallout),
            pinned,
            "{circuit} {endpoint} seed {seed} n {n} {dist}"
        );
    }
    // The service seals its artifacts under those same keys.
    let service = service("pinned", 1);
    let _ = body_text(&service, "/v1/dl?circuit=c17&seed=1&dist=nb&alpha=2");
    let _ = body_text(&service, "/v1/dln?circuit=c17&n=1");
    for sealed in [
        ("c17", "dl", 1, 0, "nb"),
        ("c17", "curve", 1, 0, "nb"),
        ("c17", "dln", 0, 1, "poisson"),
    ] {
        let (.., key) = PINNED_KEYS
            .into_iter()
            .find(|&(c, e, seed, n, dist, _)| (c, e, seed, n, dist) == sealed)
            .expect("pinned row");
        let path = service.cache().path_for(key);
        assert!(
            std::path::Path::new(&path).exists(),
            "{sealed:?}: no artifact at {path}"
        );
    }
}

#[test]
fn a_verified_hit_never_masks_later_corruption() {
    let service = service("verified_corrupt", 1);
    let target = "/v1/dl?circuit=c17&seed=31";
    let original = body_text(&service, target);
    assert_eq!(body_text(&service, target), original);
    assert_eq!(service.obs().counter_value("serve.cache.hit"), Some(1));

    // Same length, rewritten in place with no pause, so the file's
    // size and possibly its mtime match the verified artifact's.
    let path = c17_dl_path(&service, 31);
    let sealed = std::fs::read_to_string(&path).expect("artifact exists");
    let flipped = sealed.replace("\"circuit\":\"c17\"", "\"circuit\":\"c18\"");
    assert_eq!(flipped.len(), sealed.len());
    assert_ne!(flipped, sealed);
    std::fs::write(&path, flipped).expect("corrupt artifact");

    assert_eq!(body_text(&service, target), original);
    assert_eq!(service.obs().counter_value("serve.cache.corrupt"), Some(1));
    assert_eq!(service.obs().counter_value("serve.recompute"), Some(2));
    // The recompute resealed the artifact: the next request is a hit.
    assert_eq!(body_text(&service, target), original);
    assert_eq!(service.obs().counter_value("serve.cache.hit"), Some(2));
}

#[test]
fn after_a_hit_deletion_is_a_cold_miss_and_truncation_a_typed_miss() {
    let service = service("verified_gone", 1);
    let target = "/v1/dl?circuit=c17&seed=32";
    let original = body_text(&service, target);
    assert_eq!(body_text(&service, target), original);
    let path = c17_dl_path(&service, 32);

    std::fs::remove_file(&path).expect("delete artifact");
    assert_eq!(body_text(&service, target), original);
    let obs = service.obs();
    assert_eq!(obs.counter_value("serve.recompute"), Some(2));
    assert_eq!(obs.counter_value("serve.cache.miss"), Some(2));
    assert_eq!(obs.counter_value("serve.cache.corrupt"), None);

    assert_eq!(body_text(&service, target), original);
    let sealed = std::fs::read(&path).expect("artifact resealed");
    std::fs::write(&path, &sealed[..sealed.len() / 2]).expect("truncate artifact");
    assert_eq!(body_text(&service, target), original);
    assert_eq!(obs.counter_value("serve.recompute"), Some(3));
    assert_eq!(obs.counter_value("serve.cache.corrupt"), Some(1));
    assert_eq!(obs.counter_value("serve.cache.hit"), Some(2));
}
