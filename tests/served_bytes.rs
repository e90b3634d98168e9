//! The bytes the service computes for c17 must stay the same across
//! versions.
//!
//! The `dlp-serve` tests compare responses within one build (hit
//! against miss, one thread count against another, a fresh service
//! against a warm one), so a change that moves every computed body at
//! once passes them. These digests were captured from an earlier build
//! and pin the computed `/v1/dl`, `/v1/curve` and `/v1/dln` bodies
//! under each fallout distribution the service parses, plus the
//! `/v1/faults` report.

use dlp::core::par::ThreadCount;
use dlp_serve::accesslog::AccessLogConfig;
use dlp_serve::http::Request;
use dlp_serve::service::{Service, ServiceConfig};

/// Each request target with the FNV-1a 64 digest of its body.
const PINNED: [(&str, u64); 8] = [
    ("/v1/dl?circuit=c17&seed=5", 0x241d_a6e5_e487_5255),
    ("/v1/curve?circuit=c17&seed=5", 0xbbf3_7bd4_cdca_83eb),
    (
        "/v1/dl?circuit=c17&seed=5&dist=nb&alpha=2",
        0x2bd6_9978_e448_f3bc,
    ),
    (
        "/v1/curve?circuit=c17&seed=5&dist=nb&alpha=2",
        0x8654_c213_d952_584b,
    ),
    ("/v1/dl?circuit=c17&seed=5&dist=hier", 0x2d55_d49d_8861_9f72),
    (
        "/v1/curve?circuit=c17&seed=5&dist=hier",
        0xdd1f_ee9b_32fd_1a70,
    ),
    ("/v1/dln?circuit=c17&n=2", 0xa905_3397_15dd_359b),
    ("/v1/faults?circuit=c17", 0x09fc_220f_cb9e_316c),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn computed_c17_bodies_match_the_pinned_digests() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp")
        .join(format!("served_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::new(&ServiceConfig {
        cache_dir: dir.to_string_lossy().into_owned(),
        threads: ThreadCount::fixed(1).expect("one worker"),
        miss_budget_ms: None,
        flight_capacity: 0,
        access_log: AccessLogConfig::Off,
    })
    .expect("service");
    let mut moved = Vec::new();
    for (target, pinned) in PINNED {
        let response = service.handle(&Request {
            method: "GET".to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        });
        let body = String::from_utf8_lossy(&response.body).into_owned();
        assert_eq!(response.status, 200, "{target}: {body}");
        let digest = fnv1a(&response.body);
        if digest != pinned {
            moved.push(format!(
                "{target}: {digest:#018x} (pinned {pinned:#018x})\n  {body}"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        moved.is_empty(),
        "served bytes moved:\n{}",
        moved.join("\n")
    );
}
