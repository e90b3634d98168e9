//! The canonical bytes a previous build wrote must stay readable and
//! must be written again byte for byte.
//!
//! Round-trip tests inside one build cannot catch a change that strands
//! checkpoints or cache artifacts written by the previous binary: both
//! sides of the round trip move together. These pins were captured from
//! the build before the report writers moved onto the shared JSON codec,
//! so they hold the envelope layout, the payload shape and the number
//! formatting fixed across versions.

use dlp::core::ckpt::{self, Checkpoint};
use dlp::core::montecarlo::McCheckpoint;
use dlp::core::obs::Json;
use dlp::ndetect::ckpt::NDetectCheckpoint;
use dlp::sim::ckpt::SimCheckpoint;
use dlp_serve::cache::{ArtifactCache, CacheLookup, CACHE_KIND};

const SIM_KEY: u64 = 0x0123_4567_89ab_cdef;
const NDETECT_KEY: u64 = 0xfedc_ba98_7654_3210;
const MC_KEY: u64 = 0x00c0_ffee_0000_0042;
const CACHE_KEY: u64 = 0x5eed_0000_0000_0017;

const SIM_ENVELOPE: &str = r#"{"ckpt_version":1,"kind":"sim.ppsfp","key":"0123456789abcdef","checksum":"4c60bc0674ead84d","payload":{"n_cap":3.0,"next_block":2.0,"vectors_len":100.0,"detections":[[0.0,5.0,70.0],[],[64.0]]}}"#;
const NDETECT_ENVELOPE: &str = r#"{"ckpt_version":1,"kind":"ndetect.schedule","key":"fedcba9876543210","checksum":"07af28c1108cf0a0","payload":{"next_target":2.0,"vectors":["101","001"],"len_at":[2.0],"counts":[1.0,0.0,2.0],"selected":"1001","pool_selected":2.0,"hopeless":"010"}}"#;
const MC_ENVELOPE: &str = r#"{"ckpt_version":1,"kind":"mc.fallout","key":"00c0ffee00000042","checksum":"8d867d6fe35317a6","payload":{"tallies":[[4096.0,3072.0,17.0],[4096.0,3100.0,0.0],[1808.0,1400.0,3.0]]}}"#;
const CACHE_BODY: &str = r#"{"circuit":"c17 \"x\"","seed":7.0,"dl":0.000123,"ppm":123.4,"tiny":0.000000000001,"dist":null,"curve":[{"k":1.0,"theta":0.5},{"k":64.0,"theta":0.99}]}"#;
const CACHE_ENVELOPE: &str = r#"{"ckpt_version":1,"kind":"serve.response","key":"5eed000000000017","checksum":"36e78702717635bf","payload":{"body":{"circuit":"c17 \"x\"","seed":7.0,"dl":0.000123,"ppm":123.4,"tiny":0.000000000001,"dist":null,"curve":[{"k":1.0,"theta":0.5},{"k":64.0,"theta":0.99}]}}}"#;

fn sim() -> SimCheckpoint {
    SimCheckpoint {
        n_cap: 3,
        next_block: 2,
        vectors_len: 100,
        detections: vec![vec![0, 5, 70], vec![], vec![64]],
    }
}

fn ndetect() -> NDetectCheckpoint {
    NDetectCheckpoint {
        next_target: 2,
        vectors: vec![vec![true, false, true], vec![false, false, true]],
        len_at: vec![2],
        counts: vec![1, 0, 2],
        selected: vec![true, false, false, true],
        pool_selected: 2,
        hopeless: vec![false, true, false],
    }
}

fn mc() -> McCheckpoint {
    McCheckpoint {
        tallies: vec![(4096, 3072, 17), (4096, 3100, 0), (1808, 1400, 3)],
    }
}

/// A response body with every scalar kind the service emits: an
/// escaped string, integral and fractional numbers, a tiny exponent,
/// null, and nesting.
fn cache_body() -> Json {
    Json::parse(
        r#"{"circuit":"c17 \"x\"","seed":7,"dl":0.000123,"ppm":123.4,"tiny":1e-12,
            "dist":null,"curve":[{"k":1,"theta":0.5},{"k":64,"theta":0.99}]}"#,
    )
    .expect("fixture parses")
}

/// A scratch directory inside the workspace `target/` tree.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Seals `checkpoint` through [`Checkpoint::save`], compares the file
/// with `pinned`, then loads the pinned bytes back through
/// [`Checkpoint::load`].
fn assert_pinned<C: Checkpoint + PartialEq + std::fmt::Debug>(
    name: &str,
    checkpoint: &C,
    key: u64,
    pinned: &str,
) {
    let dir = scratch(name);
    let path = dir.join("ckpt.json");
    let path = path.to_str().expect("utf-8 path");
    checkpoint.save(path, key).expect("save");
    assert_eq!(
        std::fs::read_to_string(path).expect("read back"),
        pinned,
        "{name}: the sealed envelope moved"
    );
    std::fs::write(path, pinned).expect("write the pinned envelope");
    assert_eq!(
        &C::load(path, key).expect("the pinned envelope loads"),
        checkpoint,
        "{name}: the pinned envelope decodes to another checkpoint"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn sim_checkpoint_envelope_is_pinned() {
    assert_pinned("canonical_sim", &sim(), SIM_KEY, SIM_ENVELOPE);
}

#[test]
fn ndetect_checkpoint_envelope_is_pinned() {
    assert_pinned(
        "canonical_ndetect",
        &ndetect(),
        NDETECT_KEY,
        NDETECT_ENVELOPE,
    );
}

#[test]
fn mc_checkpoint_envelope_is_pinned() {
    assert_pinned("canonical_mc", &mc(), MC_KEY, MC_ENVELOPE);
}

#[test]
fn artifact_cache_store_is_pinned() {
    let dir = scratch("canonical_cache");
    let cache = ArtifactCache::new(&dir).expect("cache dir");
    let body = cache.store(CACHE_KEY, &cache_body()).expect("store");
    assert_eq!(body, CACHE_BODY, "the rendered body moved");
    let path = cache.path_for(CACHE_KEY);
    assert_eq!(
        std::fs::read_to_string(&path).expect("read back"),
        CACHE_ENVELOPE,
        "the stored envelope moved"
    );
    // The pinned envelope replays the pinned body.
    std::fs::write(&path, CACHE_ENVELOPE).expect("write the pinned envelope");
    match cache.lookup(CACHE_KEY) {
        CacheLookup::Hit(replayed) => assert_eq!(replayed, CACHE_BODY),
        CacheLookup::Miss(e) => panic!("the pinned artifact must hit, got a miss: {e:?}"),
    }
    assert_eq!(
        ckpt::open(CACHE_ENVELOPE, CACHE_KIND, CACHE_KEY)
            .ok()
            .as_ref()
            .and_then(|p| p.get("body")),
        Some(&cache_body())
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
