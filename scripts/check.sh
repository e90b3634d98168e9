#!/usr/bin/env sh
# Full robustness gate: lint, build, test.
#
# The clippy pass denies `unwrap`/`expect` in all library code — the
# panic-free contract of DESIGN.md §7. Test modules and examples
# are exempt (panicking there is idiomatic), which is why the lint runs
# per-crate on --lib targets only.
#
# The gate leaves the working tree as it found it: regenerated reports
# go under target/ (or to gitignored paths), and a run that changes
# `git status --porcelain` fails.
set -eu

cd "$(dirname "$0")/.."

in_git=false
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    in_git=true
    status_before=$(git status --porcelain)
fi

echo "== fmt: the workspace is rustfmt-clean"
cargo fmt --all --check

# Unsafe guard (DESIGN.md §18): dlp-core denies `unsafe` and lets one
# item through, the call into its AVX-512 Monte-Carlo kernel; every
# other library forbids it outright.
echo "== unsafe: forbid in every library but dlp-core, one exception there"
for lib in src/lib.rs crates/*/src/lib.rs; do
    [ "$lib" = crates/core/src/lib.rs ] && continue
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "$lib must keep #![forbid(unsafe_code)]"
        exit 1
    fi
done
if ! grep -q '^#!\[deny(unsafe_code)\]' crates/core/src/lib.rs; then
    echo "crates/core/src/lib.rs must keep #![deny(unsafe_code)]"
    exit 1
fi
allows=$(grep -rn 'allow(unsafe_code)' crates --include='*.rs' | wc -l)
if [ "$allows" -ne 1 ]; then
    echo "crates/ must hold exactly one allow(unsafe_code), found $allows"
    exit 1
fi

echo "== clippy: deny unwrap/expect in library code"
for crate in dlp-geometry dlp-circuit dlp-core dlp-sim dlp-layout \
             dlp-extract dlp-atpg dlp-ndetect dlp-yield dlp-bench \
             dlp-serve dlp-inject dlp; do
    echo "   $crate"
    cargo clippy -p "$crate" --lib -q -- \
        -D warnings \
        -D clippy::unwrap_used \
        -D clippy::expect_used
done

echo "== clippy: all targets (warnings only denied)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== build: release, all targets"
cargo build --workspace --all-targets --release -q

# The suite runs twice — forced-serial and 4 workers — so the
# determinism contract of DESIGN.md §8 (bit-identical results for every
# thread count) is exercised end to end, not just in the dedicated
# determinism tests.
echo "== test: full workspace, DLP_THREADS=1 (includes the dlp-inject adversarial sweep)"
DLP_THREADS=1 cargo test --workspace -q

echo "== test: full workspace, DLP_THREADS=4"
DLP_THREADS=4 cargo test --workspace -q

# Frozen-API guard: the standalone benchmark crate (its own workspace
# and lockfile under benchmark/) calls the stage entry points by name.
# Building it and running its bit-for-bit equivalence test here means a
# deleted or re-signatured entry point fails this gate, not the benchmark
# run.
echo "== benchmark: build the standalone crate, run its equivalence test"
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q

# Differential and solve-table oracles (DESIGN.md §17): the c432-class
# cases are too slow unoptimised, so debug builds ignore them and they
# run here in release.
echo "== oracle: differential vs reference switch-level drivers on c432-class"
cargo test --release -q -p dlp-sim --lib differential_matches_reference_on_c432_class
echo "== oracle: solve-table hits vs the general solve on c432-class"
cargo test --release -q -p dlp-sim --lib table_hits_match_the_general_solve_on_c432_class

# Router oracle (DESIGN.md §19): the c432-class layout must hash to the
# digest pinned before the bucket-queue kernel; debug builds ignore it.
echo "== oracle: pinned c432-class layout digest"
cargo test --release -q -p dlp-layout --test route_digests c432_class_layout_is_pinned

# Extraction oracle (DESIGN.md §20): the c432-class fault set (labels,
# kinds, weight bits, candidate pairs) must hash to the digest pinned
# before the indexed bridge-candidate search; debug builds ignore it.
echo "== oracle: pinned c432-class extraction digest"
cargo test --release -q -p dlp-extract --test extract_digests c432_class_extraction_is_pinned

# Evidence gate (DESIGN.md §9, §11): the committed run trace and every
# committed bench report and baseline must still load through the
# current reader, verify their checksums, and pass the validator — not
# only the reports this run writes afresh.
echo "== evidence: validate the committed trace, bench reports and baselines"
cargo run --release -q -p dlp-bench --bin validate_trace -- TRACE_full_flow_c432.json
if [ "$in_git" = true ]; then
    committed_reports=$(git ls-files 'BENCH_*.json' 'baselines/*.json')
else
    committed_reports=$(ls BENCH_*.json baselines/*.json)
fi
for report in $committed_reports; do
    cargo run --release -q -p dlp-bench --bin validate_trace -- --bench "$report"
done

# Observability gate (DESIGN.md §9): a traced full-flow run must produce
# a run report that parses with the in-tree JSON parser and carries a
# span for every stage plus nonzero work counters, and a span tree that
# passes the shared tree check (parents resolve, children inside their
# parents) with extract.{bridges,opens,cuts} nested under extract. The
# report goes to target/; the committed TRACE_full_flow_c432.json stays
# put.
echo "== trace: full flow under DLP_TRACE, then validate the run report"
mkdir -p target
DLP_TRACE=target/TRACE_full_flow_c432.json \
    cargo run --release -q --example full_flow_c432 > /dev/null
cargo run --release -q -p dlp-bench --bin validate_trace -- \
    target/TRACE_full_flow_c432.json

# Paper-shape gate (DESIGN.md §4): the c432-class study asserts Fig. 3's
# weight dispersion of at least 2.5 decades, Fig. 5's concavity with
# R > 1 and theta_max < 1, the IDDQ recovery and R tracking the defect
# mix, and panics when a shape breaks. It writes no file.
echo "== study: c432-class figures, ablations and the zero-defect table"
cargo run --release -q -p dlp-bench --bin c432_study > /dev/null

# DL-vs-n gate: the n-detection bench must complete and regenerate
# BENCH_ndetect.json; it asserts internally that the measured DL(n) is
# monotone non-increasing on its prefix schedule. The regenerated file
# must conform to the versioned BenchReport schema. The bin writes the
# workspace-root path, so the committed report is set aside under
# target/ for the run, the fresh one moves to target/BENCH_ndetect.json,
# and the committed one goes back.
echo "== ndetect: DL vs n table (writes target/BENCH_ndetect.json)"
cp BENCH_ndetect.json target/BENCH_ndetect.committed.json
trap 'mv -f target/BENCH_ndetect.committed.json BENCH_ndetect.json' EXIT
cargo run --release -q -p dlp-bench --bin ndetect_dl > /dev/null
mv -f BENCH_ndetect.json target/BENCH_ndetect.json
mv -f target/BENCH_ndetect.committed.json BENCH_ndetect.json
trap - EXIT
cargo run --release -q -p dlp-bench --bin validate_trace -- \
    --bench target/BENCH_ndetect.json

# Scale-path gate (DESIGN.md §13): the scale_sweep flow — template
# layout → extraction → tiled weight distribution → PPSFP (its cone
# cache bounded to one window of faults) → DL(T) — on its smallest
# member, writing BENCH_scale_sweep_smoke.json (the committed
# full-family report stays put) and validating it against the
# BenchReport schema.
echo "== scale: scale_sweep smoke (smallest family member)"
cargo run --release -q -p dlp-bench --bin scale_sweep -- --smoke > /dev/null
cargo run --release -q -p dlp-bench --bin validate_trace -- \
    --bench BENCH_scale_sweep_smoke.json

# Clustered-yield gate (DESIGN.md §15): the yield_cluster study on c17 —
# per-distribution fixed-yield calibration, eq. 11 fits, and a
# Monte-Carlo cross-check of every analytic DL (the bin hard-errors if
# simulation and closed form disagree, or if clustering fails to lower
# DL at fixed yield). The smoke report must conform to the BenchReport
# schema and its MC timings stay within the committed baseline.
echo "== yield: clustered-fallout smoke (writes BENCH_yield_smoke.json)"
cargo run --release -q -p dlp-bench --bin yield_cluster -- --smoke > /dev/null
cargo run --release -q -p dlp-bench --bin validate_trace -- \
    --bench BENCH_yield_smoke.json
cargo run --release -q -p dlp-bench --bin perf_regress -- \
    --baseline baselines/yield_baseline.json --current BENCH_yield_smoke.json

# Performance regression gate (DESIGN.md §11): one run times every
# kernel of the registry. It first tests the gate on that report (against
# itself it passes at unit ratios, a synthetic 2x slowdown fails, coverage
# and CPU-count drift are named), fails if a worker-count sweep's result
# differs between worker counts, and prints obs_on_ratio against its
# bound; then it compares this machine's calibration-normalized kernel
# costs against the committed baseline. Drift in [1.5x, 2x) is warn-only;
# >= 2x fails.
echo "== perf: kernel registry against baselines/perf_baseline.json"
cargo run --release -q -p dlp-bench --bin perf_regress -- \
    --baseline baselines/perf_baseline.json

# Chaos gate (DESIGN.md §12): the adversarial corpus plus seeded
# randomized sweeps — kill each long stage at chunk boundaries and
# demand a bit-identical resume from its checkpoint at 1/2/4 workers,
# then truncate/bit-flip the checkpoint files and demand typed errors.
echo "== chaos: kill/resume and artifact-corruption sweeps"
cargo run --release -q -p dlp-inject --bin chaos

# Service gate (DESIGN.md §14): boot dlp-serve on an ephemeral port and
# drive the miss -> hit -> /metrics sequence end to end — byte-identical
# replay, sibling sealing, typed 4xx rejections with trace ids, and an
# exposition that passes the in-tree OpenMetrics validator. The gate
# writes the /v1/traces flight-recorder dump to TRACE_serve_gate.json;
# validate_trace --serve-trace then proves the span-tree contract of
# DESIGN.md §16 (the same tree check, one request root, required stage
# spans nested under recompute, >= 90% wall-time coverage). Then the latency smoke: serve_load
# regenerates BENCH_serve.json with tracing enabled (one first miss, one
# fresh-seed miss), fails unless the warm-hit p99 beats the first miss
# by >= 20x, and the report must
# conform to the BenchReport schema and stay within the committed
# baseline.
echo "== serve: end-to-end cache gate, then latency smoke (writes BENCH_serve.json)"
# Stage memo (DESIGN.md §14): a c432-class miss and a scale-class miss
# share one c432-class extraction; debug builds ignore the case.
cargo test --release -q -p dlp-serve --test serve c432_and_the_scale_path_share_one_extraction
cargo run --release -q -p dlp-serve --bin serve_gate
cargo run --release -q -p dlp-bench --bin validate_trace -- \
    --serve-trace TRACE_serve_gate.json
cargo run --release -q -p dlp-serve --bin serve_load -- --smoke
cargo run --release -q -p dlp-bench --bin validate_trace -- \
    --bench BENCH_serve.json
cargo run --release -q -p dlp-bench --bin perf_regress -- \
    --baseline baselines/serve_baseline.json --current BENCH_serve.json

if [ "$in_git" = true ] && [ "$(git status --porcelain)" != "$status_before" ]; then
    echo "check.sh changed the working tree:"
    git status --porcelain
    exit 1
fi

echo "All checks passed."
