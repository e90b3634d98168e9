#!/bin/sh
# Builds the benchmark, runs its unit and equivalence tests, runs the
# --smoke profile (the c17 and ripple_adder(8) flows plus 3 s of
# serve-mix at the low rate), then compares the smoke result with itself.
set -eu
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
cargo run --release --offline -- --smoke --out out/smoke/result.json
cargo run --release --offline -- compare out/smoke out/smoke
