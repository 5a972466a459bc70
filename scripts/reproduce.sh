#!/usr/bin/env bash
# Reproduce every artifact of the HTVM paper and the repo's own checks.
# Usage: scripts/reproduce.sh [output-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results}"
mkdir -p "$out"

echo "== tests =="
cargo test --workspace --release 2>&1 | tee "$out/test_output.txt"

echo "== model-file import round trip (matches the CI frontend jobs) =="
for base in 0 1000 2000; do
    echo "-- fuzz seed base $base (debug) --"
    HTVM_FUZZ_SEED_BASE="$base" cargo test -p htvm-frontend -p htvm-ir -p htvm-serve \
        --test 'fuzz_*' 2>&1 | tee "$out/fuzz_seed$base.txt"
done
echo "-- fuzz seed base 0 (release) --"
HTVM_FUZZ_SEED_BASE=0 cargo test -p htvm-frontend -p htvm-ir -p htvm-serve --release \
    --test 'fuzz_*' 2>&1 | tee "$out/fuzz_release.txt"
cargo test -p htvm-serve --release --test import_roundtrip \
    2>&1 | tee "$out/import_roundtrip.txt"
echo "-- wire-format compatibility gate --"
cargo test -p htvm-frontend --test backward_compat \
    2>&1 | tee "$out/backward_compat.txt"
# File → importer → bench: emit a zoo model as an HTF container and
# measure it through the import path; the entry must match the zoo sweep.
cargo run --release -p htvm-frontend --example emit_model -- \
    ds_cnn "$out/ds_cnn.htf" mixed
cargo run --release -p htvm-bench --bin report -- \
    --from-file "$out/ds_cnn.htf" --deploy both --out "$out/IMPORT_BENCH.json" \
    | tee "$out/import_bench.txt"

echo "== kernel microbenchmark =="
# Fresh kernel microbenchmark (wall times are host-specific; committed
# artifacts are NOT overwritten).
cargo run --release -p htvm-bench --bin kernels -- --out "$out/KERNELS_BENCH.json" \
    | tee "$out/kernels_bench.txt"

echo "== benchmark report + regression gate (matches the CI bench-report job) =="
# The *_cal rows (calibrated tiling objective) gate at the same 2%
# tolerance as the heuristic rows.
cargo run --release -p htvm-bench --bin report -- --out "$out/BENCH.json" \
    | tee "$out/bench_report.txt"
cargo run --release -p htvm-bench --bin bench-diff -- \
    BENCH_BASELINE.json "$out/BENCH.json" --cycle-tol 2 \
    | tee "$out/bench_diff.txt"

echo "== serve soak + front door + fleet (matches the CI serve / serve-http / fleet jobs) =="
cargo run --release -p htvm-bench --bin serve -- \
    --jobs 96 --workers 4 --min-speedup 5 \
    --front-door --clients 4 \
    --instances 3 --restart --max-restart-misses 0 \
    --fleet-dir "$out/fleet-cache" --out "$out/SERVE_BENCH.json" \
    | tee "$out/serve_soak.txt"

echo "== repo benchmark smoke (matches the CI benchmark job) =="
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke \
    | tee "$out/benchmark_smoke.txt"

echo "== paper artifacts =="
for bin in table1 table2 fig2 fig4 fig5 ablation; do
    echo "-- $bin --"
    cargo run --release -p htvm-bench --bin "$bin" | tee "$out/$bin.txt"
    cargo run --release -p htvm-bench --bin "$bin" -- --json > "$out/$bin.json" 2>/dev/null || true
done

echo "== examples =="
for ex in quickstart keyword_spotting image_classification anomaly_detection tiling_explorer custom_platform; do
    echo "-- $ex --"
    cargo run --release -p htvm --example "$ex" | tee "$out/example_$ex.txt"
done

echo "== non-test source lines per crate (informational) =="
scripts/loc.sh | tee "$out/loc.txt"

echo "all outputs in $out/"
