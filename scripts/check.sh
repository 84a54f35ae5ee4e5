#!/usr/bin/env bash
# Repo gate: formatting, lints and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny rustdoc warnings)"
# Only the sushi crates: vendor/ stand-ins are out of scope for the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p sushi-par -p sushi-cells -p sushi-sim -p sushi-arch -p sushi-snn -p sushi-ssnn \
  -p sushi-serve -p sushi-core -p sushi-bench

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark harness build (benchmark/, its own workspace)"
# The harness builds the workspace crates through path dependencies, so
# a public-API change that breaks it must fail here. Build a copy: an
# in-place offline build would rewrite benchmark/Cargo.lock, and this
# step must never write under benchmark/. The symlinks give the copied
# manifest the same ../crates and ../vendor paths and the root workspace
# manifest the crates inherit their package fields from.
perfbench_dir="$(mktemp -d)"
trap 'rm -rf "$perfbench_dir"' EXIT
mkdir "$perfbench_dir/benchmark"
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src "$perfbench_dir/benchmark/"
for link in Cargo.toml crates vendor; do
  ln -s "$PWD/$link" "$perfbench_dir/$link"
done
cargo build --release --offline --quiet \
  --manifest-path "$perfbench_dir/benchmark/Cargo.toml" --target-dir target/perfbench

echo "==> bench metrics smoke run"
# Capture, then grep: grep -q on a pipe would close it early and the
# binary's println! would die on SIGPIPE.
bench_out="$(cargo run --release -q -p sushi-bench -- --quick bench)"
grep -q "hot cells:" <<<"$bench_out"
grep -q "packed SSNN engine" <<<"$bench_out"
grep -q "bitplane batch engine" <<<"$bench_out"
grep -q "serving pipeline (sharded micro-batching)" <<<"$bench_out"
grep -q "shards .* | executors " <<<"$bench_out"
grep -q "training kernels" <<<"$bench_out"

echo "==> criterion + serve bench smoke (scripts/bench.sh --smoke)"
# Also covers BENCH_serve.json assembly: the smoke run executes the
# serving scenarios at reduced budget and validates the JSON structure.
scripts/bench.sh --smoke

echo "All checks passed."
