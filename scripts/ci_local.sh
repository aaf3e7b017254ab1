#!/usr/bin/env bash
# The full CI matrix, runnable locally — one command that exercises
# exactly what .github/workflows/ci.yml runs, so the tier-1 verify and CI
# cannot drift:
#
#   [build-and-test]  cargo build --release; compiler differential
#                     suites and the SMTP socket suite (fail-fast);
#                     cargo test -q;
#                     cargo build --benches --examples; docs smoke
#   [lint]            cargo clippy --all-targets -- -D warnings;
#                     cargo fmt --check
#   [bench-smoke]     scripts/bench_guard.sh (quick benches + regression
#                     gate against the committed BENCH_*.json)
#
# Pass --fast to skip the bench-smoke stage (the slowest one) during
# tight edit loops; CI always runs all three.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
    esac
done

echo "== [build-and-test] cargo build --release"
cargo build --release

# The compiler's fast differential suites first: a verdict-identity or
# residue-classification regression fails here in seconds instead of
# minutes into the full pass (compiler_stress, the socket-level grid,
# rides inside `cargo test -q` below).
echo "== [build-and-test] compiler differential suites"
cargo test -q --test proptest_compiler --test rfc_conformance

# The SMTP crate's suite includes a 50-round-trip latency check, so a
# socket-stall regression (Nagle plus delayed ACK) fails here in seconds.
echo "== [build-and-test] SMTP socket suite"
cargo test -q -p spf-smtp

echo "== [build-and-test] cargo test -q"
cargo test -q

echo "== [build-and-test] cargo build --benches --examples"
cargo build --benches --examples

echo "== [build-and-test] docs smoke"
scripts/docs_smoke.sh

echo "== [lint] cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== [lint] cargo fmt --check"
cargo fmt --check

if [ "$FAST" = "1" ]; then
    echo "OK: build-and-test + lint green (bench-smoke skipped via --fast)"
else
    echo "== [bench-smoke] scripts/bench_guard.sh"
    scripts/bench_guard.sh
    echo "OK: full CI matrix green"
fi
