#!/usr/bin/env sh
# The single CI entrypoint.  The GitHub workflow and local `make ci`
# both run this script, so the two can never drift apart.
#
#   scripts/ci.sh lint          ruff over src/, tests/, benchmarks/
#                               (skipped with a notice when ruff is not
#                               installed)
#   scripts/ci.sh test          the tier-1 suite: PYTHONPATH=src pytest -x -q
#   scripts/ci.sh coverage      tier-1 suite under pytest-cov with a
#                               fail-under gate (skipped with a notice
#                               when pytest-cov is not installed)
#   scripts/ci.sh differential  the oracle harness at 200 examples per
#                               transport, re-run under three distinct
#                               seeds (REPRO_TEST_SEED)
#   scripts/ci.sh bench         the transport, cache, parallel-dispatch,
#                               and sketch-traffic benchmarks as smoke
#                               tests, at a reduced row count so they
#                               finish in seconds
#   scripts/ci.sh bench-service the concurrent serving load gate:
#                               8 closed-loop clients against a 4-site
#                               process-transport warehouse, asserted
#                               error-free and bit-identical, then
#                               compared against the committed baseline
#                               (fails on a >2x p95/QPS regression)
#   scripts/ci.sh bench-topology the aggregation-tree gate: the
#                               tree-vs-flat WAN sweep at smoke scale
#                               (bit-reproducible, modeled), asserted
#                               identical and faster/leaner than flat
#                               at >= 64 sites, then compared against
#                               the committed baseline
#   scripts/ci.sh bench-skew    the skew-mitigation gate: the
#                               hedging-only vs skew-split Zipf sweep
#                               (bit-reproducible, modeled), asserted
#                               bit-identical and >= 1.5x faster at
#                               Zipf(1.5), then compared against the
#                               committed baseline
#   scripts/ci.sh bench-kernels the residual-θ kernel gate: the
#                               rows x sites x θ-shape campaign at
#                               smoke scale, kernel-vs-reference
#                               outputs asserted bit-identical, then
#                               compared against the committed baseline
#                               (fails on a >2x speedup/codec
#                               throughput regression)
#   scripts/ci.sh bench-cube    the CUBE lattice gate: lattice vs
#                               naive per-cuboid rounds on TPCR at
#                               smoke scale (bit-reproducible, modeled
#                               bytes), asserted bit-identical, leaner
#                               on the wire, and serving slices from
#                               the materialized ancestor, then
#                               compared against the committed baseline
#   scripts/ci.sh e2e-smoke     the end-to-end benchmark's own
#                               self-test (benchmarks/e2e, every
#                               workload untraced + traced at 20k
#                               rows): a renamed or moved function in
#                               the tracer's POINTS fails here, not at
#                               the next benchmark run
#   scripts/ci.sh all           lint + test + differential + bench +
#                               bench-service + bench-topology +
#                               bench-skew + bench-kernels + bench-cube
#                               + e2e-smoke (the default)
#
# Exit code: non-zero as soon as any stage fails.

set -eu

cd "$(dirname "$0")/.."

PYTHON=${PYTHON:-python}
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

lint() {
    if command -v ruff >/dev/null 2>&1; then
        echo "== lint: ruff check =="
        ruff check src tests benchmarks examples
    else
        echo "== lint: ruff not installed, skipping (pip install ruff) =="
    fi
}

tests() {
    echo "== test: tier-1 suite =="
    "$PYTHON" -m pytest -x -q
}

# Coverage floor enforced when pytest-cov is available (the GitHub
# workflow installs it; local runs without it skip with a notice, same
# convention as the ruff lint stage).  The floor is a ratchet: raise it
# as coverage grows, never lower it to make a PR pass.
COVERAGE_FLOOR=${COVERAGE_FLOOR:-75}

coverage() {
    if "$PYTHON" -c "import pytest_cov" >/dev/null 2>&1; then
        echo "== coverage: tier-1 suite, fail-under ${COVERAGE_FLOOR}% =="
        "$PYTHON" -m pytest -x -q \
            --cov=repro --cov-report=term-missing:skip-covered \
            --cov-fail-under="$COVERAGE_FLOOR"
    else
        echo "== coverage: pytest-cov not installed, skipping" \
             "(pip install pytest-cov) =="
    fi
}

# The differential oracle harness at full scale: 200 randomized plans
# per transport, repeated under three distinct seeds so one lucky seed
# cannot hide an ordering/merge bug.
differential() {
    for seed in 2002 31337 777; do
        echo "== differential: 200 examples/transport, seed $seed =="
        REPRO_TEST_SEED=$seed REPRO_DIFFERENTIAL_EXAMPLES=200 \
            "$PYTHON" -m pytest tests/test_differential.py \
            tests/test_differential_sketches.py -x -q
    done
}

bench() {
    echo "== bench: transport smoke =="
    REPRO_BENCH_ROWS=${REPRO_BENCH_ROWS:-8000} \
        "$PYTHON" -m pytest benchmarks/bench_ext_transport.py -x -q \
        --benchmark-disable
    echo "== bench: cache smoke =="
    REPRO_BENCH_ROWS=${REPRO_BENCH_ROWS:-8000} \
        "$PYTHON" -m pytest benchmarks/bench_ext_cache.py -x -q \
        --benchmark-disable
    echo "== bench: parallel dispatch smoke =="
    REPRO_BENCH_ROWS=${REPRO_BENCH_ROWS:-8000} \
        "$PYTHON" -m pytest benchmarks/bench_ext_parallel.py -x -q \
        --benchmark-disable
    echo "== bench: sketch traffic smoke =="
    REPRO_BENCH_ROWS=${REPRO_BENCH_ROWS:-8000} \
        "$PYTHON" -m pytest benchmarks/bench_ext_sketches.py -x -q \
        --benchmark-disable
}

# The serving load/latency gate (satellite of the query-service PR):
# run the closed-loop benchmark at smoke scale, assert QPS > 0 with no
# failures or oracle mismatches and warm p95 <= cold p95, then diff the
# fresh report against the committed baseline.  The fresh JSON is left
# at benchmarks/results/ext_service_ci.json for artifact upload.
bench_service() {
    echo "== bench-service: concurrent serving load gate =="
    "$PYTHON" benchmarks/bench_ext_service.py --smoke \
        --json benchmarks/results/ext_service_ci.json
    echo "== bench-service: compare against committed baseline =="
    "$PYTHON" scripts/bench_compare.py \
        benchmarks/results/ext_service.json \
        benchmarks/results/ext_service_ci.json
}

# The aggregation-tree gate (tentpole of the topology PR): sweep the
# smoke site counts of the tree-vs-flat WAN benchmark (modeled, so the
# numbers are bit-reproducible), assert tree results identical to flat
# and tree wins on response time AND coordinator ingress at >= 64
# sites, then diff against the committed baseline.  The fresh JSON is
# left at benchmarks/results/ext_topology_ci.json for artifact upload.
bench_topology() {
    echo "== bench-topology: aggregation-tree gate =="
    "$PYTHON" benchmarks/bench_ext_topology.py --smoke \
        --json benchmarks/results/ext_topology_ci.json
    echo "== bench-topology: compare against committed baseline =="
    "$PYTHON" scripts/bench_compare.py \
        benchmarks/results/ext_topology.json \
        benchmarks/results/ext_topology_ci.json
}

# The skew-mitigation gate (tentpole of the skew PR): sweep the smoke
# Zipf exponents of the hedging-only vs skew-split benchmark (modeled,
# so the numbers are bit-reproducible), assert split results identical
# to unsplit and >= 1.5x faster at Zipf(1.5), then diff against the
# committed baseline.  The fresh JSON is left at
# benchmarks/results/ext_skew_ci.json for artifact upload.
bench_skew() {
    echo "== bench-skew: skew-mitigation gate =="
    "$PYTHON" benchmarks/bench_ext_skew.py --smoke \
        --json benchmarks/results/ext_skew_ci.json
    echo "== bench-skew: compare against committed baseline =="
    "$PYTHON" scripts/bench_compare.py \
        benchmarks/results/ext_skew.json \
        benchmarks/results/ext_skew_ci.json
}

# The residual-θ kernel gate (tentpole of the vectorized-kernels PR):
# run the rows x sites x θ-shape campaign at smoke scale, assert the
# batched kernels are bit-identical to the reference scan loop in every
# cell (and never slower where the code paths diverge), then diff the
# speedups and codec throughput against the committed baseline.  The
# fresh JSON is left at benchmarks/results/ext_kernels_ci.json for
# artifact upload.
bench_kernels() {
    echo "== bench-kernels: residual-θ kernel campaign gate =="
    "$PYTHON" benchmarks/bench_campaign.py --smoke \
        --json benchmarks/results/ext_kernels_ci.json
    echo "== bench-kernels: compare against committed baseline =="
    "$PYTHON" scripts/bench_compare.py \
        benchmarks/results/ext_kernels.json \
        benchmarks/results/ext_kernels_ci.json
}

# The CUBE lattice gate (tentpole of the cube PR): run the lattice vs
# naive per-cuboid sweep at smoke scale (modeled bytes, so the numbers
# are bit-reproducible), assert lattice/naive/oracle bit-identity, a
# measurable wire-byte saving, and a zero-round materialized-slice hit,
# then diff against the committed baseline.  The fresh JSON is left at
# benchmarks/results/ext_cube_ci.json for artifact upload.
bench_cube() {
    echo "== bench-cube: CUBE lattice gate =="
    "$PYTHON" benchmarks/bench_ext_cube.py --smoke \
        --json benchmarks/results/ext_cube_ci.json
    echo "== bench-cube: compare against committed baseline =="
    "$PYTHON" scripts/bench_compare.py \
        benchmarks/results/ext_cube.json \
        benchmarks/results/ext_cube_ci.json
}

# The end-to-end benchmark (benchmarks/e2e, BENCHMARK.json) installs
# its spans around the program's functions by name; its smoke self-test
# resolves every one of them and runs each workload once.  Contract
# only: smoke numbers are never results.
e2e_smoke() {
    echo "== e2e-smoke: end-to-end benchmark self-test =="
    "$PYTHON" -m pytest benchmarks/e2e -q
}

stage=${1:-all}
case "$stage" in
    lint)           lint ;;
    test)           tests ;;
    coverage)       coverage ;;
    differential)   differential ;;
    bench)          bench ;;
    bench-service)  bench_service ;;
    bench-topology) bench_topology ;;
    bench-skew)     bench_skew ;;
    bench-kernels)  bench_kernels ;;
    bench-cube)     bench_cube ;;
    e2e-smoke)      e2e_smoke ;;
    all)            lint; tests; differential; bench; bench_service;
                    bench_topology; bench_skew; bench_kernels;
                    bench_cube; e2e_smoke ;;
    *)  echo "usage: scripts/ci.sh [lint|test|coverage|differential|" \
            "bench|bench-service|bench-topology|bench-skew|" \
            "bench-kernels|bench-cube|e2e-smoke|all]" \
            >&2; exit 2 ;;
esac
