#!/usr/bin/env sh
# The single CI entrypoint.  The GitHub workflow and local `make ci`
# both run this script, so the two can never drift apart.
#
#   scripts/ci.sh lint          ruff over src/, tests/, benchmarks/,
#                               examples/ (skipped with a notice when
#                               ruff is not installed)
#   scripts/ci.sh test          the tier-1 suite: PYTHONPATH=src pytest -x -q,
#                               printing its 15 slowest tests
#   scripts/ci.sh coverage      tier-1 suite under pytest-cov with a
#                               fail-under gate (skipped with a notice
#                               when pytest-cov is not installed)
#   scripts/ci.sh differential  the oracle harness at 200 examples per
#                               transport, plus the pricing property
#                               over the same plan generator, the
#                               KLL accuracy and permutation properties,
#                               and the concurrent service and cache
#                               race / single-flight suites, re-run
#                               under three distinct seeds
#                               (REPRO_TEST_SEED, and the same value as
#                               PYTHONHASHSEED)
#   scripts/ci.sh figures       the five paper-figure scripts (Fig. 2-5 and
#                               the motivating flow example) as tests, at
#                               their default 40k rows with timing
#                               disabled: the qualitative shapes they
#                               assert cannot rot unseen (reproduction
#                               artifacts, never performance gates)
#   scripts/ci.sh e2e-smoke     the end-to-end benchmark's own
#                               self-test (benchmarks/e2e, every
#                               workload untraced + traced at 20k
#                               rows): a renamed or moved function in
#                               the tracer's POINTS fails here, not at
#                               the next benchmark run
#   scripts/ci.sh all           lint + test + coverage + differential +
#                               figures + e2e-smoke (the default)
#
# Every number has one home: a modeled claim (bytes, rounds, modeled
# seconds under ComputeModel) is an assertion in the tier-1 suite;
# wall-clock lives only in benchmarks/e2e (BENCHMARK.json, BENCH_<n>.json).
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
    "$PYTHON" -m pytest -x -q --durations=15
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
# cannot hide an ordering/merge bug.  Its knowledge axis
# (TestKnowledgeAxisDifferential: declared or nothing declared, a
# range-placed STRING or hash-placed INT64 key, appends that widen a
# range or clash) runs at the same scale and seeds.  The quantile
# sketch's rank-error properties and its permutation property (a
# state's bytes cannot depend on input or gather order) ride along
# under the same seeds, and so do the concurrency suites: the service
# under load, appends and faults against a serial replay, and the
# cache's append races and shared in-flight scans (leader, follower,
# failed leader, stale share).  Each seed
# is also the interpreter's hash seed, so a dependence on salted hash()
# cannot hide behind one PYTHONHASHSEED either.
differential() {
    for seed in 2002 31337 777; do
        echo "== differential: 200 examples/transport, seed $seed =="
        PYTHONHASHSEED=$seed REPRO_TEST_SEED=$seed \
            REPRO_DIFFERENTIAL_EXAMPLES=200 \
            "$PYTHON" -m pytest tests/test_differential.py \
            tests/test_differential_sketches.py \
            tests/test_pricing.py::TestPricingProperty \
            tests/test_sketches.py::TestQuantileSketchAccuracy \
            tests/test_sketches.py::TestGroupedKernels::test_kll_state_is_a_function_of_the_multiset \
            tests/test_service_differential.py \
            tests/test_cache_concurrency.py \
            -x -q
    done
}

# The paper's figures (Sect. 5) regenerate from benchmarks/bench_fig*.py
# and bench_flows_motivating.py; each asserts its figure's shape (who
# wins, what grows linearly vs quadratically).  --benchmark-disable runs
# every body once, untimed.  The run rewrites benchmarks/results/*.txt
# in place.
figures() {
    echo "== figures: Fig. 2-5 + motivating example, shape assertions =="
    "$PYTHON" -m pytest benchmarks/bench_fig2_group_reduction.py \
        benchmarks/bench_fig3_coalescing.py \
        benchmarks/bench_fig4_sync_reduction.py \
        benchmarks/bench_fig5_scaleup.py \
        benchmarks/bench_flows_motivating.py -x -q --benchmark-disable
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
    figures)        figures ;;
    e2e-smoke)      e2e_smoke ;;
    all)            lint; tests; coverage; differential; figures;
                    e2e_smoke ;;
    *)  echo "usage: scripts/ci.sh" \
            "[lint|test|coverage|differential|figures|e2e-smoke|all]" \
            >&2; exit 2 ;;
esac
