# Convenience targets; `make ci` runs exactly what GitHub Actions runs.

.PHONY: ci lint test coverage test-differential figures e2e-smoke

ci:
	sh scripts/ci.sh all

lint:
	sh scripts/ci.sh lint

test:
	sh scripts/ci.sh test

# Tier-1 suite under pytest-cov with the CI fail-under gate (skips with
# a notice when pytest-cov is not installed).
coverage:
	sh scripts/ci.sh coverage

# The differential oracle harness at full scale: 200 randomized plans
# per transport under three distinct seeds.
test-differential:
	sh scripts/ci.sh differential

# The paper-figure scripts (Fig. 2-5 + the motivating flow example) as
# shape assertions, untimed; rewrites benchmarks/results/*.txt.
figures:
	sh scripts/ci.sh figures

# The end-to-end benchmark's smoke self-test (every workload, untraced
# and traced, at 20k rows; resolves every tracer point by name).
e2e-smoke:
	sh scripts/ci.sh e2e-smoke
