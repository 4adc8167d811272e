# Convenience targets; `make ci` runs exactly what GitHub Actions runs.

.PHONY: ci lint test coverage test-differential bench bench-cache \
	bench-parallel bench-sketches bench-service bench-topology \
	bench-skew bench-kernels bench-cube e2e-smoke

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

bench:
	sh scripts/ci.sh bench

# Full-scale cache benchmark (regenerates benchmarks/results/ext_cache.txt).
bench-cache:
	PYTHONPATH=src python -m pytest benchmarks/bench_ext_cache.py -q

# Full-scale scatter/hedging benchmark (regenerates
# benchmarks/results/ext_parallel*.txt).
bench-parallel:
	PYTHONPATH=src python -m pytest benchmarks/bench_ext_parallel.py -q

# Full-scale sketch-traffic benchmark (regenerates
# benchmarks/results/ext_sketches*.txt).
bench-sketches:
	PYTHONPATH=src python -m pytest benchmarks/bench_ext_sketches.py -q

# The concurrent serving load gate: smoke-scale run plus baseline
# comparison, exactly as the service-load CI job runs it.  To refresh
# the committed baseline (benchmarks/results/ext_service.json):
#   PYTHONPATH=src python benchmarks/bench_ext_service.py --smoke
bench-service:
	sh scripts/ci.sh bench-service

# The aggregation-tree gate: smoke-scale tree-vs-flat WAN sweep plus
# baseline comparison, exactly as the topology CI job runs it.  To
# refresh the committed baseline (benchmarks/results/ext_topology.json):
#   PYTHONPATH=src python benchmarks/bench_ext_topology.py
bench-topology:
	sh scripts/ci.sh bench-topology

# The skew-mitigation gate: smoke-scale hedging-only vs skew-split Zipf
# sweep plus baseline comparison, exactly as the skew CI job runs it.
# To refresh the committed baseline (benchmarks/results/ext_skew.json):
#   PYTHONPATH=src python benchmarks/bench_ext_skew.py
bench-skew:
	sh scripts/ci.sh bench-skew

# The residual-θ kernel gate: smoke-scale rows x sites x θ-shape
# campaign (kernels vs reference scan, bit-identity asserted) plus
# baseline comparison, exactly as the kernels CI job runs it.  To
# refresh the committed baseline (benchmarks/results/ext_kernels.json):
#   PYTHONPATH=src python benchmarks/bench_campaign.py
bench-kernels:
	sh scripts/ci.sh bench-kernels

# The CUBE lattice gate: smoke-scale lattice vs naive per-cuboid sweep
# plus baseline comparison, exactly as the cube CI job runs it.  To
# refresh the committed baseline (benchmarks/results/ext_cube.json):
#   PYTHONPATH=src python benchmarks/bench_ext_cube.py
bench-cube:
	sh scripts/ci.sh bench-cube

# The end-to-end benchmark's smoke self-test (every workload, untraced
# and traced, at 20k rows; resolves every tracer point by name).
e2e-smoke:
	sh scripts/ci.sh e2e-smoke
