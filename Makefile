# Convenience targets for the reproduction repository.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-slow test-all test-deprecations bench bench-quick bench-equivalence bench-trace bench-profile bench-invariants bench-digests bench-fleet bench-fleet-smoke bench-mitigation bench-mitigation-smoke chaos-smoke experiments experiments-quick examples timings clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

test-all:
	$(PYTHON) -m pytest tests/ -m "slow or not slow"

# Tier-1 with DeprecationWarnings from repro.* promoted to errors: the
# repo carries no deprecation shims today, and this keeps any future one
# from being leaned on by in-repo callers (a test exercising a shim must
# wrap it in pytest.warns, which overrides the filter inside its block).
test-deprecations:
	$(PYTHON) -m pytest tests/ -x -q -W "error::DeprecationWarning:repro"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Serial-vs-parallel wall-clock + metrics overhead for the quick presets
# -> BENCH_parallel.json.
bench-quick:
	$(PYTHON) benchmarks/parallel_bench.py

# Compiled-vs-linear matcher: byte-identical quick-preset tables plus the
# deep-rule speedup -> BENCH_equivalence.json (CI runs this).
bench-equivalence:
	$(PYTHON) benchmarks/parallel_bench.py fig2 fig3a fig3b table1 --equivalence-only -o BENCH_equivalence.json

# Tracing overhead on the fig2 quick preset: disabled vs sampled vs full,
# identical tables required; merged into BENCH_parallel.json.  Fails when
# the *disabled* tracer costs >3% over the recorded pre-tracing baseline
# (CI runs this).
bench-trace:
	$(PYTHON) benchmarks/parallel_bench.py fig2 --trace-overhead-only --fail-overhead-above 3

# Wall-clock profiler overhead on the fig2 quick preset: profiler absent
# vs fully on (stack collection included), identical tables required;
# merged into BENCH_parallel.json.  Fails when the *absent* profiler
# costs >3% over the recorded pre-profiler baseline or the fully-on
# profiler costs >35% over the absent run (CI runs this).
bench-profile:
	$(PYTHON) benchmarks/parallel_bench.py fig2 --profile-overhead-only --fail-profile-off-above 3 --fail-profile-on-above 35

# Runtime invariant-monitor overhead on the fig2 quick preset: monitors
# absent vs warn mode, identical tables required; merged into
# BENCH_parallel.json.  Fails when warn mode costs >5% over the
# monitors-absent run (CI runs this).
bench-invariants:
	$(PYTHON) benchmarks/parallel_bench.py fig2 --invariant-overhead-only --fail-invariant-overhead-above 5

# Benchmark result pins: every harness workload runs once at seed 1 and
# fails when its result digest differs from benchmarks/harness/digests.json;
# then the harness's own tests (CI runs this).
bench-digests:
	@for workload in flood-64b bulk-tcp http-vpg fleet-64; do \
		echo "== $$workload =="; \
		$(PYTHON) benchmarks/harness/run.py --workload $$workload --seconds 1 || exit 1; \
	done
	$(PYTHON) -m pytest benchmarks/harness

# Chaos smoke: the trimmed scenario grid under fail-fast invariants —
# every fault injects and clears on schedule and no invariant is
# violated on any point (CI runs this).
chaos-smoke:
	$(PYTHON) -m repro.experiments chaos --preset quick --invariants fail-fast --no-progress

# Fleet-scale kernel benchmark: 4/32/128/256-host flood scenarios on the
# multi-switch fabric, current vs embedded pre-PR kernel/switch, plus the
# gated (>=3x at >=128 hosts) timer-dispatch leg -> BENCH_parallel.json.
bench-fleet:
	$(PYTHON) benchmarks/fleet_bench.py

bench-fleet-smoke:
	$(PYTHON) benchmarks/fleet_bench.py --smoke

# Closed-loop flood defense: recovery fraction + detection/mitigation
# latency per (device, defense mode), gated on the undefended-EFW
# collapse and >=80% recovery for rate-limit/quarantine -> merged into
# BENCH_parallel.json (CI runs the smoke variant).
bench-mitigation:
	$(PYTHON) benchmarks/mitigation_bench.py

bench-mitigation-smoke:
	$(PYTHON) benchmarks/mitigation_bench.py --smoke

experiments:
	$(PYTHON) -m repro.experiments all

experiments-quick:
	$(PYTHON) -m repro.experiments all --quick

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

# Regenerate the committed full-preset reference artefacts: the tables
# (experiments_output.txt) and the per-experiment serial timing log
# (experiments_timing.txt).  Serial so the recorded timings are
# comparable across revisions; expect tens of minutes.
timings:
	$(PYTHON) -m repro.experiments all --jobs 1 --no-progress > experiments_output.txt 2> experiments_timing.txt

clean:
	rm -rf src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
