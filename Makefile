# Convenience targets for the reproduction repository.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-slow test-all bench bench-quick bench-gates bench-digests quick-digests bench-fleet bench-fleet-smoke experiments experiments-quick examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

test-all:
	$(PYTHON) -m pytest tests/ -m "slow or not slow"

# Hot-path microbenchmarks (pytest-benchmark).
bench:
	$(PYTHON) -m pytest benchmarks/bench_micro.py --benchmark-only

# Serial-vs-parallel wall-clock for every quick preset plus the four
# fig2 overhead legs (metrics, trace, profile, invariants) and their gates
# -> merged into BENCH_parallel.json.
bench-quick:
	$(PYTHON) benchmarks/parallel_bench.py

# The overhead gates on the fig2 quick preset, every side interleaved
# with identical tables required: disabled tracer <=3% over the recorded
# pre-tracing baseline, absent profiler <=3% over the pre-profiler
# baseline, fully-on profiler within its ns-per-scope budget, and each
# InvariantMonitor.check of a warn run within its ns-per-check budget.
# Every gate is printed; exits 1 if any failed (CI runs this).
bench-gates:
	$(PYTHON) benchmarks/parallel_bench.py --gates

# Benchmark result pins: every harness workload runs once at seed 1 and
# fails when its result digest differs from benchmarks/harness/digests.json;
# then the harness's own tests (CI runs this).
bench-digests:
	@for workload in flood-64b bulk-tcp http-vpg fleet-64; do \
		echo "== $$workload =="; \
		$(PYTHON) benchmarks/harness/run.py --workload $$workload --seconds 1 || exit 1; \
	done
	$(PYTHON) -m pytest benchmarks/harness

# Quick-preset result pins: all nine experiments at --quick --jobs 2
# under fail-fast invariants (packet conservation, bounded queues, ...),
# then the paper's claims table (repro.experiments.claims) on the
# envelopes, then each JSON envelope checked against
# benchmarks/quick_digests.sha256 (CI runs this; about 110-155 s on
# 2 vCPUs).  The claims run first so a change that declares new digests
# still sees whether the paper is reproduced; such a change regenerates
# the pins from that directory and says so.  Last, mitigation and chaos
# run again with the flight recorder armed and must match the same
# pins: instrumentation must not change results (about 12 s).
quick-digests:
	rm -rf quick_digests_output quick_digests_flight
	PYTHONHASHSEED=0 $(PYTHON) -m repro.experiments all --quick --jobs 2 --invariants fail-fast --json quick_digests_output --no-progress > /dev/null
	$(PYTHON) -m repro.experiments.claims quick_digests_output
	cd quick_digests_output && sha256sum -c ../benchmarks/quick_digests.sha256
	PYTHONHASHSEED=0 $(PYTHON) -m repro.experiments mitigation chaos --quick --jobs 2 --flight-recorder --invariants fail-fast --json quick_digests_flight --no-progress > /dev/null
	cd quick_digests_flight && grep -E ' (mitigation|chaos)\.json$$' ../benchmarks/quick_digests.sha256 | sha256sum -c -

# Fleet-scale kernel benchmark: 4/32/128/256-host flood scenarios on the
# multi-switch fabric, plus the gated (>=3x at >=128 hosts) timer-wheel
# vs per-sender-timer dispatch leg -> BENCH_parallel.json.
bench-fleet:
	$(PYTHON) benchmarks/fleet_bench.py

bench-fleet-smoke:
	$(PYTHON) benchmarks/fleet_bench.py --smoke

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

clean:
	rm -rf src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
