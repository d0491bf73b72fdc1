# Convenience targets for the reproduction repository.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-slow test-all bench bench-quick bench-gates bench-digests quick-digests bench-fleet bench-fleet-smoke bench-mitigation bench-mitigation-smoke experiments experiments-quick examples timings clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

test-all:
	$(PYTHON) -m pytest tests/ -m "slow or not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Serial-vs-parallel wall-clock for every quick preset plus the four
# fig2 overhead legs (metrics, trace, profile, invariants) and their gates
# -> merged into BENCH_parallel.json.
bench-quick:
	$(PYTHON) benchmarks/parallel_bench.py

# The overhead gates on the fig2 quick preset, every side interleaved
# with identical tables required: disabled tracer <=3% over the recorded
# pre-tracing baseline, absent profiler <=3% over the pre-profiler
# baseline, fully-on profiler <=35% over absent, invariants=warn <=5%
# over absent.  Every gate is printed; exits 1 if any failed (CI runs
# this).
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
# each JSON envelope checked against benchmarks/quick_digests.sha256
# (CI runs this; about 110-155 s on 2 vCPUs).  A change that alters results
# on purpose regenerates the pins from that directory and says so.
quick-digests:
	rm -rf quick_digests_output
	PYTHONHASHSEED=0 $(PYTHON) -m repro.experiments all --quick --jobs 2 --invariants fail-fast --json quick_digests_output --no-progress > /dev/null
	cd quick_digests_output && sha256sum -c ../benchmarks/quick_digests.sha256

# Fleet-scale kernel benchmark: 4/32/128/256-host flood scenarios on the
# multi-switch fabric, plus the gated (>=3x at >=128 hosts) timer-wheel
# vs per-sender-timer dispatch leg -> BENCH_parallel.json.
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
