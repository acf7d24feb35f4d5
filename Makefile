PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench sweep validate cache-stats clean-cache \
	docs-links multidomain-smoke service-smoke placement-smoke \
	scenarios-smoke

test:
	$(PYTHON) -m pytest -x -q

# Tiny mix through the parallel runner with 2 workers; exits non-zero
# if the epoch loop, cache, savings sanity checks, or the capped leg
# (a 2-point power-budget sweep through the cap governor) fail.
bench-smoke:
	$(PYTHON) -m repro bench --smoke --jobs 2

# Smoke mix with the DDR3 protocol validator armed in every simulated
# run (timing, freeze-window, refresh, powerdown, and conservation
# checks raise on the first violation).
validate:
	$(PYTHON) -m repro bench --smoke --jobs 2 --validate --no-cache

# Micro-benchmarks (pytest-benchmark; declared in the [bench] extra).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Two-point multi-domain budget sweep with acceptance checks: the
# coordinated governor must post zero ledger violations, beat the
# memory-only split on system energy, and (at the tight point) find a
# feasible pair where neither domain alone could meet the cap.
multidomain-smoke:
	$(PYTHON) -m repro multidomain --smoke

# Rank-aware placement acceptance run: short-epoch MID1 with the DDR3
# protocol validator armed; the placed leg (page migration + self-
# refresh parking) must beat plain MemScale on memory energy with zero
# violations, ranks actually parked, the CPI bound respected, and the
# migration copy ledger conserved.
placement-smoke:
	$(PYTHON) -m repro placement --smoke

# Crash-safe sweep service end to end: tiny sweep with one injected
# failing job (isolated as a failure record, not a sweep-wide raise),
# resume executing only the unfinished job, and a store digest check
# against an uninterrupted serial sweep. Leaves the queue + result
# store in .repro_service_smoke/ for inspection (`repro query --dir`).
service-smoke:
	$(PYTHON) -m repro service smoke

# Scenario-subsystem acceptance run, validator-armed end to end: the
# bundled k6 trace must import and replay byte-identically (serial,
# parallel, fast-forward off), every MPKI-ladder rung runs clean under
# MemScale, and on each device table MemScale must beat Static within
# the CPI bound while STT-MRAM shows its standby-power shift. Leaves
# summary.json + the smoke cache in .repro_scenarios_smoke/.
scenarios-smoke:
	$(PYTHON) -m repro scenarios --smoke --jobs 2

# Fail on dangling intra-repo references in README/docs/EXPERIMENTS/
# DESIGN (markdown links and backtick-quoted paths).
docs-links:
	$(PYTHON) tools/check_docs_links.py

cache-stats:
	$(PYTHON) -m repro cache

sweep:
	$(PYTHON) -m repro sweep --mixes ILP1 MID1 MID2 MEM1 \
	    --policies MemScale Static Decoupled --jobs 2

clean-cache:
	rm -rf .repro_cache
