# Convenience targets; everything runs with src/ on PYTHONPATH.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Worker count for the sharded soak/sweep targets.  0 means "one worker
# per CPU" (resolved by repro.util.parallel via os.cpu_count()).
JOBS ?= 0

.PHONY: test check chaos chaos-wide chaos-silent chaos-fabric \
        bench-parallel soak-parallel

# Tier-1 verify (the ROADMAP contract).
test:
	$(PYTHON) -m pytest -x -q

# The pre-merge gate: tier-1 tests, then the end-to-end benchmark at
# smoke length (its in-run checks fail the target; see
# benchmarks/e2e/README.md).
check: test
	$(PYTHON) benchmarks/e2e/run.py --quick

# Chaos soak: the fixed CI seed window under the invariant monitor
# (exits nonzero on any violation; see docs/chaos.md).
chaos:
	$(PYTHON) -m repro.bench.cli chaos --seeds 50

# Wider sweep (minutes, not seconds) — the workflow_dispatch CI job.
chaos-wide:
	$(PYTHON) -m repro.bench.cli chaos --seeds 2000 --shrink

# Silent-degrade soak: bandwidth drops with no fault event announced,
# drift loop armed — the invariant monitor must stay silent too.
chaos-silent:
	$(PYTHON) -m repro.bench.cli chaos --seeds 50 --silent --calibration

# Fabric chaos soak: 8-rank fat tree, spine outages / port flaps / pod
# partitions mixed into the episode pool, a re-planning alltoallv as
# the workload (docs/fabric-faults.md; the CI window).
chaos-fabric:
	$(PYTHON) -m repro.bench.cli chaos --seeds 25 --shape fat_tree --ranks 8

# Sharded bandwidth sweep: every (strategy, size) cell fanned out over
# $(JOBS) workers; output identical to the serial sweep.
bench-parallel:
	$(PYTHON) -m repro.bench.cli sweep --sizes 64K,256K,1M,4M,16M \
		--strategies hetero_split,iso_split,single_rail --jobs $(JOBS)

# Sharded chaos soak: per-seed scenarios fanned out over $(JOBS)
# workers; the soak artifact is byte-identical to a --jobs 1 run.
soak-parallel:
	$(PYTHON) -m repro.bench.cli chaos --seeds 200 --jobs $(JOBS)
