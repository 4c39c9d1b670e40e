# Convenience targets; everything runs with src/ on PYTHONPATH.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Worker count for the sharded soak/sweep targets.  0 means "one worker
# per CPU" (resolved by repro.util.parallel via os.cpu_count()).
JOBS ?= 0

.PHONY: test check chaos chaos-wide chaos-silent chaos-fabric \
        bench-parallel soak-parallel bench-pairs

# Tier-1 verify (the ROADMAP contract).
test:
	$(PYTHON) -m pytest -x -q

# The pre-merge gate: tier-1 tests, then the end-to-end benchmark at
# smoke length (its in-run checks fail the target; see
# benchmarks/e2e/README.md).
check: test
	$(PYTHON) benchmarks/e2e/run.py --quick

# A change against its parent on the end-to-end benchmark, in alternating
# pairs: PARENT's committed tree is exported to a temporary directory
# outside the repo (git archive, so nothing is registered in .git), and
# run.py runs there and in this working tree in turn, the parent first
# in odd pairs and the change first in even ones; compare.py then judges
# the two sets.  The result files stay in the printed directory.
#   make bench-pairs PARENT=<rev> [PAIRS=10] [SEED=0] [WORKLOAD="w1 w2"]
PAIRS ?= 10
SEED ?= 0
WORKLOAD ?=

bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [PAIRS=10] [SEED=0] [WORKLOAD=...]" >&2; exit 2; }
	@set -e; \
	out=$$(mktemp -d); \
	mkdir "$$out/parent"; \
	trap 'rm -rf "$$out/parent"' EXIT; \
	git archive --format=tar "$(PARENT)" | tar -x -C "$$out/parent"; \
	args="--seed $(SEED) $(foreach w,$(WORKLOAD),--workload $(w))"; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then tree="$$out/parent"; else tree="$(CURDIR)"; fi; \
			echo "pair $$i/$(PAIRS): $$side"; \
			n=$$(printf %02d $$i); \
			$(PYTHON) "$$tree/benchmarks/e2e/run.py" $$args \
				--out "$$out/$$side-$$n.json" > "$$out/$$side-$$n.log"; \
		done; \
	done; \
	echo "results in $$out"; \
	$(PYTHON) benchmarks/e2e/compare.py --parent "$$out"/parent-*.json \
		--change "$$out"/change-*.json

# Chaos soak: the fixed CI seed window under the invariant monitor
# (exits nonzero on any violation; see docs/chaos.md).
chaos:
	$(PYTHON) -m repro.bench.cli chaos --seeds 50 --jobs 2 --artifact chaos.json

# Wider sweep (minutes, not seconds) over every pool — the
# workflow_dispatch CI job.  Failing seeds shrink under the settings of
# the sweep that found them.
chaos-wide:
	$(PYTHON) -m repro.bench.cli chaos --seeds 2000 --jobs 2 --shrink
	$(PYTHON) -m repro.bench.cli chaos --seeds 2000 --silent --calibration --jobs 2 --shrink
	$(PYTHON) -m repro.bench.cli chaos --seeds 2000 --shape fat_tree --ranks 8 --jobs 2 --shrink
	$(PYTHON) -m repro.bench.cli chaos --seeds 2000 --shape flat --ranks 8 --jobs 2 --shrink

# Silent-degrade soak: bandwidth drops with no fault event announced,
# drift loop armed — the invariant monitor must stay silent too.
chaos-silent:
	$(PYTHON) -m repro.bench.cli chaos --seeds 50 --silent --calibration --jobs 2 --artifact chaos-silent.json

# Fabric chaos soak: 8-rank fat tree, spine outages / port flaps / pod
# partitions mixed into the episode pool, a re-planning alltoallv as
# the workload; then the same on flat switches, where the pool draws
# no spine outages (docs/fabric-faults.md; the CI windows).
chaos-fabric:
	$(PYTHON) -m repro.bench.cli chaos --seeds 25 --shape fat_tree --ranks 8 --jobs 2 --artifact chaos-fabric.json
	$(PYTHON) -m repro.bench.cli chaos --seeds 25 --shape flat --ranks 8 --jobs 2 --artifact chaos-flat.json

# Sharded bandwidth sweep: every (strategy, size) cell fanned out over
# $(JOBS) workers; output identical to the serial sweep.
bench-parallel:
	$(PYTHON) -m repro.bench.cli sweep --sizes 64K,256K,1M,4M,16M \
		--strategies hetero_split,iso_split,single_rail --jobs $(JOBS)

# Sharded chaos soak: per-seed scenarios fanned out over $(JOBS)
# workers; the soak artifact is byte-identical to a --jobs 1 run.
soak-parallel:
	$(PYTHON) -m repro.bench.cli chaos --seeds 200 --jobs $(JOBS)
