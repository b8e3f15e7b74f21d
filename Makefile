# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test lint mc check churn bench bench-json bench-smoke perf clean

all: build

build:
	dune build @all

# unit + property tests, plus the model lint gating the suite
test:
	dune runtest

# the static well-formedness analysis over the automaton catalog
lint:
	dune exec bin/afd_lint.exe

# exhaustive mode: graph lint rules over every reachable state, plus
# the safety model checker proving the catalog specs on the closed
# detector+crash product (a smoke pass also runs in `dune runtest`);
# JOBS=n shards the frontier across n domains with identical verdicts;
# SYMMETRY=1 runs the equivariance analyzer (certified subjects
# explore orbit representatives, breaking ones get a named witness)
# and re-verifies every CHK subject under its declared quotient,
# climbing the parametric cutoff ladder for certified ones
mc:
	dune exec bin/afd_lint.exe -- --mc $(if $(MAX_STATES),--max-states $(MAX_STATES),) $(if $(JOBS),--jobs $(JOBS),) $(if $(SYMMETRY),--symmetry,)

# online property monitors vs offline trace checks over the detector
# catalog, streaming with no trace materialized (smoke mode also runs
# as part of `dune runtest`)
check:
	dune exec bin/afd_sim.exe -- check $(if $(JOBS),--jobs $(JOBS),)

# the mega discrete-event churn simulator (smoke matrix also runs in
# `dune runtest` and CI); override scale with PROCS/EVENTS, e.g.
#   make churn PROCS=1000000 EVENTS=10000000
churn:
	dune exec bin/afd_sim.exe -- churn $(if $(PROCS),--procs $(PROCS),) $(if $(EVENTS),--events $(EVENTS),) $(if $(DETECTOR),--detector $(DETECTOR),) $(if $(TOPOLOGY),--topology $(TOPOLOGY),) $(if $(SEED),--seed $(SEED),)

# the full experiment harness; the E1-E7 matrix runs on all available
# cores (override with JOBS=n)
bench:
	dune exec bench/main.exe -- $(if $(JOBS),--jobs $(JOBS),)

# same, plus the machine-readable BENCH.json (deterministic: the same
# bytes at any JOBS, so verdict changes diff cleanly across commits)
bench-json:
	dune exec bench/main.exe -- $(if $(JOBS),--jobs $(JOBS),) --json BENCH.json

# one quick pass over the experiment harness (laptop-scale defaults;
# AFD_BENCH_LARGE=1 adds the n=3 tree)
bench-smoke:
	dune exec bench/main.exe

# same-host A/B of the repository benchmark (BENCHMARK.json): builds
# HEAD~1 in a git worktree, runs 5 pairs of
# `benchmark/main.exe --all --seconds 10` (parent and change, the
# order alternating from pair to pair), merges each side's runs into
# .perf/parent.json and .perf/change.json, and fails when
# `benchmark/main.exe --compare` flags a workload whose end-to-end
# metric is worse than its bound or a deterministic count that
# differs (log in .perf/compare.log).  About 10 minutes on 2 cores.
# Both binaries run from paths of one length: the executable's path
# is allocated at start-up, and that alone moved churn's peak_heap_mb
# by 6% between byte-identical binaries.
perf:
	dune build benchmark/main.exe
	git worktree remove --force .perf/parent 2>/dev/null || true
	rm -rf .perf && git worktree prune && mkdir .perf
	git worktree add --detach .perf/parent HEAD~1
	cd .perf/parent && dune build --root . benchmark/main.exe
	cp .perf/parent/_build/default/benchmark/main.exe .perf/parent.exe
	cp _build/default/benchmark/main.exe .perf/change.exe
	git worktree remove --force .perf/parent
	set -e; for i in 1 2 3 4 5; do \
	  if [ $$((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
	  for side in $$order; do \
	    echo "perf: pair $$i, $$side"; \
	    .perf/$$side.exe --all --seconds 10 --runs 1 --json .perf/$$side-$$i.json \
	      > .perf/$$side-$$i.log; \
	  done; \
	done
	for side in parent change; do \
	  { printf '{"runs":['; \
	    for i in 1 2 3 4 5; do sed -e 's/^{"runs":\[//' -e 's/\]}$$//' .perf/$$side-$$i.json; echo; done \
	      | paste -sd, - | tr -d "\n"; \
	    printf ']}'; } > .perf/$$side.json; \
	done
	.perf/change.exe --compare .perf/parent.json .perf/change.json > .perf/compare.log; \
	  status=$$?; cat .perf/compare.log; exit $$status

clean:
	dune clean
