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

# same, plus the machine-readable BENCH.json for cross-PR perf diffing
bench-json:
	dune exec bench/main.exe -- $(if $(JOBS),--jobs $(JOBS),) --json BENCH.json

# one quick pass over the experiment harness (laptop-scale defaults;
# AFD_BENCH_LARGE=1 adds the n=3 tree)
bench-smoke:
	dune exec bench/main.exe

# throughput gate: re-run the experiment matrix and fail (exit 1) if
# the aggregate transitions/sec regressed more than MAX_REGRESSION
# percent (default 30) against the checked-in baseline
perf:
	dune exec bench/main.exe -- --smoke $(if $(JOBS),--jobs $(JOBS),) --baseline BENCH_baseline.json $(if $(MAX_REGRESSION),--max-regression $(MAX_REGRESSION),)

clean:
	dune clean
