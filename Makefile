.PHONY: all build test lint bench-smoke bench-sweep check clean

all: build

build:
	dune build

test:
	dune runtest

# Lint the shipped example fixtures with every registered pass.
lint: build
	dune exec bin/batfish_cli.exe -- lint --strict examples/configs/clean_small

# Fast benchmark subset: exercises the sharded parallel verification engine
# (and fails if parallel results ever diverge from the sequential engine) and
# writes machine-readable BENCH_results.json for the perf trajectory.
# Fails (exit 1) when any parallel/incremental record diverges from the
# sequential engine, or when a single-edit incremental.* record reports
# nodes_reused = 0 — the per-node route-delta reuse must actually engage.
bench-smoke: build
	dune exec bench/main.exe -- smoke --scale 1

# Grouped vs ungrouped all-pairs scale sweep (schema 8 "sweep" section of
# BENCH_results.json): a per-start loop of Fquery.pairs_for_start against
# Fquery.all_pairs, with wall time, group counts and BDD node counts across
# several NET12 scale factors. Exits 1 if the two sides ever answer
# differently, if grouping fails to win at the largest factor, or if
# grouped all-pairs is not >= 2x faster there at >= 500 devices. --scale 2
# adds the ~1k-device point.
bench-sweep: build
	dune exec bench/main.exe -- sweep --scale 1

# The full gate: everything compiles, every test passes (which includes
# linting the example fixtures via the runtest alias), the repository
# benchmark's own suite passes (its API calls and answer digests), and the
# bench smoke subset runs to completion. The steps run one after another:
# the benchmark suite takes both cores and must not share them with runtest.
check:
	dune build
	dune runtest
	dune build @perfbench/selftest
	$(MAKE) bench-smoke

clean:
	dune clean
