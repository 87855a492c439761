# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-datapath bench-scale bench-parallel lint lint-typed check telemetry-check fuzz-smoke golden-check golden-rebaseline golden-par exhibits extensions sweeps examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

# Datapath guardrails: engine event/timer costs, pooled packet
# forwarding and a backlog drain through one link.  Writes
# BENCH_engine.json; `--guardrail` fails on allocation regressions
# (words per event and per forwarded packet against the seed).
bench-datapath:
	dune exec bench/datapath.exe -- --guardrail

# Fabric-scale guardrails: minor words/event across 64 -> 4096 host
# fabrics (two-tier Clos, k=16 fat-tree, three-tier Clos) must stay
# flat (within 1.15x of the 64-host value) and the dense routing
# lookup must allocate zero minor words over 2M calls.  Appends the
# "scale" section to BENCH_engine.json (run bench-datapath first).
bench-scale:
	dune exec bench/scale.exe -- --guardrail

# Scaling bench: the fixed fig5 sweep at jobs {1,2,4,8} plus the
# partitioned single-scenario exhibit at jobs 1 vs 2.  Writes
# BENCH_parallel.json (core count, scaling array, single-scenario
# digest check; see README for the schema).  Always fails if any
# width's rows or the scenario digests differ (determinism).
# `--guardrail` additionally enforces, on multi-core hosts, the
# not-slower bound at the requested width and that the jobs=2 speedup
# has not regressed below the recorded baseline beyond the tolerance;
# single-core hosts skip the wall-clock checks with a JSON note.
bench-parallel:
	dune exec bench/parallel.exe -- --jobs 2 --guardrail

# Static analysis: determinism & hot-path policy (see DESIGN.md
# "Static analysis: simlint" and `simlint --list-rules`).  Exits
# non-zero on any finding not covered by an inline pragma or
# simlint.allow.
lint:
	dune exec bin/simlint.exe -- --root . lib bin bench

# Typed tier on top of the AST rules: loads the .cmt files of the
# build just made and runs the interprocedural domain-safety and
# hot-path rules (P101/P102/H102) as well.  Requires `dune build`
# first (`dune exec` below guarantees it for the lint binary, the
# explicit build covers the analyzed libraries).
lint-typed:
	dune build @all
	dune exec bin/simlint.exe -- --root . --typed lib bin bench

# Verification harness smoke: replay the checked-in crash corpus, then
# run a seeded fuzz campaign (oracles + differential pairings on every
# case) under a wall-clock cap.  Any oracle violation or digest
# divergence exits non-zero and leaves a shrunk repro in test/corpus/.
fuzz-smoke:
	dune exec bin/mtp_sim.exe -- fuzz --replay test/corpus
	dune exec bin/mtp_sim.exe -- fuzz --cases 200 --seed 1 --budget-s 120

# Golden exhibit digests: re-run `all --smoke` (no timings in its
# output) and compare one MD5 per exhibit against
# test/golden/all_smoke.digests, naming every exhibit that changed.
# The partitioned exhibit (`par-leafspine`, not part of `all`) is
# pinned the same way, once per transport, in
# test/golden/par_leafspine.digests.  About a minute, so it stays out
# of `dune runtest`.
golden-check:
	dune build bin/mtp_sim.exe test/golden/golden.exe
	./_build/default/bin/mtp_sim.exe all --smoke > _build/golden_smoke.txt
	./_build/default/test/golden/golden.exe --check test/golden/all_smoke.digests < _build/golden_smoke.txt
	$(MAKE) --no-print-directory golden-par > _build/golden_par.txt
	./_build/default/test/golden/golden.exe --check test/golden/par_leafspine.digests < _build/golden_par.txt

# Rewrite the golden digests from the current tree.  Only on purpose:
# every use must be recorded in CHANGES.md with the exhibit rows that
# changed (before -> after) and why.
golden-rebaseline:
	dune build bin/mtp_sim.exe test/golden/golden.exe
	./_build/default/bin/mtp_sim.exe all --smoke > _build/golden_smoke.txt
	./_build/default/test/golden/golden.exe < _build/golden_smoke.txt > test/golden/all_smoke.digests
	$(MAKE) --no-print-directory golden-par > _build/golden_par.txt
	./_build/default/test/golden/golden.exe < _build/golden_par.txt > test/golden/par_leafspine.digests

# The partitioned exhibit's pinned runs, on stdout.
golden-par:
	@./_build/default/bin/mtp_sim.exe par-leafspine --jobs 1
	@./_build/default/bin/mtp_sim.exe par-leafspine --jobs 1 --transport mtp

# CI gate: full build, the test suite, a quick datapath bench that
# must produce the allocation/throughput guardrail report, the
# fabric-scale sweep with its words-stay-flat guardrail, the
# parallel-runner scaling bench with its not-slower guardrail, a
# shortened failover run exercising fault injection end to end, a
# parallel `all --smoke` pass regenerating every exhibit on two
# domains, the golden exhibit digests, a telemetry export check
# (JSONL parses, same-seed runs byte-identical), and the corpus-replay
# + seeded-fuzz smoke.
check:
	dune build @all
	$(MAKE) lint
	$(MAKE) lint-typed
	dune runtest --force
	$(MAKE) fuzz-smoke
	rm -f BENCH_engine.json
	$(MAKE) bench-datapath
	$(MAKE) bench-scale
	test -f BENCH_engine.json
	$(MAKE) bench-parallel
	test -f BENCH_parallel.json
	dune exec bin/mtp_sim.exe -- failover --duration-ms 16 --fail-ms 5 --detect-ms 3 --restore-ms 11
	dune exec bin/mtp_sim.exe -- all --smoke --jobs 2 > /dev/null
	$(MAKE) golden-check
	$(MAKE) telemetry-check

# Run one exhibit twice with telemetry export on: the JSONL trace must
# parse line by line and both same-seed runs must be byte-identical.
telemetry-check:
	rm -rf _telemetry_check && mkdir -p _telemetry_check
	dune exec bin/mtp_sim.exe -- fig5 --duration-ms 2 --trace _telemetry_check/t1.jsonl --metrics _telemetry_check/m1.csv > /dev/null
	dune exec bin/mtp_sim.exe -- fig5 --duration-ms 2 --trace _telemetry_check/t2.jsonl --metrics _telemetry_check/m2.csv > /dev/null
	cmp _telemetry_check/t1.jsonl _telemetry_check/t2.jsonl
	cmp _telemetry_check/m1.csv _telemetry_check/m2.csv
	python3 -c "import json,sys; [json.loads(l) for l in open('_telemetry_check/t1.jsonl')]; print('trace JSONL ok')"
	head -1 _telemetry_check/m1.csv | grep -q '^run,metric,kind,field,value$$'
	rm -rf _telemetry_check

exhibits:
	dune exec bin/mtp_sim.exe -- all

extensions:
	dune exec bin/mtp_sim.exe -- extensions

sweeps:
	dune exec bin/mtp_sim.exe -- sweeps

examples:
	dune exec examples/quickstart.exe
	dune exec examples/innetwork_cache.exe
	dune exec examples/multipath_blob.exe
	dune exec examples/tenant_isolation.exe
	dune exec examples/ml_aggregation.exe
	dune exec examples/rpc_loadbalancer.exe
	dune exec examples/ndp_incast.exe

clean:
	dune clean
