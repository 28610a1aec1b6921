# Convenience wrapper around dune.  `make check` is the one-stop gate:
# full build, the whole test suite (unit + property + cram), an
# end-to-end trace validation of the telemetry pipeline, and the
# fault-injection stress pass.

TRACE := /tmp/fecsynth-smoke.ndjson
SMOKE_SPEC := len_G = 1 && len_d(G[0]) = 4 && len_c(G[0]) = 3 && md(G[0]) = 3

# Bench regression gate: the current PR's baseline file, the (fast,
# deterministic) experiment subset it runs, and the tolerated drift.
BENCH_OUT := BENCH_pr28.json
BENCH_GATE_EXPERIMENTS := ablation-card ablation-cex multibit sat table1
BENCH_GATE_THRESHOLD := 25
# ns_per_prop is wall-clock-derived (unlike the exact iteration/conflict
# counters), so on a 2-core box shared with other load it wobbles; the
# trend gate for it uses a looser threshold that still catches a real
# solver regression (undoing the core rewrite would show +135%).
BENCH_GATE_NSPROP_THRESHOLD := 50

LEDGER_SMOKE_DIR := /tmp/fecsynth-ledger-smoke

SERVE_SMOKE_DIR := /tmp/fecsynth-serve-smoke
# Heavier than SMOKE_SPEC on purpose: the cold CEGIS run must dwarf the
# cache hit's fixed cost (re-verification + one socket round trip) so
# the >= 10x speedup assertion is load-tolerant.
SERVE_SMOKE_SPEC := len_G = 1 && len_d(G[0]) = 11 && len_c(G[0]) = 5 && md(G[0]) = 4
# The daemon runs in the background while clients talk to it, so the
# smoke drives the built binary directly instead of letting concurrent
# `dune exec` invocations fight over the build lock.
FECSYNTH := _build/install/default/bin/fecsynth

# Chaos matrix budget: seeded SIGKILL-under-fault-injection trials
# against the serve daemon (see test/chaos.sh).  20 trials run in
# ~15 s; CI can shrink the matrix with FEC_CHAOS_ITERS.
FEC_CHAOS_ITERS ?= 20

.PHONY: all build test trace-smoke ledger-smoke serve-smoke obs-smoke stress chaos check bench bench-gate sat-bench clean

all: build

build:
	dune build

test: build
	dune runtest

# End-to-end: synthesize with tracing on, then require every trace line to
# parse and the expected event vocabulary to be present.
trace-smoke: build
	dune exec -- fecsynth synth --trace $(TRACE) --stats json -p '$(SMOKE_SPEC)' > /dev/null
	dune exec -- fecsynth trace check $(TRACE)

# Resilience gate, three layers:
#   1. the randomized cross-check harness under stall-only injection
#      (stalls must never change an answer; crash/interrupt faults would
#      break the oracles' exception contract by design);
#   2. the resilience suite (supervisor, checkpoint, budget edges, the
#      20-trial seeded crash matrix);
#   3. the CLI under a crash + spurious-interrupt matrix through the
#      supervised portfolio path — every run must still decide.
stress: build
	FEC_FAULT_SPEC="seed=9,stall_ms=1,sat.solve.stall=0.01" dune exec test/test_fuzz.exe
	dune exec test/test_resilience.exe
	for seed in 1 2 3; do \
	  FEC_FAULT_SPEC="seed=$$seed,sat.solve.crash=0.05:max=2,worker.start.crash=0.5:max=1,ctx.check.interrupt=0.05:max=3" \
	  dune exec -- fecsynth synth --portfolio --jobs 3 -p '$(SMOKE_SPEC)' > /dev/null || exit 1; \
	done
	@echo "stress: OK"

# End-to-end over the run ledger: record two real runs into a sandboxed
# ledger, then require the whole runs family to read them back — list,
# trend (threshold set far above noise so only plumbing can fail) and the
# dashboard's structural validator.
ledger-smoke: build
	rm -rf $(LEDGER_SMOKE_DIR)
	FEC_LEDGER_DIR=$(LEDGER_SMOKE_DIR) dune exec -- fecsynth synth -p '$(SMOKE_SPEC)' > /dev/null
	FEC_LEDGER_DIR=$(LEDGER_SMOKE_DIR) dune exec -- fecsynth synth -p '$(SMOKE_SPEC)' > /dev/null
	FEC_LEDGER_DIR=$(LEDGER_SMOKE_DIR) dune exec -- fecsynth runs list
	FEC_LEDGER_DIR=$(LEDGER_SMOKE_DIR) dune exec -- fecsynth runs trend --metric wall_s --threshold 1000000
	FEC_LEDGER_DIR=$(LEDGER_SMOKE_DIR) dune exec -- fecsynth runs html --check
	@echo "ledger-smoke: OK"

# End-to-end over the daemon: serve on a sandboxed socket/cache/ledger,
# submit one spec twice, require the second answer to be a cache hit at
# least 10x faster than the cold run (wall_s as the session measured
# it), then SIGTERM and require a drained, clean exit with both runs in
# the ledger.
serve-smoke: build
	@set -e; \
	rm -rf $(SERVE_SMOKE_DIR); mkdir -p $(SERVE_SMOKE_DIR); \
	FEC_LEDGER_DIR=$(SERVE_SMOKE_DIR)/ledger FEC_CACHE_DIR=$(SERVE_SMOKE_DIR)/cache \
	  $(FECSYNTH) serve --socket $(SERVE_SMOKE_DIR)/serve.sock \
	  2> $(SERVE_SMOKE_DIR)/serve.log & \
	pid=$$!; \
	for i in $$(seq 50); do \
	  test -S $(SERVE_SMOKE_DIR)/serve.sock && break; sleep 0.1; \
	done; \
	$(FECSYNTH) submit --socket $(SERVE_SMOKE_DIR)/serve.sock \
	  -p '$(SERVE_SMOKE_SPEC)' > $(SERVE_SMOKE_DIR)/first.json; \
	$(FECSYNTH) submit --socket $(SERVE_SMOKE_DIR)/serve.sock \
	  -p '$(SERVE_SMOKE_SPEC)' > $(SERVE_SMOKE_DIR)/second.json; \
	grep -q '"cache_hit":false' $(SERVE_SMOKE_DIR)/first.json; \
	grep -q '"cache_hit":true' $(SERVE_SMOKE_DIR)/second.json; \
	kill -TERM $$pid; wait $$pid; \
	grep -q 'drained' $(SERVE_SMOKE_DIR)/serve.log; \
	test $$(FEC_LEDGER_DIR=$(SERVE_SMOKE_DIR)/ledger \
	  $(FECSYNTH) runs list --cache-hits | awk 'NR>1' | wc -l) -eq 1; \
	cold=$$(grep -o '"wall_s":[0-9.e+-]*' $(SERVE_SMOKE_DIR)/first.json | cut -d: -f2); \
	hit=$$(grep -o '"wall_s":[0-9.e+-]*' $(SERVE_SMOKE_DIR)/second.json | cut -d: -f2); \
	awk -v c="$$cold" -v h="$$hit" 'BEGIN { \
	  r = c / h; \
	  printf "serve-smoke: cold %.6fs, cached %.6fs (%.1fx)\n", c, h, r; \
	  exit !(r >= 10) }'
	@echo "serve-smoke: OK"

# Fault-tolerance gate for the daemon: SIGKILL it at seeded random
# phases while FEC_FAULT_SPEC tears at the wire/cache/worker layers,
# then require a clean takeover restart every time — no stale-socket or
# pidfile lockout, zero corrupt cache entries, orphaned tmp files
# scavenged, the ledger parseable with the killed run recovered as a
# "crash" record — plus a deadline-carrying request against a stalled
# worker answered "timeout" on the wire instead of hanging.
chaos: build
	FEC_CHAOS_ITERS=$(FEC_CHAOS_ITERS) FECSYNTH=$(FECSYNTH) sh test/chaos.sh

# Observability gate for the daemon: /metrics scrape monotone, /healthz
# flips to draining on SIGTERM, a stalled-then-reaped worker leaves a
# parseable postmortem carrying its request id, and `trace report
# --request` attributes >= 90% of the reaped request's wall time; the
# runtime lens must land gc_* series + fec_build_info in the
# exposition, a "runtime" section in the daemon's trace report, and
# >= 95% wall coverage on a one-shot --runtime-lens run, with the
# disabled path allocating nothing (see test/obs_smoke.sh).
obs-smoke: build
	FECSYNTH=$(FECSYNTH) sh test/obs_smoke.sh

check: build test trace-smoke ledger-smoke serve-smoke obs-smoke stress chaos bench-gate
	@echo "check: OK"

# Quick benchmark pass (shrunken workloads); writes $(BENCH_OUT).
bench: build
	FEC_BENCH_SCALE=100 FEC_BENCH_OUT=$(BENCH_OUT) dune exec bench/main.exe

# Solver-only benchmark over the committed DIMACS corpus.  Each instance
# runs under a per-instance wall-clock timeout (FEC_SAT_TIMEOUT,
# seconds) and reports propagations/sec and conflicts/sec; the run
# self-records into the run ledger so `runs trend` can gate on
# ns_per_prop drift across checkouts.
sat-bench: build
	dune exec -- bench/main.exe sat

# Regression gate, two layers.  Layer 1 (pairwise): rerun the
# deterministic bench subset, write $(BENCH_OUT), and diff it against the
# newest *prior* committed baseline.  Wall-clock metrics are excluded
# (sub-millisecond instances make them pure noise); iteration and
# conflict counts must stay within $(BENCH_GATE_THRESHOLD)%.  With no
# prior baseline the run itself becomes the baseline and the gate passes.
# Layer 2 (trend): the bench run also records itself in the run ledger,
# so the gate ends by asking the ledger whether the latest iteration,
# conflict and ns_per_prop (SAT corpus propagation cost, lower is
# better) figures regressed against the median of all prior recorded
# bench runs — a single noisy baseline can no longer mask (or fake) a
# drift that pairwise diffing misses.  Every layer runs even when an
# earlier one fails, so one red verdict never hides another; the gate
# exits 1 at the end if any of them failed.
bench-gate: build
	@prev=$$(ls BENCH_*.json 2>/dev/null | grep -vx '$(BENCH_OUT)' | sort -V | tail -1); \
	failed=0; \
	FEC_BENCH_SCALE=100 FEC_BENCH_OUT=$(BENCH_OUT) \
	  dune exec -- bench/main.exe $(BENCH_GATE_EXPERIMENTS) > /dev/null; \
	if [ -n "$$prev" ]; then \
	  echo "bench-gate: diffing $$prev -> $(BENCH_OUT)"; \
	  dune exec -- fecsynth trace diff --threshold $(BENCH_GATE_THRESHOLD) \
	    --ignore wall_s \
	    "$$prev" $(BENCH_OUT) || failed=1; \
	else \
	  echo "bench-gate: no prior BENCH_*.json; $(BENCH_OUT) is the new baseline"; \
	fi; \
	echo "bench-gate: ledger trend verdict"; \
	dune exec -- fecsynth runs trend --subcommand bench \
	  --metric iterations --threshold $(BENCH_GATE_THRESHOLD) || failed=1; \
	dune exec -- fecsynth runs trend --subcommand bench \
	  --metric conflicts --threshold $(BENCH_GATE_THRESHOLD) || failed=1; \
	dune exec -- fecsynth runs trend --subcommand bench \
	  --metric ns_per_prop --threshold $(BENCH_GATE_NSPROP_THRESHOLD) || failed=1; \
	if [ $$failed -ne 0 ]; then echo "bench-gate: FAIL"; exit 1; fi

clean:
	dune clean
	rm -f $(TRACE)
