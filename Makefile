GO ?= go

.PHONY: all build vet lint test race bench bench-json bench-diff profile fuzz cover serve-smoke serve-bench ci

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus the repo's own invariant suite (see
# internal/analysis and cmd/dpbplint).
lint:
	$(GO) run ./cmd/dpbplint ./...

test:
	$(GO) test ./...

# race covers the packages where concurrency lives (the scheduler, the
# experiment fan-out, the timing core — SMT suites included — the
# shared predictor overlays, and the dpbpd sweep server) plus the
# root-package determinism regression tests, which drive the fan-out
# end to end, and the oracle's SMT differential wall.
race:
	$(GO) test -race ./internal/sched/... ./internal/exp/... ./internal/cpu/... ./internal/replay/... ./internal/serve/...
	$(GO) test -race -run Determinism .
	$(GO) test -race -run SMT ./internal/oracle ./cmd/dpbp

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-json emits the root-package benchmarks (the per-figure experiment
# benches and the allocation benches) as machine-readable go-test JSON
# events on stdout, for diffing against BENCH_seed.json.
BENCHTIME ?= 1x
bench-json:
	@$(GO) test -json -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' .

# bench-diff renders the committed benchmark baselines side by side:
# ns/op and allocs/op per file, with each column's speedup against the
# seed. Cross-file ns/op ratios are only trustworthy when the files were
# captured in the same machine window (see EXPERIMENTS.md).
BENCH_FILES ?= BENCH_seed.json BENCH_pr3.json BENCH_pr8.json
bench-diff:
	@$(GO) run ./cmd/benchfmt $(BENCH_FILES)

# fuzz runs a short smoke of each native fuzz target against the
# differential oracle (the engine accepts one target per invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/oracle -fuzz FuzzDifferentialRun -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/oracle -fuzz FuzzConfigCanonical -fuzztime $(FUZZTIME) -run '^$$'

# cover enforces the total-statement coverage floor CI checks (the value
# measured when the floor was introduced, minus a small margin).
COVER_FLOOR ?= 72.0
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "ERROR: coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# profile runs the full cached `-exp all` workload under the CPU and heap
# profilers. Inspect with `go tool pprof $(PROFDIR)/cpu.out` (or mem.out);
# this is the workload every hot-loop optimisation is judged against.
PROFDIR ?= profiles
profile:
	mkdir -p $(PROFDIR)
	$(GO) run ./cmd/dpbp -exp all \
		-cpuprofile $(PROFDIR)/cpu.out -memprofile $(PROFDIR)/mem.out \
		> /dev/null
	@echo "wrote $(PROFDIR)/cpu.out and $(PROFDIR)/mem.out"

# serve-smoke drives the dpbpd sweep server end to end: start it,
# submit a sweep twice, schema-check the streamed NDJSON and /metrics,
# and assert the streamed document is byte-identical to the equivalent
# `dpbp -format json` run (warm repeat included).
serve-smoke:
	bash scripts/serve_smoke.sh

# serve-bench runs a short self-hosted loadgen burst (20 clients x 3
# sweeps, mixed warm/cold) and writes the throughput/latency report;
# BENCH_pr9_serve.json is a committed capture of this target.
SERVE_BENCH_OUT ?= BENCH_pr9_serve.json
serve-bench:
	$(GO) run ./cmd/dpbpd -swarm 20 -requests 3 -workers 4 -queue 16 -out $(SERVE_BENCH_OUT)

ci: build vet lint test race serve-smoke
