GO ?= go

.PHONY: all build vet lint test race bench profile fuzz cover captures ci

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
# single-flight run cache, the experiment fan-out, the timing core — SMT
# suites included — the emulator, whose memory shares each program's
# data image read-only across workers, and the trace collector every
# sweep worker writes to) plus the root-package determinism regression
# tests, which drive the fan-out end to end, and the oracle's SMT
# differential wall. CI's race job runs exactly this target.
race:
	$(GO) test -race ./internal/sched/... ./internal/runcache/... ./internal/exp/... ./internal/cpu/... ./internal/emu/... ./internal/obs/...
	$(GO) test -race -run Determinism .
	$(GO) test -race -run SMT ./internal/oracle ./cmd/dpbp

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# fuzz runs a short smoke of each native fuzz target against the
# differential oracle (the engine accepts one target per invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/oracle -fuzz FuzzDifferentialRun -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/oracle -fuzz FuzzConfigCanonical -fuzztime $(FUZZTIME) -run '^$$'

# cover enforces the total-statement coverage floor CI checks (the value
# measured when the floor was last raised, minus a small margin).
COVER_FLOOR ?= 76.9
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "ERROR: coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# captures checks the published captures: each results_*.txt starts with
# the dpbp command that regenerates it, and the rest of the file must
# equal that command's stdout byte for byte. Full budgets make it slow
# (~20 s on a 2-CPU host), so it is not part of tier-1.
CAPDIR ?= .captures
captures:
	mkdir -p $(CAPDIR)
	$(GO) build -o $(CAPDIR)/dpbp ./cmd/dpbp
	@for f in results_*.txt; do \
		line=$$(head -n 1 $$f); args=$${line#"\$$ go run ./cmd/dpbp"}; \
		if [ "$$args" = "$$line" ]; then echo "$$f: first line is not a dpbp command"; exit 1; fi; \
		echo "$$f:$$args"; \
		$(CAPDIR)/dpbp $$args > $(CAPDIR)/stdout.txt || exit 1; \
		tail -n +2 $$f | cmp - $(CAPDIR)/stdout.txt || exit 1; \
	done

# profile runs the full cached `-exp all` workload under the CPU and heap
# profilers. Inspect with `go tool pprof $(PROFDIR)/cpu.out` (or mem.out);
# this is the workload every hot-loop optimisation is judged against.
# cmd/dpbp/default.pgo, the profile `go build` uses to optimise the dpbp
# binary, is a copy of this target's cpu.out. After a change renames or
# rewrites hot functions, refresh it: run `make profile`, copy
# $(PROFDIR)/cpu.out to cmd/dpbp/default.pgo, and check that
# `make captures` still passes.
PROFDIR ?= profiles
profile:
	mkdir -p $(PROFDIR)
	$(GO) run ./cmd/dpbp -exp all \
		-cpuprofile $(PROFDIR)/cpu.out -memprofile $(PROFDIR)/mem.out \
		> /dev/null
	@echo "wrote $(PROFDIR)/cpu.out and $(PROFDIR)/mem.out"

ci: build vet lint test race
