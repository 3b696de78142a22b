# Tier-1 verification: everything must build, vet clean, pass reuselint (the
# module's own static-analysis suite, see DESIGN.md §5f), pass the full test
# suite under the race detector (the experiment harness runs simulations
# concurrently, so -race is part of the gate, not an extra), emit a valid
# telemetry trace, and serve a lint-clean live observability surface.
.PHONY: check build vet lint lint-stats test race fuzz bench bench-baseline bench-all telemetry-check obs-check ckpt-check dbg-check report-check

check: build vet lint race telemetry-check obs-check ckpt-check dbg-check report-check

build:
	go build ./...

vet:
	go vet ./...

# Static-analysis gate: the six reuseiq analyzers (zerocost, hotalloc,
# exhaustive, metricname, statecov, determinism) over the whole module. The
# same binary also speaks the cmd/go vettool protocol, so a per-package run
# without the module-wide closure is: go build -o bin/reuselint ./cmd/reuselint &&
# go vet -vettool=bin/reuselint ./...
lint:
	go run ./cmd/reuselint ./...

# Same gate plus the per-analyzer finding and waiver counts. The waiver
# counts are the suppressed-finding budget; TestWaiverBudget pins them, so
# waiver creep fails CI rather than accumulating silently.
lint-stats:
	go run ./cmd/reuselint -stats ./...

test:
	go test ./...

race:
	go test -race ./...

# Telemetry gate: run a gating kernel with tracing on and validate the
# emitted Chrome trace JSON (well-formed, monotone timestamps, balanced
# begin/end pairs, RIQ state-machine slices present).
telemetry-check:
	@mkdir -p bench
	go run ./cmd/reusesim -kernel aps -trace bench/telemetry-check.json > /dev/null
	go run ./cmd/tracecheck -require-riq bench/telemetry-check.json
	rm -rf bench/telemetry-rec
	go run ./cmd/reusesim -kernel aps -flightrec bench/telemetry-rec > /dev/null
	go run ./cmd/reusedbg -dir bench/telemetry-rec -e "export bench/telemetry-window.json"
	go run ./cmd/tracecheck -window bench/telemetry-window.json

# Observability gate: spawn reusesim with a live -listen server, then validate
# it end to end with cmd/obscheck — exposition-format lint on /metrics, counter
# monotonicity across two scrapes, well-formed SSE frames from /events, and a
# decodable /status. The -linger window keeps the server up after the run so
# both scrapes land; obscheck kills the child when done.
# -ffwd attaches the fast-forward engine so its reuseiq_ffwd_* counters are
# part of the scraped surface (the live sampler vetoes actual skips, so the
# run itself is unchanged).
obs-check:
	go run -race ./cmd/obscheck -- go run -race ./cmd/reusesim -kernel aps -ffwd -listen 127.0.0.1:0 -linger 30s

# Checkpoint/restore gate: in-process save/restore lockstep smoke (plain and
# chaos), then a scripted kill -9 of a journaled reusebench sweep followed by
# -resume, requiring a byte-identical report and no double-counted cells.
ckpt-check:
	go run ./cmd/ckptcheck -- go run ./cmd/reusebench -figure 5 -sizes 32 -benchjson= -progress=false -ckpt-every 20000

# Run-ledger gate: two scripted runs into a fresh ledger, the regression
# sentinel must pass on identical fingerprints and fail on an injected
# one-count drift, and the /runs + /dashboard wire formats must match the
# golden skeletons (regenerate after intentional schema changes with
# go run ./cmd/reportcheck -update).
report-check:
	go run -race ./cmd/reportcheck

# Time-travel debugger gate: record a chaos run through the flight recorder,
# prove randomized seeks land on byte-identical images vs an uninterrupted
# run, drive every reusedbg command scripted, and validate the exported
# Perfetto window (see cmd/dbgcheck).
dbg-check:
	go run ./cmd/dbgcheck

# Coverage-guided fuzzing of the assembler (see internal/asm/fuzz_test.go)
# and the snapshot decoder (internal/snapshot/fuzz_test.go). Fully offline:
# the module has no dependencies, so no network or vendor directory is
# needed — the corpus seeds live in testdata. Override the budget with
# make fuzz FUZZTIME=2m. The snapshot run caps input minimization: a binary
# format makes nearly every mutation "interesting", and the default
# 60s-per-input minimization would stall the fuzzer.
FUZZTIME ?= 30s
fuzz:
	go test -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME) ./internal/asm/
	go test -fuzz=FuzzSnapshotDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/snapshot/

# Perf-regression gate: run the hot-loop, per-kernel and fast-forward
# benchmarks and compare against the checked-in baseline with cmd/benchdiff
# (a benchstat stand-in; no external tools). Fails on a >10% ns/op or
# allocs/op regression of any watched benchmark. BenchmarkKernel covers the
# eight paper kernels at IQ=32 and IQ=256 with reuse on. Regenerate the
# baseline with bench-baseline after an intentional perf change — on the
# same machine, so deltas mean something.
# Also rewrites BENCH_simcore.json (the Figure 5 sweep's simulated cycles,
# ns/cycle and allocs/cycle, plus cycles and ns/cycle per <kernel>/iq<n>
# cell) and diffs it against the copy it replaces (benchdiff -json gates
# ns_per_cycle, allocs_per_cycle and each cell's ns_per_cycle), and refreshes
# BENCH_ffwd.json, the ffwd-on/off wall-time comparison per figure section
# plus the loopmark sweep.
BENCH_RE    = ^(BenchmarkSimulatorSpeed|BenchmarkKernel|BenchmarkFastForward|BenchmarkFlightRecorder)$$
BENCH_WATCH = BenchmarkSimulatorSpeed,BenchmarkFastForward/on,BenchmarkFastForward/off,BenchmarkFlightRecorder/on,BenchmarkFlightRecorder/off,\
	BenchmarkKernel/adi/iq32,BenchmarkKernel/adi/iq256,BenchmarkKernel/aps/iq32,BenchmarkKernel/aps/iq256,\
	BenchmarkKernel/btrix/iq32,BenchmarkKernel/btrix/iq256,BenchmarkKernel/eflux/iq32,BenchmarkKernel/eflux/iq256,\
	BenchmarkKernel/tomcat/iq32,BenchmarkKernel/tomcat/iq256,BenchmarkKernel/tsf/iq32,BenchmarkKernel/tsf/iq256,\
	BenchmarkKernel/vpenta/iq32,BenchmarkKernel/vpenta/iq256,BenchmarkKernel/wss/iq32,BenchmarkKernel/wss/iq256
bench:
	@mkdir -p bench
	go test -run '^$$' -bench '$(BENCH_RE)' -benchmem -count 3 . | tee bench/latest.txt
	go run ./cmd/benchdiff -watch '$(BENCH_WATCH)' bench/baseline.txt bench/latest.txt
	cp BENCH_simcore.json bench/simcore-previous.json
	go run ./cmd/reusebench -figure 5 -benchjson BENCH_simcore.json -progress=false > /dev/null
	go run ./cmd/benchdiff -json bench/simcore-previous.json BENCH_simcore.json
	go run ./cmd/reusebench -ffwdjson BENCH_ffwd.json -sizes 32,64 -progress=false

bench-baseline:
	@mkdir -p bench
	go test -run '^$$' -bench '$(BENCH_RE)' -benchmem -count 3 . | tee bench/baseline.txt

# The full benchmark suite (tables, figures, ablations), no regression gate.
bench-all:
	go test -bench=. -benchmem
