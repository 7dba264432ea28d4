# CI entry points. `make ci` is the gate: lint + vet + build + full test
# suite + a short -race job over the concurrency-bearing packages (the
# live CSP runtime, the harness, and the scenario engine, whose
# differential test exercises goroutine-per-node execution) + the
# backend smoke job + the benchmark module's toy test + every example.
# `.github/workflows/ci.yml` runs the gate on every push/PR, plus the
# baseline-drift, vuln and gobench jobs.

GO ?= go

# staticcheck is pinned so CI results do not shift under our feet when
# upstream adds checks; bump deliberately. Like govulncheck, the tool
# may be absent offline — `lint` soft-fails on absence (CI installs it).
STATICCHECK_VERSION ?= 2024.1.1

RACE_PKGS = ./internal/sim/... ./internal/harness/... ./internal/scenario/... ./internal/netrun/... ./internal/detect/... ./internal/metrics/... ./internal/auditlog/...

.PHONY: ci lint vet build test race smoke benchtest examples bench gobench fuzz matrix regen drift traffic vuln loc clean

# (lint already ends with `go vet ./...`, so `vet` is not repeated here.)
ci: lint build test race smoke benchtest examples

# gofmt -l prints unformatted files; any output fails the target.
# staticcheck mirrors the vuln soft-fail pattern: absent tool = warning,
# present tool = hard gate (CI installs the pinned version).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "make lint: gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "make lint: staticcheck not installed — soft-fail (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short skips the full 108-run differential matrix under the race
# detector (the plain `test` target runs it undetected; race coverage
# of the engine comes from its smaller concurrency tests). The second
# job repeats the tcp transport's tests ten times under the detector:
# a direction's pending slice is shared by its node loop, its writer
# and killLink. It goes through smoke_run (see smoke), so a renamed
# test fails the job. The third repeats core's pooled-token run on the
# live runtime ten times: Search tokens go back to a pool shared by
# every node goroutine, so a token released twice or touched after its
# release shows up as a race report.
RACE_TRANSPORT = TestDeadWriterSettlesDeficit|TestWriterFlushPolicy|TestSendPathsWithBatching|TestHelloDecoderHandoffSurvivesBurst

race:
	$(GO) test -race -short $(RACE_PKGS)
	$(call smoke_run,$(RACE_TRANSPORT),./internal/netrun/,-race -count=10)
	$(call smoke_run,TestPooledSearchTokensOnLive,./internal/core/,-race -count=10)

# Backend smoke: the live (goroutine/channel) and tcp (loopback socket)
# execution backends each drive a tiny run end to end through the shared
# harness orchestration, so backend plumbing cannot silently rot. The
# event jobs pair the discrete-event core against the compat loop
# (differential outcome + frontier parking + StartPath closure), so the
# dual-core contract is checked on every CI run, not only in the full
# test pass.
# -short tightens the wall-clock deadlines (see smokeTuning). The detect
# job covers the convergence-detection subsystem both drivers now rest
# on (sequential reference detector + certificate logic); the
# retry-policy job exercises the suppress and backoff retry policies on
# live AND tcp, not just the deterministic simulator; the tcp-batch job
# drives a batch>1 cluster through the certificate path (coalesced wire
# frames must not change the outcome — see
# TestBatchedTCPDifferentialOutcome).
# The control-channel job covers the quiescence probe, the shedding of
# a client that disconnects mid-request or sends anything but a probe
# request, and the send counters the metrics stream reads in-process.
# The metrics job runs live+tcp asserting a non-empty snapshot stream
# and cross-backend-identical audit chain heads (those two harness
# tests skip under -short, so the job runs them without it — they
# finish in well under a second).
# Every job with a -run pattern goes through smoke_run, which first
# lists each |-separated name with `go test -list` and fails when one
# matches no test: a deleted or renamed test would otherwise leave its
# job green with "[no tests to run]".
define smoke_run
	@for name in $$(echo '$(1)' | tr '|' ' '); do \
		$(GO) test -list "$$name" $(2) | grep -Eq '^(Test|Example|Fuzz|Benchmark)' || \
			{ echo "make smoke: -run name $$name matches no test in $(2)"; exit 1; }; \
	done
	$(GO) test $(3) -run '$(1)' $(2)
endef

smoke:
	$(GO) test -short ./internal/detect/
	$(call smoke_run,TestBackend|TestParseBackend|TestTuning,./internal/harness/,-short)
	$(call smoke_run,TestSuppressionSmokeLiveTCP|TestSuppressionSimDeterministicCounter|TestBackoffSmokeLiveTCP,./internal/harness/,-short)
	$(call smoke_run,TestControlChannel|TestControlClientDisconnectMidRequest|TestUnknownControlRequestDropsConnection|TestSentAccumulates,./internal/netrun/,-short)
	$(call smoke_run,TestBatchedTCPDifferentialOutcome|TestBackendTCPZeroRestartsOnConvergence,./internal/harness/,-short)
	$(call smoke_run,TestBatch|TestTCPBatchedWheelConverges,./internal/netrun/,-short)
	$(GO) test -short ./cmd/mdstnet/
	$(call smoke_run,TestRunEvents,./internal/sim/,-short)
	$(call smoke_run,TestEventEngine|TestParseEngine|TestStartPathClosure,./internal/harness/,-short)
	$(call smoke_run,TestMetricsWallBackends|TestAuditChainGenesisCrossBackend,./internal/harness/)

# The repository benchmark (benchmark/) is its own Go module, so the root
# `go test ./...` does not reach its test. That test runs every workload
# at toy size (~5 s): the emitted metric names must match
# BENCHMARK.json, no run may fail, the traced repetition must replay the
# untraced one, and two invocations with one seed must print one
# behaviour digest — the contract a simulator optimisation must keep.
benchtest:
	cd benchmark && $(GO) test ./...

# Every example under examples/, with its default flags (~19 s on 2
# vCPUs). Each one exits non-zero when a run it makes does not end
# legitimate, so an example that breaks at run time fails the gate.
EXAMPLES = adhoc faultrecovery livenet p2p quickstart tcpcluster

examples:
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# The committed benchmark. BENCH_scale.json (the n=256/512/1024 ladder
# on the incremental simulator hot path, the event-core closure cells at
# n=4096/16384, plus the fingerprint work saved against a full rehash) holds
# deterministic fields only — byte-stable across machines, so it is also
# a drift gate. Wall-clock costs are the repository benchmark's
# (benchmark/), not a committed file's.
bench:
	$(GO) run ./cmd/mdstmatrix -scale > BENCH_scale.json.tmp
	mv BENCH_scale.json.tmp BENCH_scale.json
	@tail -6 BENCH_scale.json

# Reduced-sweep Go benchmark pass (one iteration per benchmark) over
# every package that declares Go benchmarks: the root package's
# experiment benches, the protocol's corrupt-start recovery per exchange,
# the simulator's round and allocation benches, the harness's n=16384
# path-start closure run and the tcp wire codec's frame round trip.
gobench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core/ ./internal/sim/ ./internal/harness/ ./internal/netrun/

# Fuzz every decoder that reads untrusted bytes: the tcp frame, the
# control channel's probe request and its reply, and the edge-list
# graph parser behind `mdstsim -stdin`, each for FUZZTIME (go test runs
# one -fuzz target per invocation). The committed seed corpora under
# internal/netrun/testdata/fuzz and FuzzRead's seeds also run in plain
# `go test`.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/netrun/
	$(GO) test -run '^$$' -fuzz '^FuzzProbeRequest$$' -fuzztime $(FUZZTIME) ./internal/netrun/
	$(GO) test -run '^$$' -fuzz '^FuzzProbeReply$$' -fuzztime $(FUZZTIME) ./internal/netrun/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/graph/

# The default 108-run scenario matrix across all CPUs.
matrix:
	$(GO) run ./cmd/mdstmatrix

# Baseline drift: `regen` writes the three committed deterministic
# artifacts — the 108-run default matrix JSON (chain exchange), the
# 216-run literal matrix JSON (the paper's Remove/Back exchange) and
# BENCH_scale.json — into $(DRIFT_OUT)/, where CI uploads them when the
# check fails, and `drift` fails on any byte difference from the
# committed files, enforcing the determinism contract on every CI run
# (wall-clock runs are not byte-reproducible, so their cross-backend
# claims are tested in internal/scenario's TestCrossBackendDifferential
# instead).
# The matrix is pinned to -engines compat explicitly: the committed
# matrix bytes are a compat-core artifact, and the pin keeps them stable
# even if the default engine axis ever changes. BENCH_scale.json is
# dual-core by construction (compat ladder + event-core closure cells).
LITERAL_MATRIX = -variants literal -engines compat -families ring+chords,gnp,geometric -sizes 16,24 -scheds sync,async,adversarial -faults none,corrupt:3,lossy:0.05 -retry paper,backoff -seeds 2

DRIFT_OUT ?= drift-out

# Each artifact is redirected, not piped, so a failing `go run` fails
# the target instead of showing up as a diff.
regen:
	mkdir -p $(DRIFT_OUT)
	$(GO) run ./cmd/mdstmatrix -engines compat -format json -quiet > $(DRIFT_OUT)/default_matrix_pr2.json
	$(GO) run ./cmd/mdstmatrix $(LITERAL_MATRIX) -format json -quiet > $(DRIFT_OUT)/literal_matrix.json
	$(GO) run ./cmd/mdstmatrix -scale -quiet > $(DRIFT_OUT)/BENCH_scale.json

drift: regen
	diff $(DRIFT_OUT)/default_matrix_pr2.json internal/scenario/testdata/default_matrix_pr2.json
	diff $(DRIFT_OUT)/literal_matrix.json internal/scenario/testdata/literal_matrix.json
	diff $(DRIFT_OUT)/BENCH_scale.json BENCH_scale.json
	@echo "make drift: committed baselines byte-identical"

# Coverage of the committed traffic: which functions the repository's own
# runs never execute. It rebuilds every command, the examples and the
# benchmark with coverage of every mdst package into $(DRIFT_OUT)/traffic,
# runs the three drift commands, mdstbench's default suite, -exp fit and
# both -series, the usage lines of mdstsim, graphgen, mdstnet and mdstviz
# at small sizes, every example with its default flags and every benchmark
# workload (one repetition plus the traced one), then prints the functions
# no run reached (about 8 min on 2 vCPUs; not part of ci). The list is
# evidence, not a deletion order: safety code that a correct run never
# needs (detect.Detector.Reset, netrun's Cluster.killLink, sim.Board.Lost)
# stays, and so does code that tests call (mdstseq.HillClimb,
# mdstseq.FindDirectImprovement).
TRAFFIC = $(abspath $(DRIFT_OUT))/traffic

traffic: export GOCOVERDIR = $(TRAFFIC)/cov
traffic:
	rm -rf $(TRAFFIC)
	mkdir -p $(TRAFFIC)/bin $(TRAFFIC)/cov $(TRAFFIC)/out
	$(GO) build -cover -coverpkg=mdst/... -o $(TRAFFIC)/bin/ ./cmd/... $(addprefix ./examples/,$(EXAMPLES))
	cd benchmark && $(GO) build -cover -coverpkg=mdst/... -o $(TRAFFIC)/bin/benchmark .
	$(TRAFFIC)/bin/mdstmatrix -engines compat -format json -quiet > $(TRAFFIC)/out/default_matrix_pr2.json
	$(TRAFFIC)/bin/mdstmatrix $(LITERAL_MATRIX) -format json -quiet > $(TRAFFIC)/out/literal_matrix.json
	$(TRAFFIC)/bin/mdstmatrix -scale -quiet > $(TRAFFIC)/out/BENCH_scale.json
	$(TRAFFIC)/bin/mdstbench > $(TRAFFIC)/out/mdstbench.txt
	$(TRAFFIC)/bin/mdstbench -exp fit > $(TRAFFIC)/out/fit.txt
	$(TRAFFIC)/bin/mdstbench -series conv > $(TRAFFIC)/out/series_conv.csv
	$(TRAFFIC)/bin/mdstbench -series recovery > $(TRAFFIC)/out/series_recovery.csv
	$(TRAFFIC)/bin/mdstsim -family geometric -n 32 -start corrupt -sched sync -v > $(TRAFFIC)/out/mdstsim.txt
	$(TRAFFIC)/bin/graphgen -family gnp -n 24 > $(TRAFFIC)/out/gnp24.edges
	$(TRAFFIC)/bin/mdstsim -stdin < $(TRAFFIC)/out/gnp24.edges > $(TRAFFIC)/out/mdstsim_stdin.txt
	$(TRAFFIC)/bin/mdstsim -family ring+chords -n 4096 -start path -engine event -cpuprofile $(TRAFFIC)/out/cpu.pprof -memprofile $(TRAFFIC)/out/mem.pprof > $(TRAFFIC)/out/mdstsim_path.txt
	$(TRAFFIC)/bin/graphgen -list > $(TRAFFIC)/out/graphgen_list.txt
	$(TRAFFIC)/bin/graphgen -family gnp -n 24 -dot > $(TRAFFIC)/out/gnp24.dot
	$(TRAFFIC)/bin/mdstnet -family wheel -n 12 > $(TRAFFIC)/out/mdstnet.txt
	$(TRAFFIC)/bin/mdstnet -family gnp -n 24 -variant literal -corrupt > $(TRAFFIC)/out/mdstnet_literal.txt
	$(TRAFFIC)/bin/mdstnet -family gnp -n 24 -retry suppress > $(TRAFFIC)/out/mdstnet_suppress.txt
	$(TRAFFIC)/bin/mdstnet -family gnp -n 24 -batch 16 -batchwait 1ms > $(TRAFFIC)/out/mdstnet_batch.txt
	$(TRAFFIC)/bin/mdstnet -family wheel -n 12 -metrics > $(TRAFFIC)/out/mdstnet_metrics.txt
	$(TRAFFIC)/bin/mdstviz > $(TRAFFIC)/out/mdstviz.svg
	$(TRAFFIC)/bin/mdstviz -family gnp -n 24 -live > $(TRAFFIC)/out/mdstviz_live.svg 2> $(TRAFFIC)/out/mdstviz_live.txt
	@for ex in $(EXAMPLES); do \
		echo "$(TRAFFIC)/bin/$$ex"; \
		$(TRAFFIC)/bin/$$ex > $(TRAFFIC)/out/$$ex.txt || exit 1; \
	done
	@for w in recover closure matrix tcp; do \
		echo "$(TRAFFIC)/bin/benchmark --workload $$w --seconds 0 --trace 1"; \
		$(TRAFFIC)/bin/benchmark --workload $$w --seconds 0 --trace 1 > $(TRAFFIC)/out/benchmark_$$w.txt 2>&1 || exit 1; \
	done
	$(GO) tool covdata textfmt -i=$(TRAFFIC)/cov -pkg=mdst/cmd/...,mdst/examples/...,mdst/internal/... -o=$(TRAFFIC)/profile.txt
	@$(GO) tool cover -func=$(TRAFFIC)/profile.txt > $(TRAFFIC)/func.txt
	@echo "make traffic: functions no run reached (of $$(tail -1 $(TRAFFIC)/func.txt | awk '{print $$NF}') statements covered):"
	@awk '$$NF == "0.0%"' $(TRAFFIC)/func.txt | tee $(TRAFFIC)/unreached.txt

# Vulnerability scan. Soft-fail: the tool may be absent and the vuln DB
# needs network access — neither should break an offline CI run.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "make vuln: govulncheck failed (no network?) — soft-fail"; \
	else \
		echo "make vuln: govulncheck not installed — soft-fail (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Size of the code in lines: non-blank lines that are not `//` comments,
# of non-test and of test Go outside benchmark/ (hidden directories such
# as the benchmark's .bench_build/ are skipped too). These are the size
# figures CHANGES.md and ROADMAP.md record.
GO_FILES = find . -path ./benchmark -prune -o -path './.*' -prune -o -name '*.go' -type f
LOC = grep -v -e '^[[:space:]]*$$' -e '^[[:space:]]*//' | wc -l

loc:
	@echo "non-test Go lines: $$($(GO_FILES) ! -name '*_test.go' -exec cat {} + | $(LOC))"
	@echo "test Go lines:     $$($(GO_FILES) -name '*_test.go' -exec cat {} + | $(LOC))"

clean:
	$(GO) clean ./...
