# LIFEGUARD reproduction — build, test, and static-analysis entry points.
#
# `make lint` is the gate CI enforces: the standard go vet passes plus the
# repo's own lglint analyzer suite (determinism & concurrency invariants;
# see internal/analysis and DESIGN.md §"Static analysis & invariants").

GO      ?= go
BIN     := bin
LGLINT  := $(BIN)/lglint

.PHONY: all build test lint lint-fix-check lint-sarif race debug-test exp-smoke obs-smoke chaos-smoke hijack-smoke daemon-smoke traffic-smoke fuzz-smoke bench bench-smoke bench-all bench-scale bench-scale-smoke bench-traffic lglint lglint-bin clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lglint builds the vet tool; lglint-bin additionally prints its path so
# scripts can do: go vet -vettool=$$(make -s lglint-bin) ./...
lglint:
	@$(GO) build -o $(LGLINT) ./cmd/lglint

lglint-bin: lglint
	@echo $(LGLINT)

lint: lglint
	$(GO) vet ./...
	$(GO) vet -vettool=$(LGLINT) ./...

# lint-fix-check asserts the tree is clean under -fix: a dry run of the
# standalone driver must report no findings and print no pending edits —
# every fixable finding has been applied or carries a reasoned
# //lint:ignore. Exit 1 from the driver means findings; a non-empty diff
# means un-applied fixes.
lint-fix-check: lglint
	@mkdir -p $(BIN)
	@if ! $(LGLINT) -fix -dry-run ./... >$(BIN)/lglint_fix.diff; then \
		cat $(BIN)/lglint_fix.diff; \
		echo "lint-fix-check: findings on a supposedly clean tree"; exit 1; \
	fi
	@if [ -s $(BIN)/lglint_fix.diff ]; then \
		cat $(BIN)/lglint_fix.diff; \
		echo "lint-fix-check: pending edits on a supposedly clean tree"; exit 1; \
	fi
	@echo "lint-fix-check: no pending edits"

# lint-sarif renders the suite's findings as SARIF 2.1.0 for code-scanning
# upload. Findings (exit 1) still produce a valid file — uploading them is
# how they surface inline on PRs; `make lint` stays the hard gate. Only a
# load/usage error (exit 2) fails the target.
lint-sarif: lglint
	@mkdir -p $(BIN)
	@$(LGLINT) -sarif ./... >$(BIN)/lglint.sarif; st=$$?; \
	if [ $$st -ge 2 ]; then exit $$st; fi
	@echo "lint-sarif: wrote $(BIN)/lglint.sarif"

# The packages with real concurrency: the sharded engine's barrier workers,
# the wire-level session FSM, the monitoring pipeline, and the parallel
# trial runner (plus the experiments that fan out on it). The dataplane
# and its largest caller, traffic, ride along to hold ForwardN to the
# intraPath aliasing contract (cached paths are shared, read-only) under
# the detector.
race:
	$(GO) test -race ./internal/bgp/... ./internal/monitor/... ./internal/runner/... ./internal/experiments/... ./internal/dataplane/... ./internal/traffic/...

# debug-test reruns the simulation-bearing packages with the simclockdebug
# ownership assertion compiled in: any scheduler touched from two
# goroutines panics instead of silently corrupting a run.
debug-test:
	$(GO) test -tags simclockdebug ./internal/simclock/... ./internal/runner/... ./internal/experiments/...

# exp-smoke proves the runner's determinism contract end to end: the lgexp
# report for a fixed seed must be byte-identical sequentially and on 4
# workers. Chatter goes to stderr, so stdout diffs clean.
exp-smoke:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lgexp ./cmd/lgexp
	$(BIN)/lgexp -exp fig1,abl-threshold,abl-dampening -seeds 2 -parallel 1 >$(BIN)/exp_seq.txt
	$(BIN)/lgexp -exp fig1,abl-threshold,abl-dampening -seeds 2 -parallel 4 >$(BIN)/exp_par.txt
	diff $(BIN)/exp_seq.txt $(BIN)/exp_par.txt
	@echo "exp-smoke: sequential and parallel reports are byte-identical"

# obs-smoke proves the observability subsystem is determinism-neutral end
# to end: the lgexp report is byte-identical with instrumentation off and
# on (-obs), and the merged metrics snapshot is byte-identical across
# parallelism levels (per-trial registries merge in trial-index order).
obs-smoke:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lgexp ./cmd/lgexp
	$(BIN)/lgexp -exp abl-dampening,abl-precheck -parallel 1 >$(BIN)/obs_off.txt
	$(BIN)/lgexp -exp abl-dampening,abl-precheck -parallel 1 -obs $(BIN)/obs_seq.json >$(BIN)/obs_seq.txt
	$(BIN)/lgexp -exp abl-dampening,abl-precheck -parallel 4 -obs $(BIN)/obs_par.json >$(BIN)/obs_par.txt
	diff $(BIN)/obs_off.txt $(BIN)/obs_seq.txt
	diff $(BIN)/obs_seq.txt $(BIN)/obs_par.txt
	diff $(BIN)/obs_seq.json $(BIN)/obs_par.json
	@grep -q lifeguard_bgp_updates_sent_total $(BIN)/obs_seq.json
	@echo "obs-smoke: report unchanged by -obs; snapshot byte-identical across parallelism"

# chaos-smoke proves the fault-injection subsystem's contracts end to end:
# a fixed-seed lgchaos sweep must uphold every invariant (the CLI exits 3
# on violations, failing the target) and write byte-identical reports and
# metrics snapshots sequentially and on 4 workers.
chaos-smoke:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lgchaos ./cmd/lgchaos
	$(BIN)/lgchaos -seed 3 -trials 3 -faults 6 -intensity 1.5 -parallel 1 -obs $(BIN)/chaos_seq.json >$(BIN)/chaos_seq.txt
	$(BIN)/lgchaos -seed 3 -trials 3 -faults 6 -intensity 1.5 -parallel 4 -obs $(BIN)/chaos_par.json >$(BIN)/chaos_par.txt
	diff $(BIN)/chaos_seq.txt $(BIN)/chaos_par.txt
	diff $(BIN)/chaos_seq.json $(BIN)/chaos_par.json
	@grep -q lifeguard_chaos_faults_injected_total $(BIN)/chaos_seq.json
	@echo "chaos-smoke: zero violations; reports and snapshots byte-identical across parallelism"

# hijack-smoke proves the hijack plane end to end: a scripted sub-prefix
# hijack against a defended session must be detected, mitigated, and
# cleared with zero invariant violations (lgchaos -hijack exits 3 on a
# missing pipeline stage), and the report must be byte-identical
# sequentially and on 4 workers.
hijack-smoke:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lgchaos ./cmd/lgchaos
	$(BIN)/lgchaos -hijack -seed 1 -trials 2 -parallel 1 >$(BIN)/hijack_seq.txt
	$(BIN)/lgchaos -hijack -seed 1 -trials 2 -parallel 4 >$(BIN)/hijack_par.txt
	diff $(BIN)/hijack_seq.txt $(BIN)/hijack_par.txt
	@grep -q 'detected  sub-prefix' $(BIN)/hijack_seq.txt
	@grep -q 'mitigated announced=' $(BIN)/hijack_seq.txt
	@grep -q 'cleared   alarm down' $(BIN)/hijack_seq.txt
	@echo "hijack-smoke: detected, mitigated, cleared; zero violations; reports byte-identical across parallelism"

# daemon-smoke proves the long-running service contract end to end: a
# multi-tenant lifeguardd with the metrics endpoint up must answer
# /healthz and /metrics while simulating, then exit 0 on SIGTERM with the
# final JSON snapshot on stdout (the documented shutdown contract; the
# signal-path details are covered by cmd/lifeguardd's own tests).
daemon-smoke:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lifeguardd ./cmd/lifeguardd
	@rm -f $(BIN)/daemon_smoke.out
	$(BIN)/lifeguardd -tenants 2 -hours 1000000 -failures 2 -http 127.0.0.1:18911 >$(BIN)/daemon_smoke.out & \
	pid=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:18911/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -sf http://127.0.0.1:18911/healthz || { kill $$pid; exit 1; }; \
	curl -sf http://127.0.0.1:18911/metrics | grep -q 'lifeguard_monitor_ping_rounds_total{tenant=' || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "daemon-smoke: nonzero exit on SIGTERM"; exit 1; }
	@grep -q '"metrics"' $(BIN)/daemon_smoke.out || { echo "daemon-smoke: no final snapshot on stdout"; exit 1; }
	@echo "daemon-smoke: healthz+metrics served; clean SIGTERM exit with final snapshot"

# traffic-smoke proves the traffic-at-scale dataplane's contracts end to
# end: the user-seconds-lost experiment (a small flow population sharded
# over destinations) must report zero invariant violations and produce a
# byte-identical report sequentially and on 4 workers.
traffic-smoke:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lgexp ./cmd/lgexp
	$(BIN)/lgexp -exp traffic -seed 1 -parallel 1 >$(BIN)/traffic_seq.txt
	$(BIN)/lgexp -exp traffic -seed 1 -parallel 4 >$(BIN)/traffic_par.txt
	diff $(BIN)/traffic_seq.txt $(BIN)/traffic_par.txt
	@grep -q 'violations_total *0\.0000' $(BIN)/traffic_seq.txt || { echo "traffic-smoke: invariant violations"; exit 1; }
	@grep -q 'user_seconds_saved_frac' $(BIN)/traffic_seq.txt
	@echo "traffic-smoke: zero violations; report byte-identical across parallelism"

# A quick fuzz pass over the BGP-4 wire codec; CI runs this on every push.
fuzz-smoke:
	$(GO) test -fuzz=Fuzz -fuzztime=30s ./internal/bgp/wire/

# bench is the perf-regression harness: it runs the engine-convergence and
# dataplane-forwarding benchmarks plus the experiment-suite wall-clock
# timing (sequential vs parallel RunSuite, and instrumented vs
# uninstrumented obs overhead) and refreshes BENCH_pr4.json (ns/op,
# allocs/op, packets/sec, suite speedup, obs overhead, plus deltas against
# the recorded baseline). bench-smoke is the 1-iteration variant CI runs;
# bench-all is a 1x pass over every benchmark in the repo.
bench:
	$(GO) run ./cmd/lgbench -benchtime 2s -out BENCH_pr4.json

bench-smoke:
	@mkdir -p $(BIN)
	$(GO) run ./cmd/lgbench -benchtime 1x -suite=false -out $(BIN)/BENCH_smoke.json

bench-all:
	$(GO) test -bench . -benchtime 1x ./...

# bench-scale measures Internet-scale convergence (200/2k/10k ASes, each
# case in a fresh subprocess so peak-RSS readings are isolated) and
# refreshes BENCH_pr7.json. bench-scale-smoke is the CI gate: one 2k-AS
# full-table convergence under a wall-clock budget plus a worker-count
# determinism diff (exit nonzero on either violation).
bench-scale:
	$(GO) run ./cmd/lgbench -scale -scale-out BENCH_pr7.json

bench-scale-smoke:
	$(GO) run ./cmd/lgbench -scale-smoke

# bench-traffic measures the traffic-at-scale dataplane (1M modelled flows
# through the grouped and single-packet forwarding paths, plus the
# user-seconds-lost experiment) and refreshes BENCH_pr10.json.
bench-traffic:
	$(GO) run ./cmd/lgbench -traffic -traffic-out BENCH_pr10.json

clean:
	rm -rf $(BIN)
