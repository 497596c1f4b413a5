GO ?= go

.PHONY: build fmt-check vet test race fuzz-smoke bench bench-compare determinism verify verify-telemetry serve-smoke registry-smoke autopilot-smoke obs-smoke sim-smoke fleet-smoke doc-lint

build:
	$(GO) build ./...

# Fails when any tracked Go file is not gofmt-clean; prints the offenders.
fmt-check:
	@out=$$(gofmt -l ./cmd ./internal); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz runs of the raw-log parser, seeded with fault-injected
# corpora and held to a faithful WriteLogs round trip, of the event-batch
# JSON decoder, cross-checked against encoding/json, of the traceparent
# parser, held to a faithful round trip, of streaming checkpoint restore,
# held to a faithful Checkpoint round trip and windows over fed events
# only, of the session envelope decoder behind both spool restore and
# handoff import, held to a faithful re-cut of the revived session, of
# the stack-walk table and the split on it, held to a split of every
# event on its own, of the two JSONL replays, the autopilot journal and
# the registry history, held to the whole records before the first torn
# line and a faithful re-encode, and of the RBF scoring branch over the
# flat support-vector matrix, held bit for bit to the Kernel.Compute
# loop on models drawn from the input — the CI smoke budget, not a deep
# campaign. Envelope, journal and history inputs are JSON the mutator
# keeps growing, so those targets minimize each new input for at most
# 100 runs: the default 60 s minimization would spend the whole budget
# on the first one.
fuzz-smoke:
	$(GO) test ./internal/etl -run='^$$' -fuzz=FuzzParseStrict -fuzztime=10s
	$(GO) test ./internal/etl -run='^$$' -fuzz=FuzzParseLenient -fuzztime=10s
	$(GO) test ./internal/etl -run='^$$' -fuzz=FuzzParseRoundTrip -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeEventBatch -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzReviveSession -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/telemetry -run='^$$' -fuzz=FuzzParseTraceParent -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzRestoreStream -fuzztime=10s
	$(GO) test ./internal/partition -run='^$$' -fuzz=FuzzSplitWalks -fuzztime=10s
	$(GO) test ./internal/autopilot -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/registry -run='^$$' -fuzz=FuzzRegistryHistory -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/svm -run='^$$' -fuzz=FuzzDecision -fuzztime=10s

# Measures the pipeline hot paths (parse, featurize, artifacts,
# select-train, train, gridsearch, detect) and writes
# BENCH_baseline.json, then drives the in-process serving workload and
# writes per-endpoint/per-stage p50/p95/p99 latency to BENCH_serve.json,
# then runs the canonical leaps-sim scenarios and writes their
# deterministic throughput/latency/checksum rows to BENCH_sim.json.
# Regenerating the committed baselines resets the regression gates, so
# it must be an explicit decision: the target refuses to run unless
# BENCH_REBASELINE=1 is set. Use bench-compare to measure against the
# committed numbers.
bench:
	@if [ "$(BENCH_REBASELINE)" != "1" ]; then \
		echo "bench: refusing to overwrite the committed baselines."; \
		echo "bench: rerun as 'make bench BENCH_REBASELINE=1' to rebaseline,"; \
		echo "bench: or 'make bench-compare' to measure against them."; \
		exit 1; \
	fi
	$(GO) run ./cmd/leaps-bench -perf-baseline BENCH_baseline.json -serve-baseline BENCH_serve.json -sim-baseline BENCH_sim.json

# Reruns both benchmark suites and fails on >20% regressions (ns/op and
# allocs/op for the pipeline, p95 latency for serving) against the
# committed baselines. Timings are warn-only in verify — absolute
# numbers from the committed baselines' machine don't transfer to
# arbitrary CI hosts — but the allocs/op gate stays hard everywhere:
# allocation counts are deterministic.
bench-compare:
	./scripts/bench-compare.sh

# Proves parallelism-invariance: EvaluateRuns and GridSearch produce
# identical results for any worker count, under the race detector —
# including the pooled/batch hot paths, which must match their
# allocating reference implementations bit for bit. Model selection
# reads one kernel matrix per σ² (svm's gram), so the gram must equal
# Kernel.Compute in both fill modes and under concurrent lazy fills; the
# solver over it must equal the reference SMO solver bit for bit; every
# grid point's accuracy must equal CrossValidate's; lazy rows must give
# the eager mode's models; the training decisions behind Platt must
# equal Model.Decision; and Model.Decision's RBF branch over the flat
# support-vector matrix must equal the Kernel.Compute loop bit for bit,
# on random, one-class and reloaded models. Both phases work once per
# distinct stack walk through one walk table (partition.Walks), so the table and the split on it must equal
# the per-event split, fresh, reset at its bounds and reused;
# detection through it in both scoring modes (consecutive pooled
# DetectLog calls across module maps and classifiers, Feed, and
# concurrent DetectLog calls beside Feed racing Checkpoint on one
# detector) must equal the per-event reference; and BuildArtifacts,
# which splits both training logs concurrently, with the fit over
# distinct walks and the artifacts built on them, must equal the
# per-event path, at Parallel 1 and at every processor. It also holds
# every trainer's saved model, batch detection and the evaluation
# summaries to the committed golden of an earlier commit, at Parallel 1
# and at every processor.
determinism:
	$(GO) test -race -run 'TestEvaluateRunsParallelDeterminism|TestEvaluateRunsBuildsArtifactsOnce|TestGridSearchParallel|TestSharedCrossValidateMatchesUncached|TestGridSearchMatchesUncachedSweep|TestSolverMatchesReference|TestGramMatchesCompute|TestGramConcurrent|TestLazyGramMatchesEager|TestFitDecisionsMatchDecision|TestDecisionMatchesKernel|TestFeaturizeConcurrent|TestDetectLogMatchesReference|TestFeedMatchesReference|TestTrainedModelsGolden|TestArtifactsMatchPerEventReference|TestSplitMatchesPerEventReference|TestFitOverWalksMatchesPerEvent' ./internal/core ./internal/svm ./internal/partition ./internal/preprocess

# End-to-end smoke test of the -debug-addr introspection endpoints:
# generates data, trains, then scrapes /metrics, /spans and pprof from a
# live leaps-detect run.
verify-telemetry:
	./scripts/verify-telemetry.sh

# End-to-end smoke test of leaps-serve: boots the server against a
# generated dataset, drives one session over HTTP with curl, and asserts
# verdicts, SIGTERM checkpointing, restore-identical scoring and 429
# backpressure.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end smoke test of the model registry lifecycle: publishes two
# trained seeds, shadow-evaluates the challenger against live traffic,
# and walks gated/forced promotion and rollback over /v1/models,
# asserting shadow non-perturbation and pinned-session continuity.
registry-smoke:
	./scripts/registry-smoke.sh

# End-to-end smoke test of the retraining autopilot: drives traffic past
# the retrain trigger, force-crashes the server mid-cycle with
# LEAPS_CRASHPOINT (asserting the faultinject exit code), and requires
# the restarted server to resume from the journal and converge on a
# gated promotion with reference-identical verdicts.
autopilot-smoke:
	./scripts/autopilot-smoke.sh

# End-to-end smoke test of the observability layer: injects a W3C
# traceparent over HTTP and asserts the same trace ID in the response
# header, a /metrics exemplar (lint-clean per scripts/metricslint) and
# the flight-recorder dumps produced by a forced circuit-breaker trip,
# SIGQUIT and GET /debug/flightrecorder.
obs-smoke:
	./scripts/obs-smoke.sh

# End-to-end smoke test of the deterministic cluster load simulator:
# same seed twice must be byte-identical (report and event log), a
# different seed must diverge, and the committed BENCH_sim.json must
# match exactly on counts and verdict checksums.
sim-smoke:
	./scripts/sim-smoke.sh

# End-to-end smoke test of the fleet layer: three registry-replicated
# leaps-serve replicas behind leaps-router over real sockets, asserting
# ring placement, byte-identical forwarded verdicts, checkpoint handoff
# across a drain/rejoin, and promotion propagation through registry
# sync.
fleet-smoke:
	./scripts/fleet-smoke.sh

# Godoc gate: package comments everywhere under internal/ and cmd/, and
# doc comments on every exported identifier in internal/serve,
# internal/registry, internal/telemetry and internal/sim.
doc-lint:
	./scripts/doc-lint.sh

verify: build fmt-check vet test race determinism fuzz-smoke doc-lint verify-telemetry serve-smoke registry-smoke autopilot-smoke obs-smoke sim-smoke fleet-smoke
	./scripts/bench-compare.sh -w
