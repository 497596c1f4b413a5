GO ?= go

.PHONY: build fmt-check vet test race fuzz-smoke determinism verify fleet-smoke doc-lint

build:
	$(GO) build ./...

# Fails when any tracked Go file is not gofmt-clean; prints the offenders.
fmt-check:
	@files=$$(git ls-files '*.go') || exit 1; \
	out=$$(gofmt -l $$files); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz runs of the raw-log parser, seeded with fault-injected
# corpora and held to a faithful WriteLogs round trip, of the event-batch
# JSON decoder, cross-checked against encoding/json, of the ingest reply
# encoder, held byte for byte to writeJSON's reply, of the traceparent
# parser, held to a faithful round trip, of the model-bundle decoder,
# held to no panic, a log scored by every bundle it accepts, in either
# mode, and a re-encode that is a fixed point, of streaming checkpoint
# restore, held to a faithful JSON Checkpoint round trip and windows over
# fed events only, of the session envelope decoder behind both spool
# restore and handoff import, held to a faithful re-cut of the revived
# session, of the stack-walk table and the split on it, held to a split
# of every event on its own, of the two JSONL replays, the autopilot
# journal and the registry history, held to every line that decodes, a
# faithful re-encode and a record appended after any input reading back
# last, of the RBF scoring branch
# over the flat support-vector matrix, held bit for bit to the
# Kernel.Compute loop on models drawn from the input, and of the
# load-simulator scenario decoder, held to no panic and a marshal and
# re-parse of every accepted scenario that is a fixed point, and of CFG
# inference and weight assessment on logs and benign graphs drawn from
# the input, held bit for bit to the event-by-event reference — the CI
# smoke budget, not a deep campaign. Bundle, checkpoint, envelope, journal and
# history inputs are large or JSON the mutator keeps growing, so those
# targets minimize each new input for at most 100 runs: the default
# 60 s minimization would spend the whole budget on the first one.
fuzz-smoke:
	$(GO) test ./internal/etl -run='^$$' -fuzz=FuzzParseStrict -fuzztime=10s
	$(GO) test ./internal/etl -run='^$$' -fuzz=FuzzParseLenient -fuzztime=10s
	$(GO) test ./internal/etl -run='^$$' -fuzz=FuzzParseRoundTrip -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeEventBatch -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzIngestReply -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzReviveSession -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/telemetry -run='^$$' -fuzz=FuzzParseTraceParent -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzLoadMonitor -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzRestoreStream -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/partition -run='^$$' -fuzz=FuzzSplitWalks -fuzztime=10s
	$(GO) test ./internal/autopilot -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/registry -run='^$$' -fuzz=FuzzRegistryHistory -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/svm -run='^$$' -fuzz=FuzzDecision -fuzztime=10s
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzParseScenario -fuzztime=10s
	$(GO) test ./internal/weight -run='^$$' -fuzz=FuzzInferAssess -fuzztime=10s

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
# detector) must equal the per-event reference; BuildArtifacts,
# which splits both training logs concurrently, with the fit over
# distinct walks and the artifacts built on them, must equal the
# per-event path, at Parallel 1 and at every processor; and CFG
# inference and weight assessment, once per distinct walk pair, edge and
# edge set, must equal the event-by-event reference bit for bit on every
# Table I dataset. It also holds every trainer's saved model, batch
# detection and the evaluation summaries to the committed golden of an
# earlier commit, at Parallel 1 and at every processor; and a saved
# model's bytes, and so its registry entry ID, to one hash whatever its
# process did before the save.
# A -run pattern silently runs fewer tests when a listed one is renamed
# or deleted, so the recipe first lists the packages' tests and fails,
# naming it, on any name that matches none.
determinism:
	@tests='TestEvaluateRunsParallelDeterminism|TestEvaluateRunsBuildsArtifactsOnce|TestGridSearchParallel|TestSharedCrossValidateMatchesUncached|TestGridSearchMatchesUncachedSweep|TestSolverMatchesReference|TestGramMatchesCompute|TestGramConcurrent|TestLazyGramMatchesEager|TestFitDecisionsMatchDecision|TestDecisionMatchesKernel|TestFeaturizeConcurrent|TestDetectLogMatchesReference|TestFeedMatchesReference|TestTrainedModelsGolden|TestArtifactsMatchPerEventReference|TestSplitMatchesPerEventReference|TestFitOverWalksMatchesPerEvent|TestBundleBytesIndependentOfProcessHistory|TestInferAssessMatchesReference'; \
	pkgs='./internal/core ./internal/svm ./internal/partition ./internal/preprocess ./internal/registry ./internal/weight'; \
	listed=$$($(GO) test -race -list . $$pkgs | grep '^Test') || exit 1; \
	missing=; \
	for name in $$(echo "$$tests" | tr '|' ' '); do \
		echo "$$listed" | grep -q -- "$$name" || missing="$$missing $$name"; \
	done; \
	if [ -n "$$missing" ]; then echo "determinism: no test matches:$$missing"; exit 1; fi; \
	echo "$(GO) test -race -run '$$tests' $$pkgs"; \
	$(GO) test -race -run "$$tests" $$pkgs

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

# The CI recipe. The end-to-end checks of telemetry, the registry, the
# autopilot, observability and the simulator are Go tests next to the
# code they drive (cmd/leaps-*, internal/serve, internal/sim), so test
# and race run them; fleet-smoke is the one real-socket drill. The
# benchmark is its own module, so the root's build, vet and test never
# compile it; the last step vets and tests it there.
verify: build fmt-check vet test race determinism fuzz-smoke doc-lint fleet-smoke
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
