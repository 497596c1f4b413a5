// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the ablation studies from DESIGN.md and
// component microbenchmarks. Reproduced measurements are attached to the
// benchmark output as custom metrics (ACC, TPR, ...), so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's numbers alongside the performance profile.
// Benchmarks use fixed SVM parameters and a single data-selection run per
// iteration; use cmd/leaps-bench for the full grid-searched, multi-run
// protocol.
package leaps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	leaps "repro"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/experiments"
	"repro/internal/hcluster"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/trace"
)

// benchConfig is the fast evaluation configuration shared by the
// table/figure benchmarks.
func benchConfig() core.Config {
	return core.Config{
		Seed:        1,
		FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	}
}

// benchLogs caches generated dataset logs across benchmark iterations.
var benchLogs = map[string]*dataset.Logs{}

func logsFor(b *testing.B, name string) *dataset.Logs {
	b.Helper()
	if l, ok := benchLogs[name]; ok {
		return l
	}
	spec, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	logs, err := spec.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	benchLogs[name] = logs
	return logs
}

// evalDataset runs one three-model evaluation and reports the WSVM
// measurements as custom metrics.
func evalDataset(b *testing.B, name string) {
	b.Helper()
	logs := logsFor(b, name)
	var last *core.EvalResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(last.WSVM.ACC, "WSVM-ACC")
	b.ReportMetric(last.SVM.ACC, "SVM-ACC")
	b.ReportMetric(last.CGraph.ACC, "CGraph-ACC")
	b.ReportMetric(last.WSVM.TPR, "WSVM-TPR")
	b.ReportMetric(last.WSVM.TNR, "WSVM-TNR")
}

// BenchmarkTable1 regenerates Table I: the WSVM measurements on each of
// the 21 datasets (sub-benchmark per row).
func BenchmarkTable1(b *testing.B) {
	for _, spec := range dataset.Table1Specs() {
		b.Run(spec.Name, func(b *testing.B) { evalDataset(b, spec.Name) })
	}
}

// BenchmarkFig6 regenerates Figure 6: the CGraph/SVM/WSVM comparison on
// the 13 offline-infection datasets.
func BenchmarkFig6(b *testing.B) {
	for _, spec := range dataset.OfflineSpecs() {
		b.Run(spec.Name, func(b *testing.B) { evalDataset(b, spec.Name) })
	}
}

// BenchmarkFig7 regenerates Figure 7: the comparison on the 8
// online-injection datasets.
func BenchmarkFig7(b *testing.B) {
	for _, spec := range dataset.OnlineSpecs() {
		b.Run(spec.Name, func(b *testing.B) { evalDataset(b, spec.Name) })
	}
}

// BenchmarkFig2Preprocess regenerates Figure 2: hierarchical clustering of
// a system event into its discretised 3-tuple.
func BenchmarkFig2Preprocess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4CFGDiff regenerates Figure 4: benign vs mixed CFG inference
// and comparison for the trojaned vim.
func BenchmarkFig4CFGDiff(b *testing.B) {
	var last *experiments.Figure4Stats
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Figure4(2)
		if err != nil {
			b.Fatal(err)
		}
		last = stats
	}
	b.ReportMetric(float64(last.PayloadRegionNodes), "payload-nodes")
	b.ReportMetric(float64(last.CommonEdges), "common-edges")
}

// BenchmarkFig5Boundary regenerates Figure 5: plain vs weighted SVM on the
// noisy-label toy problem.
func BenchmarkFig5Boundary(b *testing.B) {
	var last *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(3)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.SVMAccuracy, "SVM-ACC")
	b.ReportMetric(last.WSVMAccuracy, "WSVM-ACC")
}

// BenchmarkAblationWeights (A1) compares intact CFG weights against
// shuffled weights on one dataset per iteration.
func BenchmarkAblationWeights(b *testing.B) {
	logs := logsFor(b, "winscp_reverse_tcp")
	var intact, shuffled *core.EvalResult
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		res, err := core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg)
		if err != nil {
			b.Fatal(err)
		}
		intact = res
		cfg.ShuffleWeights = true
		if shuffled, err = core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(intact.WSVM.ACC, "intact-ACC")
	b.ReportMetric(shuffled.WSVM.ACC, "shuffled-ACC")
}

// BenchmarkAblationDensity (A2) measures the density-array estimate's
// contribution.
func BenchmarkAblationDensity(b *testing.B) {
	logs := logsFor(b, "winscp_reverse_tcp")
	var with, without *core.EvalResult
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		res, err := core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg)
		if err != nil {
			b.Fatal(err)
		}
		with = res
		cfg.Weight.DisableDensityEstimate = true
		if without, err = core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(with.WSVM.ACC, "estimate-ACC")
	b.ReportMetric(without.WSVM.ACC, "hard01-ACC")
}

// BenchmarkAblationWindow (A3) sweeps the coalescing window.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{1, 5, 10, 20} {
		b.Run(windowName(w), func(b *testing.B) {
			logs := logsFor(b, "vim_reverse_tcp")
			var last *core.EvalResult
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Window = w
				res, err := core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.WSVM.ACC, "WSVM-ACC")
		})
	}
}

func windowName(w int) string {
	switch w {
	case 1:
		return "w1"
	case 5:
		return "w5"
	case 10:
		return "w10"
	default:
		return "w20"
	}
}

// BenchmarkAblationNoise (A4) sweeps the mixed log's payload share.
func BenchmarkAblationNoise(b *testing.B) {
	for _, name := range []string{"share20", "share50", "share80"} {
		share := map[string]float64{"share20": 0.2, "share50": 0.5, "share80": 0.8}[name]
		b.Run(name, func(b *testing.B) {
			logs, err := leaps.GenerateDatasetWithPayloadShare("winscp_reverse_tcp", 1, share)
			if err != nil {
				b.Fatal(err)
			}
			var last *core.EvalResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, benchConfig())
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.WSVM.ACC, "WSVM-ACC")
			b.ReportMetric(last.SVM.ACC, "SVM-ACC")
		})
	}
}

// BenchmarkAblationKernel (A5) compares kernels.
func BenchmarkAblationKernel(b *testing.B) {
	kernels := []struct {
		name string
		k    svm.Kernel
	}{
		{"linear", svm.LinearKernel{}},
		{"rbf", svm.RBFKernel{Sigma2: 2}},
		{"poly2", svm.PolyKernel{Degree: 2, Gamma: 1, Coef0: 1}},
	}
	for _, kk := range kernels {
		b.Run(kk.name, func(b *testing.B) {
			logs := logsFor(b, "vim_codeinject")
			var last *core.EvalResult
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Seed: 1, FixedParams: &svm.Params{Lambda: 8, Kernel: kk.k}}
				res, err := core.Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.WSVM.ACC, "WSVM-ACC")
		})
	}
}

// --- component microbenchmarks ---

// BenchmarkCFGInference measures Algorithm 1 on a 6k-event log.
func BenchmarkCFGInference(b *testing.B) {
	logs := logsFor(b, "vim_reverse_tcp")
	part, err := partition.Split(logs.Mixed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Infer(part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStackPartition measures the stack partition module.
func BenchmarkStackPartition(b *testing.B) {
	logs := logsFor(b, "vim_reverse_tcp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Split(logs.Mixed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreprocessFit measures feature clustering over a full log.
func BenchmarkPreprocessFit(b *testing.B) {
	logs := logsFor(b, "winscp_reverse_tcp")
	part, err := partition.Split(logs.Mixed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := preprocess.Fit(part.Events, preprocess.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeOne measures single-event featurization on the scratch
// path the streaming detector rides: a fitted encoder discretising one
// partitioned event into its 3-tuple with a warm per-caller Scratch.
func BenchmarkEncodeOne(b *testing.B) {
	logs := logsFor(b, "vim_reverse_tcp")
	part, err := partition.Split(logs.Mixed)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := preprocess.Fit(part.Events, preprocess.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var s preprocess.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.EncodeOne(&s, &part.Events[i%len(part.Events)])
	}
}

// BenchmarkSMOTrain measures the weighted-SVM solver on a
// representative training problem (360 samples, 30 dimensions).
func BenchmarkSMOTrain(b *testing.B) {
	logs := logsFor(b, "winscp_reverse_tcp")
	td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, core.Config{
		Seed:           1,
		SampleFraction: 0.4,
		FixedParams:    &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := td.Train(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalClustering measures UPGMA over 200 observations.
func BenchmarkHierarchicalClustering(b *testing.B) {
	const n = 200
	dm, err := hcluster.NewDistMatrix(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dm.Set(i, j, float64((i*31+j*17)%100)/100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hcluster.Cluster(dm, hcluster.Average); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkETLRoundTrip measures raw-log serialisation and parsing of a
// 6k-event log.
func BenchmarkETLRoundTrip(b *testing.B) {
	logs := logsFor(b, "vim_reverse_tcp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := etl.WriteLogs(&buf, logs.Mixed); err != nil {
			b.Fatal(err)
		}
		if _, err := etl.Parse(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetect measures testing-phase throughput: windows classified
// per second on a 3k-event log.
func BenchmarkDetect(b *testing.B) {
	logs := logsFor(b, "vim_reverse_tcp")
	td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.DetectLog(logs.Malicious); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectDistinctStacks is BenchmarkDetect with no repeated
// stack walk, the walk table's worst case: every stack gets a unique
// unresolved frame on top, so each lookup misses while the tuples stay
// those of BenchmarkDetect.
func BenchmarkDetectDistinctStacks(b *testing.B) {
	logs := logsFor(b, "vim_reverse_tcp")
	td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		b.Fatal(err)
	}
	log := logs.Malicious.Clone()
	for i := range log.Events {
		e := &log.Events[i]
		e.Stack = append(trace.StackWalk{{Addr: 0x10 + uint64(i)}}, e.Stack...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.DetectLog(log); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMOWorkingSetSelection compares the classic maximal-violating
// pair (WSS1) against second-order selection (WSS2) on the same training
// problem, reporting solver iterations.
func BenchmarkSMOWorkingSetSelection(b *testing.B) {
	logs := logsFor(b, "winscp_reverse_tcp")
	for _, tc := range []struct {
		name   string
		second bool
	}{{"wss1", false}, {"wss2", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{
				Seed:           1,
				SampleFraction: 0.4,
				FixedParams: &svm.Params{
					Lambda:         8,
					Kernel:         svm.RBFKernel{Sigma2: 2},
					SecondOrderWSS: tc.second,
				},
			}
			td2, err := core.BuildTrainingData(logs.Benign, logs.Mixed, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var iters int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clf, err := td2.Train()
				if err != nil {
					b.Fatal(err)
				}
				iters = clf.Model().Iters
			}
			b.ReportMetric(float64(iters), "smo-iters")
		})
	}
}

// serveIngestBatchEvents is the fixed batch size of the serving
// benchmark: one op POSTs this many events.
const serveIngestBatchEvents = 200

// BenchmarkServeIngest measures end-to-end serving throughput: events
// POSTed to a live leaps-serve HTTP API through ingestion, scheduling,
// scoring and verdict serialisation. Reports events and verdicts per op.
func BenchmarkServeIngest(b *testing.B) {
	b.ReportAllocs()
	benchmarkServeIngest(b)
}

// TestServeIngestAllocs pins the serving turn's allocation budget. One
// POSTed event may cost at most serveIngestAllocBudget allocations end
// to end — HTTP transport, client included, and JSON wire handling.
// The bound holds only because every per-event stage runs on recycled
// memory: the batch decoder reads the body into a pooled buffer and
// emits events with no per-event allocation, repeated stacks resolve
// through the session's cache, and the detector side of the turn runs
// on per-session scratch — a repeated stack walk takes its tuple from
// the detector's stack-walk memo, whose entry and frame slabs are
// recycled, and only a new walk is partitioned and encoded; window
// flatten, scale and score reuse their buffers. Decoding through
// encoding/json and EventSpec.Event alone costs about 7 allocations per
// event and fails it.
func TestServeIngestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	const serveIngestAllocBudget = 4 // allocs per event
	r := testing.Benchmark(benchmarkServeIngest)
	perEvent := float64(r.AllocsPerOp()) / serveIngestBatchEvents
	if perEvent > serveIngestAllocBudget {
		t.Errorf("serve ingest allocated %.1f allocs/event (%d per %d-event batch), budget %d",
			perEvent, r.AllocsPerOp(), serveIngestBatchEvents, serveIngestAllocBudget)
	}
}

func benchmarkServeIngest(b *testing.B) {
	logs := logsFor(b, "vim_reverse_tcp")
	td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		b.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := clf.Save(&bundle); err != nil {
		b.Fatal(err)
	}
	mon, err := core.LoadMonitor(&bundle)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Preloaded: map[string]*core.Monitor{"default": mon},
		Logger:    slog.New(slog.DiscardHandler),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mal := logs.Malicious
	spec, err := json.Marshal(serve.SessionSpecOf(mal, ""))
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()

	// Pre-encode fixed-size batches so the loop measures the server, not
	// the client-side JSON encoding.
	const batchEvents = serveIngestBatchEvents
	wire := serve.EventSpecsOf(mal.Events)
	var batches [][]byte
	for i := 0; i+batchEvents <= len(wire); i += batchEvents {
		blob, err := json.Marshal(serve.EventBatch{Events: wire[i : i+batchEvents]})
		if err != nil {
			b.Fatal(err)
		}
		batches = append(batches, blob)
	}
	url := ts.URL + "/v1/sessions/" + info.ID + "/events"
	var verdicts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(batches[i%len(batches)]))
		if err != nil {
			b.Fatal(err)
		}
		var res serve.IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
		verdicts += len(res.Verdicts)
	}
	b.ReportMetric(float64(b.N*batchEvents)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(verdicts)/float64(b.N), "verdicts/op")
}
