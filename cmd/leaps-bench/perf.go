package main

// Performance baseline: measures the pipeline's hot paths with
// testing.Benchmark and writes the results as JSON, so perf regressions
// show up as diffs against a committed BENCH_baseline.json.
// -perf-compare re-runs the same suite and fails on >20% ns/op or
// allocs/op regressions against the committed baseline. The allocation
// gate stays hard even under -perf-warn: alloc counts are deterministic
// and transfer across machines, unlike wall-clock timings.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/svm"
)

// perfResult is one benchmark measurement.
type perfResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"alloc_bytes_per_op"`
	// MBPerSec is the processed-byte throughput, present only for
	// benchmarks with a defined byte volume (parse, featurize, detect,
	// select-train), measured as serialized .letl bytes of the logs the
	// operation consumes.
	MBPerSec float64 `json:"mb_per_s,omitempty"`
}

// perfBaseline is the file layout of BENCH_baseline.json.
type perfBaseline struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	Dataset     string       `json:"dataset"`
	Results     []perfResult `json:"results"`
}

func toPerfResult(name string, r testing.BenchmarkResult) perfResult {
	out := perfResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.Bytes > 0 && r.T > 0 {
		out.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	return out
}

// gridProblem synthesises a deterministic two-class problem with enough
// label noise that every (λ, σ²) grid point does real cross-validation
// work.
func gridProblem() svm.Problem {
	rng := rand.New(rand.NewSource(7))
	var p svm.Problem
	for i := 0; i < 40; i++ {
		p.X = append(p.X, []float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4})
		p.Y = append(p.Y, 1)
		p.X = append(p.X, []float64{2 + rng.NormFloat64()*0.4, 2 + rng.NormFloat64()*0.4})
		p.Y = append(p.Y, -1)
	}
	for i := 0; i < len(p.Y); i += 9 {
		p.Y[i] = -p.Y[i]
	}
	return p
}

// runPerfSuite benchmarks the pipeline's hot paths — raw parse,
// featurisation, the two pipeline tiers (artifact build, per-seed
// selection+train), the whole training path, parallel grid search and
// detection — on a reduced fixed dataset.
func runPerfSuite() (*perfBaseline, error) {
	const name = "vim_reverse_tcp"
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	// Reduced volumes keep the whole baseline run under a minute while
	// still exercising every stage.
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 2000, 2000, 1000
	logs, err := spec.Generate(1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := etl.WriteLogs(&buf, logs.Benign); err != nil {
		return nil, err
	}
	rawBenign := append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := etl.WriteLogs(&buf, logs.Mixed); err != nil {
		return nil, err
	}
	rawMixed := append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := etl.WriteLogs(&buf, logs.Malicious); err != nil {
		return nil, err
	}
	rawMalicious := append([]byte(nil), buf.Bytes()...)

	ctx := context.Background()
	cfg := core.Config{
		Seed:        1,
		FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	}
	part, err := partition.Split(logs.Benign)
	if err != nil {
		return nil, err
	}
	enc, err := preprocess.Fit(part.Events, preprocess.Config{})
	if err != nil {
		return nil, err
	}
	art, err := core.BuildArtifacts(ctx, logs.Benign, logs.Mixed, cfg)
	if err != nil {
		return nil, err
	}
	clf, err := art.Select(cfg.Seed).Train(ctx)
	if err != nil {
		return nil, err
	}
	prob := gridProblem()
	grid := svm.DefaultGrid()

	base := &perfBaseline{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Dataset:     fmt.Sprintf("%s (%d/%d/%d events)", name, spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents),
	}

	// parse times the parser on the in-memory log; parse-stream times the
	// io.Reader entry, which is one copy of the input plus the same parse.
	base.Results = append(base.Results, toPerfResult("parse", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rawBenign)))
		for i := 0; i < b.N; i++ {
			if _, err := etl.ParseBytes(rawBenign, etl.ParseOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})))

	base.Results = append(base.Results, toPerfResult("parse-stream", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rawBenign)))
		for i := 0; i < b.N; i++ {
			if _, err := etl.Parse(bytes.NewReader(rawBenign)); err != nil {
				b.Fatal(err)
			}
		}
	})))

	base.Results = append(base.Results, toPerfResult("featurize", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rawBenign)))
		var scratch preprocess.Scratch
		var tuples []preprocess.Tuple
		var wins preprocess.WindowBuf
		for i := 0; i < b.N; i++ {
			tuples = enc.EncodeInto(tuples[:0], part, &scratch)
			if err := preprocess.CoalesceInto(&wins, tuples, 10); err != nil {
				b.Fatal(err)
			}
		}
	})))

	base.Results = append(base.Results, toPerfResult("artifacts", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildArtifacts(ctx, logs.Benign, logs.Mixed, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})))

	base.Results = append(base.Results, toPerfResult("select-train", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rawBenign) + len(rawMixed)))
		for i := 0; i < b.N; i++ {
			// Vary the seed as EvaluateRuns does: this is the per-run
			// marginal cost once artifacts exist.
			if _, err := art.Select(cfg.Seed + int64(i)*7919).Train(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})))

	base.Results = append(base.Results, toPerfResult("train", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := td.Train(); err != nil {
				b.Fatal(err)
			}
		}
	})))

	base.Results = append(base.Results, toPerfResult("gridsearch", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := svm.GridSearch(prob, grid); err != nil {
				b.Fatal(err)
			}
		}
	})))

	base.Results = append(base.Results, toPerfResult("detect", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rawMalicious)))
		for i := 0; i < b.N; i++ {
			if _, err := clf.DetectLog(logs.Malicious); err != nil {
				b.Fatal(err)
			}
		}
	})))

	return base, nil
}

func printPerfResults(results []perfResult) {
	for _, r := range results {
		line := fmt.Sprintf("%-12s %12.0f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.MBPerSec > 0 {
			line += fmt.Sprintf(" %8.1f MB/s", r.MBPerSec)
		}
		fmt.Println(line)
	}
}

// runPerfBaseline benchmarks the hot paths and writes the JSON baseline
// to path.
func runPerfBaseline(path string) error {
	base, err := runPerfSuite()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	printPerfResults(base.Results)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// perfRegressionThreshold flags fresh runs slower than baseline by more
// than this ratio (>20% ns/op); allocRegressionThreshold does the same
// for allocs/op, with allocRegressionSlack absolute allocations of
// headroom so near-zero baselines don't flag on measurement jitter.
const (
	perfRegressionThreshold  = 1.20
	allocRegressionThreshold = 1.20
	allocRegressionSlack     = 16
)

// runPerfCompare re-runs the benchmark suite and diffs it against the
// committed baseline at path. ns/op regressions beyond the threshold
// fail the run unless warnOnly is set; allocs/op regressions always
// fail — allocation counts are deterministic, so they transfer across
// machines and warrant a hard gate even where timings only warrant a
// warning. Benchmarks present on only one side are reported but never
// fail the comparison (new entries appear when the suite grows).
func runPerfCompare(path string, warnOnly bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed perfBaseline
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	old := make(map[string]perfResult, len(committed.Results))
	for _, r := range committed.Results {
		old[r.Name] = r
	}

	fresh, err := runPerfSuite()
	if err != nil {
		return err
	}

	var regressions []string
	var allocRegressions []string
	for _, r := range fresh.Results {
		o, ok := old[r.Name]
		if !ok {
			fmt.Printf("%-12s %12.0f ns/op %8d allocs/op   (new, not in baseline)\n", r.Name, r.NsPerOp, r.AllocsPerOp)
			continue
		}
		ratio := r.NsPerOp / o.NsPerOp
		status := "ok"
		if ratio > perfRegressionThreshold {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx)", r.Name, o.NsPerOp, r.NsPerOp, ratio))
		}
		if float64(r.AllocsPerOp) > float64(o.AllocsPerOp)*allocRegressionThreshold+allocRegressionSlack {
			status = "ALLOC REGRESSION"
			allocRegressions = append(allocRegressions,
				fmt.Sprintf("%s: %d -> %d allocs/op", r.Name, o.AllocsPerOp, r.AllocsPerOp))
		}
		fmt.Printf("%-12s %12.0f ns/op  baseline %12.0f  %5.2fx  %8d allocs/op  baseline %8d  %s\n",
			r.Name, r.NsPerOp, o.NsPerOp, ratio, r.AllocsPerOp, o.AllocsPerOp, status)
	}
	for _, o := range committed.Results {
		found := false
		for _, r := range fresh.Results {
			if r.Name == o.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-12s missing from fresh run (present in baseline)\n", o.Name)
		}
	}
	if len(regressions) > 0 {
		msg := fmt.Sprintf("%d perf regression(s) vs %s (threshold %.0f%%):", len(regressions), path, (perfRegressionThreshold-1)*100)
		for _, r := range regressions {
			msg += "\n  " + r
		}
		if warnOnly {
			fmt.Fprintln(os.Stderr, "warning:", msg)
		} else {
			return fmt.Errorf("%s", msg)
		}
	}
	// The allocation gate ignores warnOnly: allocs/op is deterministic,
	// so a regression here is a code change, not host noise.
	if len(allocRegressions) > 0 {
		msg := fmt.Sprintf("%d allocation regression(s) vs %s (threshold %.0f%% + %d):",
			len(allocRegressions), path, (allocRegressionThreshold-1)*100, allocRegressionSlack)
		for _, r := range allocRegressions {
			msg += "\n  " + r
		}
		return fmt.Errorf("%s", msg)
	}
	if len(regressions) == 0 {
		fmt.Printf("no perf regressions vs %s\n", path)
	}
	return nil
}
