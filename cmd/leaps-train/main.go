// Command leaps-train runs the LEAPS training phase: from a benign raw
// log and a mixed raw log of the same application it builds the
// CFG-guided weighted SVM classifier and saves it as a model file.
//
// Usage:
//
//	leaps-train -benign b.letl -mixed m.letl -model out.model \
//	    [-app vim.exe] [-window 10] [-lambda 8 -sigma2 2] [-seed 1] \
//	    [-seeds 1,2,3] [-parallel N] [-lenient] [-registry dir] \
//	    [-quiet] [-verbose] [-log-json] [-debug-addr 127.0.0.1:6060] \
//	    [-telemetry-out report.json]
//
// -lambda and -sigma2 go together: with both, each finite and positive,
// they fix the SVM parameters; without either the parameters are chosen
// by cross-validated grid search on the training set, as in the paper.
// With -lenient, corrupt records in the training logs are skipped and
// reported instead of rejecting the file.
//
// -seeds trains one model per data-selection seed while building the
// seed-independent pipeline artifacts (partitioning, feature clustering,
// CFG inference, weight assessment) exactly once; each extra model costs
// only its own sampling and SVM fit. Models beyond the first are written
// to <model>.seed<N>. -parallel bounds the pipeline's internal worker
// pools (0 = all processors, 1 = serial); results are identical either
// way.
//
// With -registry, each trained model is additionally published into the
// model registry at that directory (creating it on first use), recording
// the training inputs and hyperparameters in the entry's manifest. The
// first entry published into an empty registry becomes the serving
// champion; later entries wait for promotion over the leaps-serve
// /v1/models API. Model files are always written atomically — the bundle
// lands under a temporary name and is renamed into place, so a crash
// mid-write never leaves a partial model at the output path.
//
// A telemetry report (pipeline metrics plus stage timings) is written
// next to the model as <model>.telemetry.json; -telemetry-out overrides
// the path and -telemetry-out none disables it. -debug-addr serves live
// /metrics, /spans, expvar and pprof endpoints while training runs.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/etl"
	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slogx"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leaps-train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leaps-train", flag.ContinueOnError)
	var (
		benignPath   = fs.String("benign", "", "benign raw log (.letl)")
		mixedPath    = fs.String("mixed", "", "mixed raw log (.letl)")
		modelPath    = fs.String("model", "leaps.model", "output model file")
		app          = fs.String("app", "", "application to slice (defaults to the only process)")
		window       = fs.Int("window", 10, "event-coalescing window")
		lambda       = fs.Float64("lambda", 0, "fixed λ, with -sigma2 (omit both to grid-search)")
		sigma2       = fs.Float64("sigma2", 0, "fixed Gaussian σ², with -lambda (omit both to grid-search)")
		seed         = fs.Int64("seed", 1, "data-selection seed")
		seeds        = fs.String("seeds", "", "comma-separated seeds: one model per seed from shared artifacts (overrides -seed)")
		parallel     = fs.Int("parallel", 0, "pipeline worker bound (0 = all processors, 1 = serial)")
		lenient      = fs.Bool("lenient", false, "skip corrupt log records instead of rejecting the file")
		registryDir  = fs.String("registry", "", "publish each trained model into the registry at this directory")
		quiet        = fs.Bool("quiet", false, "only warnings and errors")
		verbose      = fs.Bool("verbose", false, "debug-level logging")
		logJSON      = fs.Bool("log-json", false, "emit JSON log records instead of key=value text")
		debugAddr    = fs.String("debug-addr", "", "serve /metrics, /spans and pprof on this address while running")
		telemetryOut = fs.String("telemetry-out", "", "telemetry report path (default <model>.telemetry.json, \"none\" disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Configure(slogx.Options{Level: slogx.CLILevel(*quiet, *verbose), JSON: *logJSON})
	if armed := faultinject.ArmFromEnv(); len(armed) > 0 {
		slogx.Warn("crash points armed from environment", "points", strings.Join(armed, ","))
	}
	if *benignPath == "" || *mixedPath == "" {
		return fmt.Errorf("missing -benign or -mixed")
	}
	fixed, err := svm.FlagParams(fs, "lambda", "sigma2", *lambda, *sigma2)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		srv, err := telemetry.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		slogx.Info("debug server listening", "addr", srv.Addr)
	}

	benign, err := readLog(*benignPath, *app, *lenient)
	if err != nil {
		return err
	}
	mixed, err := readLog(*mixedPath, *app, *lenient)
	if err != nil {
		return err
	}

	seedList, err := parseSeeds(*seeds, *seed)
	if err != nil {
		return err
	}

	var store *registry.Store
	if *registryDir != "" {
		if store, err = registry.Open(*registryDir); err != nil {
			return err
		}
	}

	cfg := core.Config{Window: *window, Seed: seedList[0], Parallel: *parallel, FixedParams: fixed}
	ctx := context.Background()
	art, err := core.BuildArtifacts(ctx, benign, mixed, cfg)
	if err != nil {
		return err
	}
	slogx.Info("inferred CFGs",
		"benign_nodes", art.BenignCFG.Graph.NumNodes(), "benign_edges", art.BenignCFG.Graph.NumEdges(),
		"mixed_nodes", art.MixedCFG.Graph.NumNodes(), "mixed_edges", art.MixedCFG.Graph.NumEdges())
	slogx.Info("assessed weights",
		"connected_paths", art.Weights.ConnectedPaths,
		"estimated_paths", art.Weights.EstimatedPaths,
		"outside_paths", art.Weights.OutsidePaths)

	for i, s := range seedList {
		clf, err := art.Select(s).Train(ctx)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		slogx.Info("trained WSVM",
			"seed", s,
			"support_vectors", clf.Model().NumSVs(),
			"smo_iterations", clf.Model().Iters,
			"objective", clf.Model().Objective,
			"lambda", clf.Params().Lambda,
			"kernel", fmt.Sprint(clf.Params().Kernel))
		path := *modelPath
		if i > 0 {
			path = fmt.Sprintf("%s.seed%d", *modelPath, s)
		}
		if err := saveModel(path, clf); err != nil {
			return err
		}
		slogx.Info("wrote model", "path", path)
		if store != nil {
			man, err := publishModel(store, path, registry.TrainInfo{
				App:       benign.App,
				Seed:      s,
				Lambda:    clf.Params().Lambda,
				Kernel:    fmt.Sprint(clf.Params().Kernel),
				BenignLog: *benignPath,
				MixedLog:  *mixedPath,
			})
			if err != nil {
				return fmt.Errorf("publishing %s: %w", path, err)
			}
			slogx.Info("published model", "id", man.ID, "registry", *registryDir)
		}
	}

	if path := reportPath(*telemetryOut, *modelPath); path != "" {
		if err := telemetry.WriteJSONFile(path); err != nil {
			return fmt.Errorf("writing telemetry report: %w", err)
		}
		slogx.Info("wrote telemetry report", "path", path)
	}
	return nil
}

// parseSeeds resolves -seeds/-seed: an empty -seeds keeps the single
// -seed; otherwise the comma-separated list wins.
func parseSeeds(list string, single int64) ([]int64, error) {
	if list == "" {
		return []int64{single}, nil
	}
	var out []int64
	for _, part := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %w", part, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// reportPath resolves the -telemetry-out flag: empty derives the report
// path from the primary output, "none" disables the report.
func reportPath(flagValue, output string) string {
	switch flagValue {
	case "":
		return output + ".telemetry.json"
	case "none":
		return ""
	default:
		return flagValue
	}
}

// modelSaver is what saveModel persists — the trained classifier in
// production, fakes in tests.
type modelSaver interface {
	Save(w io.Writer) error
}

// saveModel writes the bundle atomically through registry.WriteFileAtomic:
// a crash or a failed Save never leaves a partial model observable at
// path.
func saveModel(path string, clf modelSaver) error {
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		return err
	}
	return registry.WriteFileAtomic(path, buf.Bytes())
}

// publishModel pushes a saved bundle into the registry store.
func publishModel(store *registry.Store, path string, train registry.TrainInfo) (registry.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return registry.Manifest{}, err
	}
	defer f.Close()
	return store.Publish(f, train)
}

func readLog(path, app string, lenient bool) (*trace.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := etl.ParseWith(f, etl.ParseOpts{Lenient: lenient})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(raw.ErrorLog) > 0 || raw.Dropped > 0 {
		slogx.Warn("log damage skipped", "path", path,
			"corrupt_records", len(raw.ErrorLog), "dropped_stacks", raw.Dropped)
	}
	log, err := raw.SliceApp(app)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return log, nil
}
