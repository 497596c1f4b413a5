// Command leaps-detect runs the LEAPS testing phase: it applies a trained
// model file to a raw event trace log and reports per-window verdicts.
//
// Usage:
//
//	leaps-detect -model leaps.model -log suspect.letl [-app vim.exe] \
//	    [-v] [-expect benign|malicious] [-lenient] [-quiet] [-verbose] \
//	    [-log-json] [-debug-addr 127.0.0.1:6060] [-debug-wait 30s] \
//	    [-telemetry-out report.json]
//
// With -expect, the log is treated as ground truth of one class and the
// hit rate is reported (how Table I's TPR/TNR columns are produced).
// With -lenient, corrupt records in the log are skipped and reported
// instead of rejecting the whole file. A model file whose statistical
// sections are damaged degrades to the bundled call-graph matcher (with a
// warning) rather than refusing to run.
//
// A telemetry report (pipeline metrics plus stage timings) is written
// next to the log as <log>.telemetry.json; -telemetry-out overrides the
// path and -telemetry-out none disables it. -debug-addr serves live
// /metrics, /spans, expvar and pprof endpoints; -debug-wait keeps them up
// for the given duration after detection finishes so they can be scraped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/etl"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slogx"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leaps-detect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leaps-detect", flag.ContinueOnError)
	var (
		modelPath    = fs.String("model", "", "trained model file from leaps-train")
		logPath      = fs.String("log", "", "raw log to classify (.letl)")
		app          = fs.String("app", "", "application to slice (defaults to the only process)")
		verbose      = fs.Bool("v", false, "print every window verdict")
		expect       = fs.String("expect", "", "ground truth class: benign or malicious")
		lenient      = fs.Bool("lenient", false, "skip corrupt log records instead of rejecting the file")
		quiet        = fs.Bool("quiet", false, "only warnings and errors")
		verboseLog   = fs.Bool("verbose", false, "debug-level logging")
		logJSON      = fs.Bool("log-json", false, "emit JSON log records instead of key=value text")
		debugAddr    = fs.String("debug-addr", "", "serve /metrics, /spans and pprof on this address while running")
		debugWait    = fs.Duration("debug-wait", 0, "keep the debug server up this long after detection finishes")
		telemetryOut = fs.String("telemetry-out", "", "telemetry report path (default <log>.telemetry.json, \"none\" disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Configure(slogx.Options{Level: slogx.CLILevel(*quiet, *verboseLog), JSON: *logJSON})
	if *modelPath == "" || *logPath == "" {
		return fmt.Errorf("missing -model or -log")
	}
	switch *expect {
	case "", "benign", "malicious":
	default:
		return fmt.Errorf("-expect must be benign or malicious, got %q", *expect)
	}
	if *debugAddr != "" {
		srv, err := telemetry.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		slogx.Info("debug server listening", "addr", srv.Addr)
	}

	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	mon, err := core.LoadMonitor(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	var fbErr *core.FallbackUnavailableError
	if errors.As(err, &fbErr) {
		// Distinguish "your bundle predates the embedded call graph" from
		// a generic parse failure: the fix is a migration, not a retrain
		// from scratch (DESIGN.md §5, "v1→v2 bundle migration").
		return fmt.Errorf("model %s cannot run degraded: %w", *modelPath, fbErr)
	}
	if err != nil {
		return err
	}
	if mon.Degraded() {
		slogx.Warn("statistical model unusable; running degraded call-graph matcher",
			"cause", fmt.Sprint(mon.DegradedCause()))
	}

	log, raw, err := readLog(*logPath, *app, *lenient)
	if err != nil {
		return err
	}
	if len(raw.ErrorLog) > 0 || raw.Dropped > 0 {
		slogx.Warn("log damage skipped", "path", *logPath,
			"corrupt_records", len(raw.ErrorLog), "dropped_stacks", raw.Dropped,
			"events_recovered", log.Len())
	}
	dets, err := mon.DetectLog(log)
	if err != nil {
		return err
	}
	if len(dets) == 0 {
		return fmt.Errorf("log too short: no full event windows")
	}

	var malicious int
	for _, d := range dets {
		if d.Malicious {
			malicious++
		}
		if *verbose {
			verdict := "benign"
			if d.Malicious {
				verdict = "MALICIOUS"
			}
			fmt.Printf("events %5d-%5d  score %+.4f  %s\n", d.FirstEvent, d.LastEvent, d.Score, verdict)
		}
	}
	fmt.Printf("%s: %d windows, %d flagged malicious (%.1f%%)\n",
		*logPath, len(dets), malicious, 100*float64(malicious)/float64(len(dets)))

	if *expect != "" {
		correct := len(dets) - malicious
		if *expect == "malicious" {
			correct = malicious
		}
		fmt.Printf("hit rate vs %s ground truth: %.3f\n",
			*expect, float64(correct)/float64(len(dets)))
	}

	if path := reportPath(*telemetryOut, *logPath); path != "" {
		if err := telemetry.WriteJSONFile(path); err != nil {
			return fmt.Errorf("writing telemetry report: %w", err)
		}
		slogx.Info("wrote telemetry report", "path", path)
	}
	if *debugWait > 0 && *debugAddr != "" {
		slogx.Info("holding debug server open", "wait", debugWait.String())
		time.Sleep(*debugWait)
	}
	return nil
}

// reportPath resolves the -telemetry-out flag: empty derives the report
// path from the primary input, "none" disables the report.
func reportPath(flagValue, input string) string {
	switch flagValue {
	case "":
		return input + ".telemetry.json"
	case "none":
		return ""
	default:
		return flagValue
	}
}

func readLog(path, app string, lenient bool) (*trace.Log, *etl.RawFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	raw, err := etl.ParseWith(f, etl.ParseOpts{Lenient: lenient})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	log, err := raw.SliceApp(app)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return log, raw, nil
}
