// Command leaps-trace synthesises system event logs for any of the
// paper's 21 datasets and writes them as binary raw event-trace-log
// (.letl) files — the simulator standing in for the paper's ETW capture.
//
// Usage:
//
//	leaps-trace -dataset vim_reverse_tcp -out ./data [-seed 1] [-list] \
//	    [-inject bitflip:0.05,drop:0.02] [-inject-seed 1] [-serve-json]
//
// It writes three files into the output directory:
//
//	<dataset>_benign.letl     clean application run (training positives)
//	<dataset>_mixed.letl      infected run (training negatives)
//	<dataset>_malicious.letl  standalone payload (testing ground truth)
//
// With -inject, each written file is corrupted by the named deterministic
// faults (bitflip, drop, dupstack, garbage, truncate; optional per-fault
// rate after a colon) — fixtures for exercising the lenient parser and
// fault-tolerant detection.
//
// With -serve-json, each log is additionally exported as a pair of JSON
// files in the leaps-serve wire format (<dataset>_<kind>.session.json
// and .events.json), ready to POST to a running server with curl.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slogx"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leaps-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leaps-trace", flag.ContinueOnError)
	var (
		name      = fs.String("dataset", "", "dataset to generate (see -list)")
		out       = fs.String("out", ".", "output directory")
		seed      = fs.Int64("seed", 1, "generation seed")
		list      = fs.Bool("list", false, "list available datasets and exit")
		system    = fs.Bool("system", false, "write system-wide files: each log interleaved with background processes (svchost, explorer)")
		serveJSON = fs.Bool("serve-json", false, "also write <dataset>_<kind>.session.json and .events.json in the leaps-serve wire format")
		inject    = fs.String("inject", "", "corrupt the written files: comma-separated fault[:rate] list (bitflip, drop, dupstack, garbage, truncate)")
		injSeed   = fs.Int64("inject-seed", 1, "fault-injection seed")
		quiet     = fs.Bool("quiet", false, "only warnings and errors")
		verbose   = fs.Bool("verbose", false, "debug-level logging")
		logJSON   = fs.Bool("log-json", false, "emit JSON log records instead of key=value text")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /spans and pprof on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Configure(slogx.Options{Level: slogx.CLILevel(*quiet, *verbose), JSON: *logJSON})
	if *debugAddr != "" {
		srv, err := telemetry.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		slogx.Info("debug server listening", "addr", srv.Addr)
	}
	var specs []faultinject.Spec
	if *inject != "" {
		var err error
		if specs, err = faultinject.ParseSpecs(*inject); err != nil {
			return err
		}
	}
	if *list {
		for _, n := range dataset.Names() {
			fmt.Println(n)
		}
		return nil
	}
	if *name == "" {
		return fmt.Errorf("missing -dataset (use -list to see choices)")
	}
	spec, err := dataset.ByName(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	var background []*trace.Log
	var logs *dataset.Logs
	if *system {
		sys, err := spec.GenerateSystem(*seed)
		if err != nil {
			return err
		}
		logs, background = sys.Logs, sys.Background
	} else {
		if logs, err = spec.Generate(*seed); err != nil {
			return err
		}
	}
	files := []struct {
		suffix string
		log    *trace.Log
	}{
		{"benign", logs.Benign},
		{"mixed", logs.Mixed},
		{"malicious", logs.Malicious},
	}
	for i, f := range files {
		path := filepath.Join(*out, fmt.Sprintf("%s_%s.letl", spec.Name, f.suffix))
		var buf bytes.Buffer
		if err := etl.WriteLogs(&buf, append([]*trace.Log{f.log}, background...)...); err != nil {
			return err
		}
		data := buf.Bytes()
		if len(specs) > 0 {
			// A distinct seed per file keeps the three logs' fault
			// patterns independent while the whole run stays reproducible.
			mutated, rep, err := faultinject.Inject(data, faultinject.Config{
				Seed:  *injSeed + int64(i),
				Specs: specs,
			})
			if err != nil {
				return err
			}
			data = mutated
			slogx.Info("injected faults", "path", path, "report", fmt.Sprint(rep))
			reportRecovery(path, data, f.log.App, f.log.Len())
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		slogx.Info("wrote log", "path", path, "events", f.log.Len(), "app", f.log.App,
			"background_processes", len(background))
		if *serveJSON {
			base := filepath.Join(*out, fmt.Sprintf("%s_%s", spec.Name, f.suffix))
			if err := writeServeJSON(base, f.log); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeServeJSON writes the log's session spec and event batch in the
// leaps-serve wire format, ready to POST with curl:
//
//	<base>.session.json  body for POST /v1/sessions
//	<base>.events.json   body for POST /v1/sessions/{id}/events
func writeServeJSON(base string, log *trace.Log) error {
	session, err := json.MarshalIndent(serve.SessionSpecOf(log, ""), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".session.json", append(session, '\n'), 0o644); err != nil {
		return err
	}
	events, err := json.MarshalIndent(serve.EventBatch{Events: serve.EventSpecsOf(log.Events)}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".events.json", append(events, '\n'), 0o644); err != nil {
		return err
	}
	slogx.Info("wrote serve wire files", "session", base+".session.json",
		"events", base+".events.json")
	return nil
}

// reportRecovery reparses an injected stream leniently and logs how much
// of the application's log survives the corruption. Per-cause skip counts
// land in the etl_skipped_records_total metric family.
func reportRecovery(path string, data []byte, app string, total int) {
	raw, err := etl.ParseBytes(data, etl.ParseOpts{Lenient: true})
	if err != nil {
		slogx.Warn("lenient reparse failed", "path", path, "err", err.Error())
		return
	}
	recovered := 0
	if log, err := raw.SliceApp(app); err == nil {
		recovered = log.Len()
	}
	slogx.Info("lenient reparse recovery", "path", path,
		"events_recovered", recovered, "events_total", total,
		"records_skipped", len(raw.ErrorLog), "stacks_dropped", raw.Dropped)
}
