// Command leaps-cfg infers application control flow graphs from raw event
// trace logs (Algorithm 1 of the paper) and optionally compares a mixed
// CFG against a benign one the way Figure 4 does.
//
// Usage:
//
//	leaps-cfg -log benign.letl [-app vim.exe] [-dot out.dot]
//	leaps-cfg -log benign.letl -diff mixed.letl
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cfg"
	"repro/internal/etl"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slogx"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leaps-cfg:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leaps-cfg", flag.ContinueOnError)
	var (
		logPath   = fs.String("log", "", "raw event-trace-log file (.letl)")
		app       = fs.String("app", "", "application to slice (defaults to the only process)")
		dotPath   = fs.String("dot", "", "write the inferred CFG as Graphviz DOT to this file")
		diffPath  = fs.String("diff", "", "second raw log; compare its CFG against -log's")
		quiet     = fs.Bool("quiet", false, "only warnings and errors")
		verbose   = fs.Bool("verbose", false, "debug-level logging")
		logJSON   = fs.Bool("log-json", false, "emit JSON log records instead of key=value text")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /spans and pprof on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Configure(slogx.Options{Level: slogx.CLILevel(*quiet, *verbose), JSON: *logJSON})
	if *logPath == "" {
		return fmt.Errorf("missing -log")
	}
	if *debugAddr != "" {
		srv, err := telemetry.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		slogx.Info("debug server listening", "addr", srv.Addr)
	}

	base, inf, err := inferFromFile(*logPath, *app)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d nodes, %d edges (%d explicit, %d implicit), %d stackless events skipped\n",
		*logPath, inf.Graph.NumNodes(), inf.Graph.NumEdges(),
		inf.ExplicitEdges, inf.ImplicitEdges, inf.SkippedEvents)

	if *dotPath != "" {
		resolve := func(a uint64) string {
			return base.Modules.Resolve(trace.Frame{Addr: a}).Function
		}
		if err := os.WriteFile(*dotPath, []byte(inf.Graph.DOT("cfg", resolve)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}

	if *diffPath == "" {
		return nil
	}
	_, other, err := inferFromFile(*diffPath, *app)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d nodes, %d edges\n", *diffPath, other.Graph.NumNodes(), other.Graph.NumEdges())
	d := cfg.DiffGraphs(inf.Graph, other.Graph)
	fmt.Printf("common edges: %d\nonly in %s: %d\nonly in %s: %d\n",
		len(d.Common), *logPath, len(d.OnlyA), *diffPath, len(d.OnlyB))
	comps := other.Graph.WeaklyConnectedComponents()
	fmt.Printf("%s has %d weakly connected components (largest %d nodes)\n",
		*diffPath, len(comps), len(comps[0]))
	return nil
}

// inferFromFile parses a raw log, slices the application, partitions the
// stacks and infers the CFG.
func inferFromFile(path, app string) (*trace.Log, *cfg.Inference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	raw, err := etl.Parse(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	log, err := raw.SliceApp(app)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	part, err := partition.Split(log)
	if err != nil {
		return nil, nil, err
	}
	inf, err := cfg.Infer(part)
	if err != nil {
		return nil, nil, err
	}
	return log, inf, nil
}
