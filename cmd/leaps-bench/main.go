// Command leaps-bench regenerates the paper's evaluation artifacts: Table
// I, Figures 2, 4, 5, 6 and 7, the three case studies, and the ablation
// studies described in DESIGN.md. The canonical leaps-sim scenarios are
// pinned by internal/sim's TestCanonicalGolden, not by this command.
//
// Usage:
//
//	leaps-bench -table1                 # Table I (WSVM on all 21 datasets)
//	leaps-bench -fig6 -fig7             # model comparisons per method group
//	leaps-bench -cases                  # case studies I-III, paper vs measured
//	leaps-bench -fig2 -fig4 -fig5       # illustrative figures
//	leaps-bench -ablations              # A1-A5 design-choice studies
//	leaps-bench -extensions             # §VI future-work extensions
//	leaps-bench -all -runs 10           # everything at paper fidelity
//	leaps-bench -table1 -csv            # machine-readable output
//	leaps-bench -all -runs 10 -parallel 0            # paper fidelity, parallel pipeline
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slogx"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leaps-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leaps-bench", flag.ContinueOnError)
	var (
		table1     = fs.Bool("table1", false, "reproduce Table I")
		auc        = fs.Bool("auc", false, "report per-dataset ROC AUC for the margin models")
		fig2       = fs.Bool("fig2", false, "reproduce Figure 2 (event preprocessing)")
		fig4       = fs.Bool("fig4", false, "reproduce Figure 4 (benign vs mixed CFG)")
		fig5       = fs.Bool("fig5", false, "reproduce Figure 5 (SVM vs WSVM boundary)")
		fig6       = fs.Bool("fig6", false, "reproduce Figure 6 (offline infection)")
		fig7       = fs.Bool("fig7", false, "reproduce Figure 7 (online injection)")
		cases      = fs.Bool("cases", false, "reproduce case studies I-III")
		ablations  = fs.Bool("ablations", false, "run ablation studies A1-A5")
		extensions = fs.Bool("extensions", false, "run the §VI extension studies (source trojans, HMM)")
		all        = fs.Bool("all", false, "run everything")
		runs       = fs.Int("runs", 3, "data-selection runs to average (paper: 10)")
		seed       = fs.Int64("seed", 0, "base seed (0 = fixed default)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet      = fs.Bool("q", false, "suppress per-dataset progress")
		parallel   = fs.Int("parallel", 0, "per-dataset pipeline worker bound (0 = serial inside datasets; datasets already run concurrently)")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /spans and pprof on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Configure(slogx.Options{Level: slogx.CLILevel(*quiet, false)})
	if *debugAddr != "" {
		srv, err := telemetry.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		slogx.Info("debug server listening", "addr", srv.Addr)
	}
	opts := experiments.Options{Runs: *runs, Seed: *seed, Parallel: *parallel}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	render := func(title string, t *report.Table) {
		fmt.Printf("== %s ==\n", title)
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
		}
		fmt.Println()
	}
	any := false
	start := time.Now()

	if *fig2 || *all {
		any = true
		out, err := experiments.Figure2(1)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 2: preprocessing one system event ==")
		fmt.Println(out)
	}
	if *fig4 || *all {
		any = true
		stats, err := experiments.Figure4(2)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 4: vim benign CFG vs mixed CFG (reverse TCP shell) ==")
		fmt.Println(stats)
	}
	if *fig5 || *all {
		any = true
		res, err := experiments.Figure5(3)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 5: decision boundaries under label noise ==")
		fmt.Printf("plain SVM accuracy on clean data:    %s\n", report.Pct(res.SVMAccuracy))
		fmt.Printf("weighted SVM accuracy on clean data: %s\n\n", report.Pct(res.WSVMAccuracy))
	}
	if *table1 || *auc || *all {
		any = true
		results, err := experiments.RunAll(opts)
		if err != nil {
			return err
		}
		if *table1 || *all {
			render("Table I: LEAPS (WSVM) on all 21 camouflaged-attack datasets", experiments.Table1(results))
		}
		if *auc || *all {
			render("ROC AUC per dataset (threshold-free comparison)", experiments.AUCTable(results))
		}
	}
	if *fig6 || *all {
		any = true
		t, _, err := experiments.Figure6(opts)
		if err != nil {
			return err
		}
		render("Figure 6: CGraph vs SVM vs WSVM — offline infection", t)
	}
	if *fig7 || *all {
		any = true
		t, _, err := experiments.Figure7(opts)
		if err != nil {
			return err
		}
		render("Figure 7: CGraph vs SVM vs WSVM — online injection", t)
	}
	if *cases || *all {
		any = true
		t, err := experiments.CaseStudies(opts)
		if err != nil {
			return err
		}
		render("Case studies I-III (paper vs measured)", t)
	}
	if *ablations || *all {
		any = true
		abls := []struct {
			title string
			run   func(experiments.Options) (*report.Table, error)
		}{
			{"A1: value of CFG guidance (intact vs shuffled weights vs none)", experiments.AblationWeights},
			{"A2: density-array estimate vs hard 0/1 weights (WSVM ACC)", experiments.AblationDensity},
			{"A3: event-coalescing window sweep (WSVM ACC)", experiments.AblationWindow},
			{"A4: mixed-log payload fraction sweep", experiments.AblationNoise},
			{"A5: kernel choice (WSVM ACC)", experiments.AblationKernel},
		}
		for _, a := range abls {
			t, err := a.run(opts)
			if err != nil {
				return err
			}
			render("Ablation "+a.title, t)
		}
	}
	if *extensions || *all {
		any = true
		t, err := experiments.ExtensionSourceTrojan(opts)
		if err != nil {
			return err
		}
		render("Extension §VI-A: source-level trojans with CFG alignment", t)
		t, err = experiments.ExtensionHMM(opts)
		if err != nil {
			return err
		}
		render("Extension §VI-B: HMM sequence model vs the paper's models", t)
		t, err = experiments.ExtensionUniversal(opts)
		if err != nil {
			return err
		}
		render("Extension §II-B2: universal (cross-application) classifier", t)
		t, err = experiments.ExtensionOneClass(opts)
		if err != nil {
			return err
		}
		render("Extension (related work): one-class SVM trained on benign data only", t)
	}
	if !any {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -table1, -auc, -fig2..-fig7, -cases, -ablations, -extensions or -all")
	}
	fmt.Fprintf(os.Stderr, "total: %.1fs\n", time.Since(start).Seconds())
	return nil
}
