// Command abstat reduces the paired benchmark runs of scripts/ab.sh to a
// verdict table. Each run file holds the two lines benchmark/run.sh
// prints: the stamp, then the result. Files are named
// <side>-<seed>.jsonl, side being "parent" or "change", and the two
// files of one seed form a pair.
//
// For every pair it requires equal outputs: the stamp digest and the
// window_tpr, window_tnr and ok_ratio metrics. For every end-to-end
// metric BENCHMARK.json declares it prints each side's median and
// quartiles, the pairs the change won (in the metric's better
// direction), whether the median moved past the metric's bound the
// wrong way, and whether the claim rule holds: the change wins at least
// 9 pairs in 10 and its median beats the parent's by more than the
// parent's interquartile range. A metric whose parent interquartile
// range, relative to its median, is wider than the bound is unresolved
// instead of crossed, unless every change run beats every parent run.
// The table is also written as JSON.
//
// It exits 1 when outputs differ or a resolved bound is crossed, 2 on
// bad input.
//
//	go run ./scripts/abstat -bench BENCHMARK.json -parent REV -out BENCH_ab.json runs/*.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// run is one benchmark/run.sh invocation.
type run struct {
	digest  string
	metrics map[string]float64
}

// endToEnd is a BENCHMARK.json end-to-end metric declaration.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side summarises one side's values of a metric, in seed order.
type side struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// row is one metric's verdict.
type row struct {
	endToEnd
	Parent side `json:"parent"`
	Change side `json:"change"`
	Wins   int  `json:"wins"`
	// MedianChange is the relative change of the median, (change −
	// parent) / parent.
	MedianChange float64 `json:"median_change"`
	// Unresolved marks a parent spread wider than the bound.
	Unresolved   bool `json:"unresolved"`
	BoundCrossed bool `json:"bound_crossed"`
	ClaimHolds   bool `json:"claim_holds"`
}

// table is the JSON document abstat writes.
type table struct {
	Workload     string   `json:"workload"`
	Parent       string   `json:"parent"`
	Seeds        []int    `json:"seeds"`
	OutputsEqual bool     `json:"outputs_equal"`
	Mismatches   []string `json:"mismatches,omitempty"`
	Metrics      []row    `json:"metrics"`
}

// outputs are the metrics that must agree within every pair.
var outputs = []string{"window_tpr", "window_tnr", "ok_ratio"}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "benchmark declaration holding the end-to-end metrics and bounds")
	parent := flag.String("parent", "", "parent revision, recorded in the table")
	out := flag.String("out", "", "write the table as JSON to this file")
	flag.Parse()
	failed, err := reduce(*bench, *parent, *out, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// reduce builds, prints and writes the table; failed reports differing
// outputs or a crossed bound.
func reduce(benchPath, parent, out string, files []string) (failed bool, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var decl struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	runs := map[string]map[int]run{"parent": {}, "change": {}}
	t := table{Parent: parent}
	for _, f := range files {
		name, seed, ok := strings.Cut(strings.TrimSuffix(filepath.Base(f), ".jsonl"), "-")
		k, err := strconv.Atoi(seed)
		if _, known := runs[name]; !ok || !known || err != nil {
			return false, fmt.Errorf("%s: want <parent|change>-<seed>.jsonl", f)
		}
		r, workload, err := readRun(f)
		if err != nil {
			return false, err
		}
		if t.Workload != "" && workload != t.Workload {
			return false, fmt.Errorf("%s: workload %s, others %s", f, workload, t.Workload)
		}
		t.Workload = workload
		runs[name][k] = r
	}
	for k := range runs["parent"] {
		if _, ok := runs["change"][k]; ok {
			t.Seeds = append(t.Seeds, k)
		}
	}
	slices.Sort(t.Seeds)
	if len(t.Seeds) == 0 || len(t.Seeds) != len(runs["parent"]) || len(t.Seeds) != len(runs["change"]) {
		return false, fmt.Errorf("runs do not form pairs: %d parent, %d change, %d paired", len(runs["parent"]), len(runs["change"]), len(t.Seeds))
	}

	for _, k := range t.Seeds {
		p, c := runs["parent"][k], runs["change"][k]
		if p.digest != c.digest {
			t.Mismatches = append(t.Mismatches, fmt.Sprintf("seed %d: digest %s vs %s", k, p.digest, c.digest))
		}
		for _, m := range outputs {
			if p.metrics[m] != c.metrics[m] {
				t.Mismatches = append(t.Mismatches, fmt.Sprintf("seed %d: %s %v vs %v", k, m, p.metrics[m], c.metrics[m]))
			}
		}
	}
	t.OutputsEqual = len(t.Mismatches) == 0

	failed = !t.OutputsEqual
	for _, d := range decl.EndToEnd {
		r := row{endToEnd: d}
		for _, k := range t.Seeds {
			pv, pok := runs["parent"][k].metrics[d.Name]
			cv, cok := runs["change"][k].metrics[d.Name]
			if !pok || !cok {
				return false, fmt.Errorf("seed %d lacks metric %s", k, d.Name)
			}
			r.Parent.Values = append(r.Parent.Values, pv)
			r.Change.Values = append(r.Change.Values, cv)
			if better(d.Better, cv, pv) {
				r.Wins++
			}
		}
		r.Parent.summarise()
		r.Change.summarise()
		if r.Parent.Median != 0 {
			r.MedianChange = (r.Change.Median - r.Parent.Median) / math.Abs(r.Parent.Median)
		}
		worse := r.MedianChange
		if d.Better == "higher" {
			worse = -worse
		}
		gap := r.Change.Median - r.Parent.Median
		if d.Better == "lower" {
			gap = -gap
		}
		iqr := r.Parent.Q3 - r.Parent.Q1
		r.Unresolved = iqr > d.Bound*math.Abs(r.Parent.Median) && !dominates(d.Better, r.Change.Values, r.Parent.Values)
		r.BoundCrossed = !r.Unresolved && worse > d.Bound
		r.ClaimHolds = 10*r.Wins >= 9*len(t.Seeds) && gap > iqr
		failed = failed || r.BoundCrossed
		t.Metrics = append(t.Metrics, r)
	}

	printTable(t)
	if out != "" {
		b, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return failed, nil
}

// readRun parses one run file: the stamp line, then the result line.
func readRun(path string) (run, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, "", err
	}
	defer f.Close()
	var stamp struct {
		Stamp struct {
			Workload string `json:"workload"`
			Digest   string `json:"digest"`
		} `json:"stamp"`
	}
	var result struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if _, ok := probe["stamp"]; ok {
			if err := json.Unmarshal(line, &stamp); err != nil {
				return run{}, "", fmt.Errorf("%s: %w", path, err)
			}
		} else if _, ok := probe["metrics"]; ok {
			if err := json.Unmarshal(line, &result); err != nil {
				return run{}, "", fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, "", fmt.Errorf("%s: %w", path, err)
	}
	if stamp.Stamp.Workload == "" || result.Metrics == nil {
		return run{}, "", fmt.Errorf("%s: no stamp and result lines", path)
	}
	r := run{digest: stamp.Stamp.Digest, metrics: map[string]float64{}}
	for name, m := range result.Metrics {
		r.metrics[name] = m.Value
	}
	return r, stamp.Stamp.Workload, nil
}

// better reports whether v beats ref in the direction dir.
func better(dir string, v, ref float64) bool {
	if dir == "higher" {
		return v > ref
	}
	return v < ref
}

// dominates reports whether every value of a beats every value of b.
func dominates(dir string, a, b []float64) bool {
	for _, v := range a {
		for _, ref := range b {
			if !better(dir, v, ref) {
				return false
			}
		}
	}
	return true
}

// summarise sets the median and quartiles, interpolating linearly
// between order statistics.
func (s *side) summarise() {
	v := slices.Clone(s.Values)
	slices.Sort(v)
	q := func(p float64) float64 {
		pos := p * float64(len(v)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(v) {
			return v[lo]
		}
		return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
	}
	s.Q1, s.Median, s.Q3 = q(0.25), q(0.5), q(0.75)
}

func printTable(t table) {
	fmt.Printf("workload %s, parent %s, %d pairs (seeds %v)\n", t.Workload, t.Parent, len(t.Seeds), t.Seeds)
	if t.OutputsEqual {
		fmt.Println("outputs: every pair's digest, window_tpr, window_tnr and ok_ratio are equal")
	} else {
		fmt.Println("outputs DIFFER:")
		for _, m := range t.Mismatches {
			fmt.Println("  " + m)
		}
	}
	fmt.Printf("%-18s %-8s %30s %30s %6s %8s %-10s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "median", "bound", "claim")
	for _, r := range t.Metrics {
		bound := "ok"
		switch {
		case r.Unresolved:
			bound = "unresolved"
		case r.BoundCrossed:
			bound = "CROSSED"
		}
		claim := "no"
		if r.ClaimHolds {
			claim = "holds"
		}
		fmt.Printf("%-18s %-8s %30s %30s %3d/%-2d %+7.1f%% %-10s %s\n", r.Name, r.Better,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.Parent.Median, r.Parent.Q1, r.Parent.Q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.Change.Median, r.Change.Q1, r.Change.Q3),
			r.Wins, len(t.Seeds), 100*r.MedianChange, bound, claim)
	}
}
