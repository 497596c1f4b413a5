// Command leaps-benchmark is the repository benchmark. It generates a
// workload's inputs from a seed, sets the program up, runs a fixed amount
// of work, checks every output and prints one JSON result line. See
// README.md for the workloads and the reasons behind their shape.
//
//	bash benchmark/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown, measured by spans the benchmark
// records around its own calls into each module.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is a metric name with its unit.
type named struct{ name, unit string }

// endToEnd lists the untraced run's metrics, reported by every workload.
var endToEnd = []named{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_us_per_event", "us/event"},
	{"rss_mb", "MB"},
	{"window_tpr", "ratio"},
	{"window_tnr", "ratio"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the traced run's metrics, keyed by module. A workload
// that never enters a layer reports 0 for it.
var perLayer = []named{
	{"fleet.forward_self_us", "us"},
	{"fleet.sync_round_ms", "ms"},
	{"serve.handle_ms", "ms"},
	{"serve.decode_us_per_event", "us/event"},
	{"serve.resolve_us_per_event", "us/event"},
	{"serve.rest_us_per_event", "us/event"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.create_ms", "ms"},
	{"serve.rejected", "count"},
	{"core.feed_us_per_event", "us/event"},
	{"core.detect_us_per_event", "us/event"},
	{"core.artifacts_ms", "ms"},
	{"core.select_train_ms", "ms"},
	{"core.save_ms", "ms"},
	{"core.load_ms", "ms"},
	{"etl.parse_mb_per_s", "MB/s"},
	{"etl.parse_us_per_event", "us/event"},
	{"etl.error_records", "count"},
	{"partition.split_us_per_event", "us/event"},
	{"preprocess.encode_us_per_event", "us/event"},
	{"svm.decision_us_per_window", "us/window"},
	{"svm.num_svs", "count"},
	{"preprocess.fit_ms", "ms"},
	{"cfg.infer_ms", "ms"},
	{"weight.assess_ms", "ms"},
	{"registry.publish_ms", "ms"},
	{"registry.promote_ms", "ms"},
	{"registry.bundle_kb", "KB"},
	{"go.alloc_bytes_per_event", "B/event"},
	{"go.mallocs_per_event", "1/event"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// options configure one run.
type options struct {
	workload string
	seed     int64
	// rounds is the number of measured rounds: the fixed amount of work.
	rounds  int
	trace   bool
	workdir string
	// small shrinks every input to smoke-test size.
	small bool
}

// operation is one timed operation.
type operation struct {
	lat    float64 // seconds; +Inf when the operation failed
	events int64   // events it carried (0 for an ingest create or delete)
}

// roundResult is what one round of fixed work produced.
type roundResult struct {
	// ops holds the round's timed operations, in the same order every
	// round.
	ops       []operation
	attempted int64
	failed    int64
	q         quality
	// digest summarises the round's outputs; every round must agree.
	digest uint64
}

// quality counts window verdicts against appsim's ground truth.
type quality struct{ tp, pos, tn, neg int64 }

func (q *quality) add(malicious, flagged bool) {
	if malicious {
		q.pos++
		if flagged {
			q.tp++
		}
		return
	}
	q.neg++
	if !flagged {
		q.tn++
	}
}

func (q *quality) merge(o quality) {
	q.tp += o.tp
	q.pos += o.pos
	q.tn += o.tn
	q.neg += o.neg
}

func (r roundResult) events() (n int64) {
	for _, o := range r.ops {
		n += o.events
	}
	return n
}

// merge sums the results of a round's operations, in order.
func merge(parts []roundResult) roundResult {
	r := roundResult{digest: fnvOffset}
	for _, p := range parts {
		r.ops = append(r.ops, p.ops...)
		r.attempted += p.attempted
		r.failed += p.failed
		r.q.merge(p.q)
		r.digest = fold(r.digest, p.digest)
	}
	return r
}

// workload is one benchmark scenario. Its constructor generates the
// inputs from the seed before anything is timed. A round runs every
// operation of the workload once, the same operations every round.
type workload interface {
	// setup builds the program state the rounds run against, calling
	// l.lap() after each step; each call replaces the previous state.
	setup(tr *tracer, l *laps) error
	// expect computes reference outputs, untimed, before the warm-up.
	expect() error
	// beforeRound prepares a round, untimed.
	beforeRound() error
	// round runs round r; r < 0 is the warm-up round.
	round(tr *tracer, r int) (roundResult, error)
	// root names the span that times one whole operation.
	root() string
	// replay re-runs single stages on the traced rounds' inputs, each in
	// its own span, for the layers no outer span isolates.
	replay(tr *tracer) error
	// layers adds the workload's own per-layer figures to m.
	layers(st map[string]*layerStat, m map[string]float64)
	close()
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "ingest":
		return newIngest(o)
	case "offline":
		return newOffline(o)
	case "train":
		return newTrain(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, offline or train)", o.workload)
}

// roundsFor sizes the fixed work from --seconds: the number of rounds of
// the workload that fit in that time on a 2-vCPU machine, at least 3.
func roundsFor(workload string, seconds int) int {
	nominal := map[string]float64{"ingest": 0.7, "offline": 0.5, "train": 0.9}[workload]
	if nominal == 0 {
		return 0
	}
	return max(3, int(math.Round(float64(seconds)/nominal)))
}

// stamp identifies the environment of a run; it is printed before the
// result line.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Rounds     int    `json:"rounds"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Ops is the number of operations behind the latency percentiles,
	// each timed once per round; Digest is the output checksum every
	// round agreed on.
	Ops    int    `json:"ops"`
	Digest string `json:"digest"`
}

func main() {
	var o options
	var seconds, traced int
	flag.StringVar(&o.workload, "workload", "", "ingest, offline or train")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "nominal measuring time; sets the number of fixed-size rounds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced per-layer breakdown")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and span dumps")
	flag.Parse()
	o.rounds = roundsFor(o.workload, seconds)
	o.trace = traced == 1

	// The modules log routine operations at Info; the result goes to
	// stdout alone.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	res, st, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leaps-benchmark:", err)
		os.Exit(1)
	}
	stampLine, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		fmt.Fprintln(os.Stderr, "leaps-benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leaps-benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(stampLine))
	fmt.Println(string(line))
}

// run executes one workload end to end: set-up, warm-up, the measured
// rounds, the output checks and, when traced, the per-layer breakdown.
func run(o options) (*result, stamp, error) {
	st := stamp{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Rounds: o.rounds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, st, err
	}
	w, err := newWorkload(o)
	if err != nil {
		return nil, st, err
	}
	defer w.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setupS, err := timeSetup(w, tr)
	if err != nil {
		return nil, st, fmt.Errorf("setup: %w", err)
	}
	if err := w.expect(); err != nil {
		return nil, st, fmt.Errorf("reference outputs: %w", err)
	}

	var ref roundResult
	res := &result{Metrics: map[string]metric{}}
	var (
		q                        quality
		events                   int64
		fastest                  []float64
		rates, cpus, tracedRates []float64
		rssMB                    []float64
		rc0                      runtimeCounters
		rss                      *residentSampler
		measured                 int
	)
	// Round -1 is the untimed warm-up: it fills caches, connection pools
	// and the runtime's heap, and its outputs are the reference every
	// later round must reproduce. The traced run alternates traced and
	// untraced rounds so the tracing overhead is measured in one process.
	for r := -1; r < o.rounds; r++ {
		if err := w.beforeRound(); err != nil {
			return nil, st, fmt.Errorf("round %d: %w", r, err)
		}
		runtime.GC() // every round starts from the same heap
		if r == 0 {
			telemetry.Default().Reset()
			rc0 = readRuntimeCounters()
			rss = startResidentSampler()
			defer rss.finish()
		}
		var rtr *tracer
		if o.trace && r%2 == 1 {
			rtr = tr
		}
		if rss != nil {
			rss.take()
		}
		c0, t0 := cpuTime(), time.Now()
		c, err := w.round(rtr, r)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return nil, st, fmt.Errorf("round %d: %w", r, err)
		}
		if r < 0 {
			ref = c
		} else if c.digest != ref.digest || len(c.ops) != len(ref.ops) {
			c.failed++
		}
		res.Attempted += c.attempted
		res.Failed += c.failed
		q = c.q
		if r < 0 {
			continue
		}
		measured++
		n := c.events()
		events += n
		rate := float64(n) / wall.Seconds()
		if rtr != nil {
			tracedRates = append(tracedRates, rate)
			continue
		}
		rssMB = append(rssMB, rss.take())
		rates = append(rates, rate)
		cpus = append(cpus, float64(cpu)/1e3/float64(n))
		fastest = fastestOf(fastest, c.ops)
	}
	rc1 := readRuntimeCounters()
	res.Correct = res.Failed == 0 && q.pos > 0 && q.neg > 0
	// Latency percentiles are over the operations that carry events (an
	// ingest batch, an offline scan, a train model), each at its fastest
	// over the rounds.
	var lat []float64
	for i, o := range ref.ops {
		if o.events > 0 {
			lat = append(lat, fastest[i])
		}
	}
	st.Ops, st.Digest = len(lat), fmt.Sprintf("%016x", ref.digest)

	if !o.trace {
		for k, v := range map[string]float64{
			"setup_s":          setupS,
			"events_per_s":     slices.Max(rates),
			"lat_p50_ms":       msOrCap(quantile(lat, 0.50)),
			"lat_p90_ms":       msOrCap(quantile(lat, 0.90)),
			"cpu_us_per_event": slices.Min(cpus),
			"rss_mb":           median(rssMB),
			"window_tpr":       float64(q.tp) / float64(max(q.pos, 1)),
			"window_tnr":       float64(q.tn) / float64(max(q.neg, 1)),
			"ok_ratio":         1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
		} {
			res.Metrics[k] = metric{Value: v}
		}
		return res, st, fill(res, endToEnd)
	}

	if err := w.replay(tr); err != nil {
		return nil, st, fmt.Errorf("per-layer replays: %w", err)
	}
	stats := tr.stats()
	m := layerDefaults(stats)
	m["go.alloc_bytes_per_event"] = float64(rc1.allocBytes-rc0.allocBytes) / float64(events)
	m["go.mallocs_per_event"] = float64(rc1.mallocs-rc0.mallocs) / float64(events)
	// Each round after the first began with a forced collection.
	m["go.gc_cycles"] = float64(int(rc1.gcCycles-rc0.gcCycles) - (measured - 1))
	m["go.gc_pause_ms"] = float64(rc1.gcPauseNs-rc0.gcPauseNs) / 1e6
	m["trace.overhead_pct"] = 100 * (slices.Max(rates)/slices.Max(tracedRates) - 1)
	m["trace.unattributed_pct"] = unattributedPct(stats[w.root()])
	w.layers(stats, m)
	for k, v := range m {
		res.Metrics[k] = metric{Value: v}
	}
	dump := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.dump(dump); err != nil {
		return nil, st, err
	}
	return res, st, fill(res, perLayer)
}

// laps times the consecutive steps of one set-up.
type laps struct {
	last  time.Time
	steps []time.Duration
}

// lap ends the current step and starts the next.
func (l *laps) lap() {
	now := time.Now()
	l.steps = append(l.steps, now.Sub(l.last))
	l.last = now
}

// skip restarts the clock without recording a step, for untimed work.
func (l *laps) skip() { l.last = time.Now() }

// timeSetup runs the set-up at least 10 times and until it has taken a
// second (at most 200 times), and returns the sum over its steps of each
// step's fastest time, in seconds. The last set-up is the one the rounds
// run against.
func timeSetup(w workload, tr *tracer) (float64, error) {
	var best []time.Duration
	var spent time.Duration
	for i := 0; i < 10 || spent < time.Second && i < 200; i++ {
		runtime.GC() // every set-up starts from a collected heap
		l := &laps{last: time.Now()}
		if err := w.setup(tr, l); err != nil {
			return 0, err
		}
		if i > 0 && len(l.steps) != len(best) {
			return 0, fmt.Errorf("set-up took %d steps, then %d", len(best), len(l.steps))
		}
		for j, d := range l.steps {
			spent += d
			if i == 0 {
				best = append(best, d)
			}
			best[j] = min(best[j], d)
		}
	}
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum.Seconds(), nil
}

// fastestOf folds a round's operations into the fastest latency seen for
// each; a failed operation stays +Inf.
func fastestOf(fastest []float64, ops []operation) []float64 {
	if fastest == nil {
		fastest = make([]float64, len(ops))
		for i, o := range ops {
			fastest[i] = o.lat
		}
		return fastest
	}
	for i, o := range ops[:min(len(ops), len(fastest))] {
		if math.IsInf(o.lat, 1) || math.IsInf(fastest[i], 1) {
			fastest[i] = math.Inf(1)
			continue
		}
		fastest[i] = min(fastest[i], o.lat)
	}
	return fastest
}

// msOrCap converts seconds to milliseconds; an infinite latency (a
// failed operation at this percentile) reports as one hour.
func msOrCap(s float64) float64 {
	if math.IsInf(s, 1) {
		return 3.6e6
	}
	return s * 1000
}

// layerDefaults derives the per-layer figures that follow directly from
// span names: "x_ms" is the mean duration of span "x", "x_us_per_event"
// and "x_us_per_window" the summed duration of span "x" per unit of work.
func layerDefaults(stats map[string]*layerStat) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		switch {
		case strings.HasSuffix(l.name, "_us_per_event"):
			m[l.name] = stats[strings.TrimSuffix(l.name, "_us_per_event")].usPerUnit()
		case strings.HasSuffix(l.name, "_us_per_window"):
			m[l.name] = stats[strings.TrimSuffix(l.name, "_us_per_window")].usPerUnit()
		case strings.HasSuffix(l.name, "_ms"):
			m[l.name] = stats[strings.TrimSuffix(l.name, "_ms")].meanMs()
		default:
			m[l.name] = 0
		}
	}
	return m
}

// fill stamps units on the reported metrics and checks the set is
// exactly the expected one, each value finite.
func fill(res *result, want []named) error {
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, n := range want {
		m, ok := res.Metrics[n.name]
		if !ok {
			return fmt.Errorf("metric %s missing", n.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return errors.New("metric " + n.name + " is not finite")
		}
		res.Metrics[n.name] = metric{Value: m.Value, Unit: n.unit}
	}
	return nil
}
