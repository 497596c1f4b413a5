package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// overflowed returns how many updates v folded into its overflow child.
func overflowed(v *CounterVec) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c, ok := v.children[OverflowLabel]; ok {
		return c.Value()
	}
	return 0
}

func TestCounterVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("cap_test_total", "cardinality cap", "who")
	for i := 0; i < MaxLabelCardinality+10; i++ {
		vec.With(fmt.Sprintf("value-%d", i)).Inc()
	}
	if got := overflowed(vec); got != 10 {
		t.Fatalf("overflowed %d, want 10", got)
	}
	// Updates to an already-materialised child keep landing there.
	vec.With("value-0").Inc()
	if got := overflowed(vec); got != 10 {
		t.Fatalf("existing child folded into overflow: overflowed %d", got)
	}
	// A repeat of a folded value folds again rather than materialising.
	vec.With(fmt.Sprintf("value-%d", MaxLabelCardinality+1)).Inc()
	if got := overflowed(vec); got != 11 {
		t.Fatalf("repeat overflow value did not fold: overflowed %d", got)
	}
	// The overflow child surfaces in the snapshot like any other.
	var overflow *MetricSnapshot
	children := 0
	for _, m := range r.Snapshot() {
		if m.Name != "cap_test_total" {
			continue
		}
		children++
		if m.LabelValue == OverflowLabel {
			c := m
			overflow = &c
		}
	}
	if children != MaxLabelCardinality+1 {
		t.Fatalf("snapshot has %d children, want %d materialised + 1 overflow",
			children, MaxLabelCardinality)
	}
	if overflow == nil || overflow.Value != 11 {
		t.Fatalf("overflow child missing or wrong: %+v", overflow)
	}
}

func TestHistogramVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("hcap_seconds", "cardinality cap", "route", []float64{1})
	for i := 0; i < MaxLabelCardinality+5; i++ {
		vec.With(fmt.Sprintf("route-%d", i)).Observe(0.5)
	}
	over := vec.With(OverflowLabel)
	if over.count.Load() != 5 {
		t.Fatalf("overflow histogram holds %d observations, want 5", over.count.Load())
	}
}

func TestObserveTracedStoresExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_seconds", "exemplars", []float64{1, 2})
	h.ObserveTraced(0.5, "aaaa")
	h.ObserveTraced(1.5, "bbbb")
	h.ObserveTraced(0.7, "cccc") // replaces aaaa in the first bucket
	h.ObserveTraced(9.0, "")     // no trace: counted, no exemplar
	snap := r.Snapshot()[0]
	if snap.Count != 4 {
		t.Fatalf("Count = %d, want 4", snap.Count)
	}
	if ex := snap.Buckets[0].Exemplar; ex == nil || ex.TraceID != "cccc" || ex.Value != 0.7 {
		t.Fatalf("bucket 0 exemplar = %+v, want latest trace cccc", ex)
	}
	if ex := snap.Buckets[1].Exemplar; ex == nil || ex.TraceID != "bbbb" {
		t.Fatalf("bucket 1 exemplar = %+v, want bbbb", ex)
	}
	if ex := snap.Buckets[2].Exemplar; ex != nil {
		t.Fatalf("untraced observation grew an exemplar: %+v", ex)
	}
}

// TestHistogramObserveSnapshotConsistency snapshots a histogram while
// writers observe into it (run under -race). Cumulative bucket counts
// are monotone by construction; the +Inf bucket may run ahead of the
// snapshot's Count (buckets increment first) but never behind, and once
// writers finish the two agree exactly.
func TestHistogramObserveSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("race_seconds", "race", []float64{0.25, 0.5, 0.75})
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	go func() {
		for {
			snap := h.snapshot()[0]
			prev := uint64(0)
			for _, b := range snap.Buckets {
				if b.Count < prev {
					errc <- fmt.Errorf("buckets not cumulative: %d after %d", b.Count, prev)
					return
				}
				prev = b.Count
			}
			if prev < snap.Count {
				errc <- fmt.Errorf("+Inf bucket %d behind Count %d", prev, snap.Count)
				return
			}
			if snap.Count == writers*perWriter {
				errc <- nil
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.ObserveTraced(float64(i%4)*0.25, "ffff")
			}
		}(w)
	}
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	final := h.snapshot()[0]
	if last := final.Buckets[len(final.Buckets)-1].Count; last != final.Count || final.Count != writers*perWriter {
		t.Fatalf("final +Inf %d / Count %d, want both %d", last, final.Count, writers*perWriter)
	}
}

func TestQuantile(t *testing.T) {
	// 100 observations: 50 in (0, 1], 30 in (1, 2], 20 in (2, +Inf].
	m := MetricSnapshot{
		Kind:  "histogram",
		Count: 100,
		Buckets: []Bucket{
			{UpperBound: 1, Count: 50},
			{UpperBound: 2, Count: 80},
			{UpperBound: math.Inf(1), Count: 100},
		},
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := m.Quantile(0.5); !approx(got, 1.0) {
		t.Fatalf("p50 = %g, want 1.0 (rank 50 at the first bucket edge)", got)
	}
	if got := m.Quantile(0.65); !approx(got, 1.5) {
		t.Fatalf("p65 = %g, want 1.5 (interpolated inside (1,2])", got)
	}
	// Ranks landing in +Inf clamp to the last finite bound.
	if got := m.Quantile(0.99); !approx(got, 2.0) {
		t.Fatalf("p99 = %g, want clamp to 2.0", got)
	}
	if got := m.Quantile(1.0); !approx(got, 2.0) {
		t.Fatalf("p100 = %g, want clamp to 2.0", got)
	}
	for name, bad := range map[string]MetricSnapshot{
		"no observations": {Kind: "histogram", Buckets: m.Buckets},
		"not a histogram": {Kind: "counter", Value: 3},
	} {
		if got := bad.Quantile(0.5); !math.IsNaN(got) {
			t.Fatalf("%s: Quantile = %g, want NaN", name, got)
		}
	}
	if got := m.Quantile(0); !math.IsNaN(got) {
		t.Fatalf("q=0: got %g, want NaN", got)
	}
}

// goldenRegistrySnapshot builds a snapshot exercising every instrument
// kind — a labeled histogram with an exemplar included — with the
// wall-clock exemplar timestamp pinned so golden text is deterministic.
func goldenRegistrySnapshot() []MetricSnapshot {
	r := NewRegistry()
	r.Counter("g_events_total", "events seen").Add(3)
	r.Gauge("g_depth", "queue depth").Set(2.5)
	cv := r.CounterVec("g_skips_total", "skips by cause", "cause")
	cv.With("parse").Add(2)
	cv.With("io").Inc()
	hv := r.HistogramVec("g_latency_seconds", "latency by route", "route", []float64{0.1, 1})
	hv.With("GET /x").ObserveTraced(0.05, "4bf92f3577b34da6a3ce929d0e0e4736")
	hv.With("GET /x").Observe(0.5)

	snap := r.Snapshot()
	fixed := time.UnixMilli(1700000000500).UTC()
	for i := range snap {
		for j, b := range snap[i].Buckets {
			if b.Exemplar != nil {
				ex := *b.Exemplar
				ex.Time = fixed
				snap[i].Buckets[j].Exemplar = &ex
			}
		}
	}
	return snap
}

// goldenBody is the shared family/sample portion of both exposition
// formats; exemplarTail is spliced onto the traced bucket's line in the
// OpenMetrics variant only.
const goldenBody = `# HELP g_depth queue depth
# TYPE g_depth gauge
g_depth 2.5
# HELP g_events_total events seen
# TYPE g_events_total counter
g_events_total 3
# HELP g_latency_seconds latency by route
# TYPE g_latency_seconds histogram
g_latency_seconds_bucket{route="GET /x",le="0.1"} 1%s
g_latency_seconds_bucket{route="GET /x",le="1"} 2
g_latency_seconds_bucket{route="GET /x",le="+Inf"} 2
g_latency_seconds_sum{route="GET /x"} 0.55
g_latency_seconds_count{route="GET /x"} 2
# HELP g_skips_total skips by cause
# TYPE g_skips_total counter
g_skips_total{cause="io"} 1
g_skips_total{cause="parse"} 2
`

const goldenExemplarTail = ` # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.05 1700000000.500`

// TestWriteTextGolden pins the classic Prometheus text exposition
// byte-for-byte. The classic format never carries exemplars — the
// text-format parser rejects a mid-line '#' after a sample value.
func TestWriteTextGolden(t *testing.T) {
	var sb strings.Builder
	if err := WriteText(&sb, goldenRegistrySnapshot()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(goldenBody, "")
	if got := sb.String(); got != want {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if strings.Contains(sb.String(), " # {") {
		t.Fatal("classic text format leaked an OpenMetrics exemplar")
	}
}

// TestWriteOpenMetricsGolden pins the OpenMetrics exposition: the same
// samples plus the exemplar on the traced bucket and the mandatory
// "# EOF" terminator.
func TestWriteOpenMetricsGolden(t *testing.T) {
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, goldenRegistrySnapshot()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(goldenBody, goldenExemplarTail) + "# EOF\n"
	if got := sb.String(); got != want {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteOpenMetricsExemplarSyntax checks the live (non-pinned)
// exemplar tail against the OpenMetrics grammar.
func TestWriteOpenMetricsExemplarSyntax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("syn_seconds", "syntax", []float64{1})
	h.ObserveTraced(0.5, "deadbeefdeadbeefdeadbeefdeadbeef")
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`_bucket\{le="1"\} 1 # \{trace_id="deadbeefdeadbeefdeadbeefdeadbeef"\} 0\.5 \d+\.\d{3}\n`)
	if !re.MatchString(sb.String()) {
		t.Fatalf("exemplar tail does not match OpenMetrics syntax:\n%s", sb.String())
	}
}
