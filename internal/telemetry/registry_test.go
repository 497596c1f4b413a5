package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	// Get-or-create returns the same instruments.
	if r.Counter("test_total", "") != c || r.Gauge("test_gauge", "") != g {
		t.Error("re-registration returned a different instrument")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering x as gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("sum = %v, want 556.5", h.Sum())
	}
	snap := h.snapshot()[0]
	wantCum := []uint64{2, 3, 4, 5} // le=1:2 (0.5 and 1), le=10:3, le=100:4, +Inf:5
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, 1) {
		t.Error("last bucket bound is not +Inf")
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("skips_total", "skips", "cause")
	v.With("truncated").Add(3)
	v.With("semantic").Inc()
	if v.With("truncated").Value() != 3 {
		t.Error("labeled child not shared")
	}
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snaps))
	}
	// Sorted by label value: semantic before truncated.
	if snaps[0].LabelValue != "semantic" || snaps[1].LabelValue != "truncated" {
		t.Errorf("label order = %q, %q", snaps[0].LabelValue, snaps[1].LabelValue)
	}
	if snaps[0].Label != "cause" {
		t.Errorf("label key = %q, want cause", snaps[0].Label)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_hist", "", []float64{10, 100})
	v := r.CounterVec("conc_vec", "", "k")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				v.With([]string{"a", "b"}[w%2]).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if v.With("a").Value()+v.With("b").Value() != workers*per {
		t.Error("vec children lost increments")
	}
}

func TestResetZeroes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reset_total", "")
	h := r.Histogram("reset_hist", "", []float64{1})
	v := r.CounterVec("reset_vec", "", "k")
	c.Inc()
	h.Observe(0.5)
	v.With("x").Inc()
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("reset left counter/histogram state")
	}
	if len(v.snapshot()) != 0 {
		t.Error("reset left vec children")
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a").Add(2)
	r.Histogram("b_seconds", "latency", []float64{0.1}).Observe(0.05)
	r.CounterVec("c_total", "causes", "cause").With("x").Inc()
	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 2",
		`b_seconds_bucket{le="0.1"} 1`,
		`b_seconds_bucket{le="+Inf"} 1`,
		"b_seconds_count 1",
		`c_total{cause="x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Histogram("j_hist", "", []float64{1, 2}).Observe(1.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"le":"+Inf"`) {
		t.Errorf("JSON missing +Inf bucket: %s", data)
	}
	var back []MetricSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !math.IsInf(back[0].Buckets[2].UpperBound, 1) {
		t.Errorf("round-trip lost +Inf bound: %+v", back)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0.1, 0.1, 3)
	if lin[0] != 0.1 || math.Abs(lin[2]-0.3) > 1e-12 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExpBuckets(1, 4, 3)
	if exp[0] != 1 || exp[1] != 4 || exp[2] != 16 {
		t.Errorf("ExpBuckets = %v", exp)
	}
	for _, bounds := range [][]float64{DurationBuckets(), CountBuckets(), UnitBuckets()} {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Errorf("bucket layout not ascending: %v", bounds)
			}
		}
	}
}
