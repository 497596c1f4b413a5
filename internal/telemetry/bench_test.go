package telemetry

import (
	"context"
	"testing"
)

// The acceptance bar for the detect hot path: a counter increment at or
// under ~10 ns/op.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_par_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_hist", "", DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("bench_vec", "", "cause")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("truncated").Inc()
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	ResetSpans()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "bench")
		s.End()
	}
}
