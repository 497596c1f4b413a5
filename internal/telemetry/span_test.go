package telemetry

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	ResetSpans()
	ctx, root := StartSpan(context.Background(), "train")
	_, child := StartSpan(ctx, "smo")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	report := SpanReport()
	if len(report) != 2 {
		t.Fatalf("report has %d paths, want 2: %+v", len(report), report)
	}
	// Sorted by path: "train" before "train/smo".
	if report[0].Path != "train" || report[1].Path != "train/smo" {
		t.Fatalf("paths = %q, %q", report[0].Path, report[1].Path)
	}
	if report[1].Count != 1 || report[1].Total <= 0 {
		t.Errorf("child stats wrong: %+v", report[1])
	}
	if report[0].Total < report[1].Total {
		t.Error("parent total shorter than child total")
	}
}

func TestSpanAggregation(t *testing.T) {
	ResetSpans()
	for i := 0; i < 5; i++ {
		_, s := StartSpan(context.Background(), "stage")
		s.End()
	}
	report := SpanReport()
	if len(report) != 1 || report[0].Count != 5 {
		t.Fatalf("aggregation failed: %+v", report)
	}
	if report[0].Min > report[0].Max || report[0].Total < report[0].Max {
		t.Errorf("inconsistent min/max/total: %+v", report[0])
	}
}

func TestSpanConcurrent(t *testing.T) {
	ResetSpans()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := StartSpan(context.Background(), "conc")
				s.End()
			}
		}()
	}
	wg.Wait()
	report := SpanReport()
	if len(report) != 1 || report[0].Count != 1600 {
		t.Fatalf("concurrent aggregation lost spans: %+v", report)
	}
}

func TestWriteSpansTextIndents(t *testing.T) {
	ResetSpans()
	ctx, root := StartSpan(context.Background(), "detect")
	_, child := StartSpan(ctx, "score")
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteSpansText(&buf, SpanReport()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "detect") {
		t.Errorf("parent line not flush left: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  detect/score") {
		t.Errorf("child line not indented: %q", lines[1])
	}
}
