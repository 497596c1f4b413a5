package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderKeepsNewestEntries(t *testing.T) {
	var f FlightRecorder
	const total = flightSlots + 100
	for i := 0; i < total; i++ {
		f.Record(FlightEntry{Kind: "test", Name: strconv.Itoa(i)})
	}
	if f.next.Load() != total {
		t.Fatalf("Len = %d, want %d", f.next.Load(), total)
	}
	got := f.Snapshot()
	if len(got) != flightSlots {
		t.Fatalf("snapshot holds %d entries, want ring capacity %d", len(got), flightSlots)
	}
	for i, e := range got {
		want := strconv.Itoa(total - flightSlots + i)
		if e.Name != want {
			t.Fatalf("entry %d is %q, want %q (oldest first)", i, e.Name, want)
		}
		if e.Time.IsZero() {
			t.Fatalf("entry %d has no timestamp stamped", i)
		}
	}
}

// TestFlightRecorderConcurrent hammers the ring from many writers while
// a reader snapshots (run under -race): no write may be lost from the
// total count and every surfaced entry must be intact.
func TestFlightRecorderConcurrent(t *testing.T) {
	var f FlightRecorder
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range f.Snapshot() {
					if e.Kind != "w" {
						panic("torn flight entry: " + e.Kind)
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.Record(FlightEntry{Kind: "w", Name: fmt.Sprintf("%d-%d", w, i)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if f.next.Load() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", f.next.Load(), writers*perWriter)
	}
	if got := len(f.Snapshot()); got != flightSlots {
		t.Fatalf("snapshot holds %d entries, want full ring %d", got, flightSlots)
	}
}

func TestFlightRecorderReset(t *testing.T) {
	var f FlightRecorder
	f.Record(FlightEntry{Kind: "test", Name: "a"})
	f.Reset()
	if f.next.Load() != 0 || len(f.Snapshot()) != 0 {
		t.Fatal("Reset left entries behind")
	}
}

func TestWriteFlightDump(t *testing.T) {
	flight.Reset()
	defer flight.Reset()
	RecordFlight(FlightEntry{Kind: "test", Name: "dumped", Trace: "deadbeef"})
	var buf bytes.Buffer
	if err := WriteFlightDump(&buf, "unit-test"); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "unit-test" || dump.DumpedAt.IsZero() {
		t.Fatalf("dump header wrong: %+v", dump)
	}
	if len(dump.Entries) != 1 || dump.Entries[0].Name != "dumped" || dump.Entries[0].Trace != "deadbeef" {
		t.Fatalf("dump entries wrong: %+v", dump.Entries)
	}
}

func TestDumpFlightToSanitizesReason(t *testing.T) {
	flight.Reset()
	defer flight.Reset()
	RecordFlight(FlightEntry{Kind: "test", Name: "x"})
	dir := t.TempDir()
	path, err := DumpFlightTo(dir, "crashpoint-serve/spool/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	if filepath.Dir(path) != dir {
		t.Fatalf("dump %q landed outside %q", path, dir)
	}
	if want := "flight-crashpoint-serve-spool-checkpoint-"; len(base) < len(want) || base[:len(want)] != want {
		t.Fatalf("dump filename %q not sanitized", base)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatal(err)
	}
	// The reason inside the dump stays verbatim.
	if dump.Reason != "crashpoint-serve/spool/checkpoint" {
		t.Fatalf("dump reason %q not verbatim", dump.Reason)
	}
}

// TestDumpFlightRateLimited checks that trigger-driven dumps sharing a
// reason are spaced at least flightDumpMinGap apart, while distinct
// reasons limit independently.
func TestDumpFlightRateLimited(t *testing.T) {
	old := FlightDir()
	defer SetFlightDir(old)
	SetFlightDir(t.TempDir())

	if DumpFlight("ratelimit-a") == "" {
		t.Fatal("first dump for a reason was suppressed")
	}
	if path := DumpFlight("ratelimit-a"); path != "" {
		t.Fatalf("second dump within the gap wrote %q", path)
	}
	if DumpFlight("ratelimit-b") == "" {
		t.Fatal("a different reason was limited by the first one")
	}

	oldGap := flightDumpMinGap
	defer func() { flightDumpMinGap = oldGap }()
	flightDumpMinGap = 0
	if DumpFlight("ratelimit-a") == "" {
		t.Fatal("dump still suppressed after the gap elapsed")
	}
}

// TestPruneFlightDumps checks that DumpFlightTo retains only the newest
// FlightDumpKeep dumps in its directory.
func TestPruneFlightDumps(t *testing.T) {
	dir := t.TempDir()
	// Pre-seed clearly-older dumps so modtime ordering is unambiguous.
	for i := 0; i < 5; i++ {
		path := filepath.Join(dir, fmt.Sprintf("flight-old-%d.json", i))
		if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		past := time.Now().Add(-time.Hour)
		if err := os.Chtimes(path, past, past); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < FlightDumpKeep; i++ {
		if _, err := DumpFlightTo(dir, fmt.Sprintf("new-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != FlightDumpKeep {
		t.Fatalf("%d dumps retained, want %d", len(paths), FlightDumpKeep)
	}
	for _, p := range paths {
		if base := filepath.Base(p); len(base) > 10 && base[:10] == "flight-old" {
			t.Fatalf("pruning kept old dump %s over a newer one", base)
		}
	}
}

func TestDumpFlightNoDirIsNoop(t *testing.T) {
	old := FlightDir()
	defer SetFlightDir(old)
	SetFlightDir("")
	if path := DumpFlight("anything"); path != "" {
		t.Fatalf("DumpFlight with no dir wrote %q", path)
	}
	dir := t.TempDir()
	SetFlightDir(dir)
	path := DumpFlight("configured")
	if path == "" {
		t.Fatal("DumpFlight with a dir configured wrote nothing")
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump %q landed outside %q", path, dir)
	}
}
