package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is an always-on, fixed-size, lock-free ring of
// recent observability events — span completions, log records, verdict
// summaries, journal transitions, registry operations. It costs one
// atomic add and one pointer store per entry, so it runs in production
// unconditionally and answers the question post-mortems actually ask:
// "what was the system doing just before the breaker tripped / the gate
// said no / the process died?". Dumps are triggered by those exact
// moments (circuit-breaker trip, gate rejection, LEAPS_CRASHPOINT
// exits, SIGQUIT) and on demand via GET /debug/flightrecorder.

// flightSlots is the ring capacity; a power of two so the index wraps
// with a mask instead of a division.
const flightSlots = 2048

// FlightEntry is one recorded moment. Kind partitions the stream
// ("span", "log", "verdict", "http", "journal", "registry", "spool",
// "gate", "shadow"); Trace, when present, is the hex trace ID linking
// the entry to a request or retraining cycle.
type FlightEntry struct {
	// Time is when the entry was recorded.
	Time time.Time `json:"time"`
	// Kind partitions the entry stream by source.
	Kind string `json:"kind"`
	// Name identifies the event within its kind (span path, log message,
	// journal state, HTTP route).
	Name string `json:"name"`
	// Trace is the hex trace ID the event belongs to, if any.
	Trace string `json:"trace,omitempty"`
	// Dur is the event's duration, for kinds that have one (spans, HTTP
	// requests, scoring turns).
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Attrs carries small key=value details (session IDs, entry IDs,
	// verdict counts, log attributes).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// FlightRecorder is the fixed-size lock-free ring. Writers claim a slot
// with one atomic add and publish the entry with one pointer store;
// readers snapshot without blocking writers. A snapshot taken while
// writers are active may miss the very newest entries — the recorder
// trades perfect cuts for zero contention on hot paths.
type FlightRecorder struct {
	next  atomic.Uint64
	slots [flightSlots]atomic.Pointer[FlightEntry]
}

// flight is the process-wide recorder every instrumented package
// records into.
var flight FlightRecorder

// Flight returns the process-wide flight recorder.
func Flight() *FlightRecorder { return &flight }

// Record appends one entry to the ring, stamping Time if unset. It is
// safe from any goroutine.
func (f *FlightRecorder) Record(e FlightEntry) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	i := f.next.Add(1) - 1
	f.slots[i&(flightSlots-1)].Store(&e)
}

// Snapshot returns the recorded entries, oldest first. The ring keeps
// at most flightSlots entries; older ones have been overwritten.
func (f *FlightRecorder) Snapshot() []FlightEntry {
	n := f.next.Load()
	start := uint64(0)
	if n > flightSlots {
		start = n - flightSlots
	}
	out := make([]FlightEntry, 0, n-start)
	for i := start; i < n; i++ {
		if p := f.slots[i&(flightSlots-1)].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// Reset empties the ring. Meant for tests and run separation; unlike
// Record/Snapshot it assumes no concurrent writers.
func (f *FlightRecorder) Reset() {
	f.next.Store(0)
	for i := range f.slots {
		f.slots[i].Store(nil)
	}
}

// RecordFlight appends one entry to the process-wide recorder.
func RecordFlight(e FlightEntry) { flight.Record(e) }

// FlightDump is the JSON layout of a flight-recorder dump: why it was
// taken, when, and the ring's entries oldest first.
type FlightDump struct {
	// DumpedAt is when the dump was written.
	DumpedAt time.Time `json:"dumped_at"`
	// Reason names the trigger: breaker-trip, gate-rejected,
	// crashpoint-<point>, sigquit, on-demand.
	Reason string `json:"reason"`
	// Entries is the ring content, oldest first.
	Entries []FlightEntry `json:"entries"`
}

// WriteFlightDump writes the process-wide recorder as indented JSON.
func WriteFlightDump(w io.Writer, reason string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(FlightDump{
		DumpedAt: time.Now().UTC(),
		Reason:   reason,
		Entries:  flight.Snapshot(),
	})
}

// sanitizeReason maps a free-form reason onto a filename-safe alphabet,
// so triggers named after slash-separated crash points ("serve/spool/
// checkpoint") still produce flat, valid dump filenames.
func sanitizeReason(reason string) string {
	out := []byte(reason)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// FlightDumpKeep bounds how many flight-*.json dumps DumpFlightTo
// retains per directory: after each successful dump the oldest files
// beyond this count are deleted, so repeated triggers (a client
// hammering a failing promotion, a flapping autopilot) cannot fill the
// disk the dumps share with durable state.
const FlightDumpKeep = 32

// DumpFlightTo writes a dump file named flight-<reason>-<nanos>.json
// into dir (created if missing) and returns its path. The reason is
// sanitized for the filename but recorded verbatim inside the dump.
// Older dumps in dir beyond FlightDumpKeep are pruned, best-effort.
func DumpFlightTo(dir, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: flight dump dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%s-%d.json", sanitizeReason(reason), time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = WriteFlightDump(f, reason)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	pruneFlightDumps(dir)
	return path, nil
}

// pruneFlightDumps deletes the oldest flight-*.json files in dir beyond
// FlightDumpKeep. Dumps ride error paths, so pruning is best-effort:
// list or remove failures are swallowed.
func pruneFlightDumps(dir string) {
	paths, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(paths) <= FlightDumpKeep {
		return
	}
	type stamped struct {
		path string
		mod  time.Time
	}
	dumps := make([]stamped, 0, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		dumps = append(dumps, stamped{p, fi.ModTime()})
	}
	sort.Slice(dumps, func(i, j int) bool {
		if !dumps[i].mod.Equal(dumps[j].mod) {
			return dumps[i].mod.Before(dumps[j].mod)
		}
		return dumps[i].path < dumps[j].path
	})
	for i := 0; i < len(dumps)-FlightDumpKeep; i++ {
		_ = os.Remove(dumps[i].path)
	}
}

// DumpGoroutinesTo writes the runtime's full goroutine stack dump
// (pprof "goroutine" profile, debug=2 — the same text SIGQUIT's default
// handler would print before exiting) to goroutines-<reason>-<nanos>.txt
// in dir and returns its path. Catching SIGQUIT for a flight dump
// suppresses the runtime's dump-and-exit escape hatch; this preserves
// the goroutine state alongside the flight recording.
func DumpGoroutinesTo(dir, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: goroutine dump dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("goroutines-%s-%d.txt", sanitizeReason(reason), time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = pprof.Lookup("goroutine").WriteTo(f, 2)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// flightDir is the process-wide dump directory, set once at CLI startup
// (leaps-serve -flight-dir). Empty disables trigger-driven file dumps;
// the HTTP endpoint keeps working either way.
var flightDir atomic.Pointer[string]

// SetFlightDir configures where trigger-driven dumps (gate rejections,
// SIGQUIT, crash-point exits) land. Empty disables them.
func SetFlightDir(dir string) { flightDir.Store(&dir) }

// FlightDir returns the configured dump directory, "" when unset.
func FlightDir() string {
	if p := flightDir.Load(); p != nil {
		return *p
	}
	return ""
}

// flightDumpMinGap is the minimum spacing between trigger-driven dumps
// sharing a reason. Triggers can be client-driven (a gate rejection is
// one failing POST away), so without a floor a hot retry loop would
// churn a dump file per request; one dump per reason per gap loses
// nothing — the ring holds recent history either way. A var so tests
// can shrink it.
var flightDumpMinGap = 30 * time.Second

// flightDumpLast tracks the last trigger-driven dump time per reason.
var (
	flightDumpMu   sync.Mutex
	flightDumpLast = map[string]time.Time{}
)

// flightDumpAllowed records a trigger firing for reason and reports
// whether a dump is due (true at most once per flightDumpMinGap).
func flightDumpAllowed(reason string) bool {
	flightDumpMu.Lock()
	defer flightDumpMu.Unlock()
	now := time.Now()
	if last, ok := flightDumpLast[reason]; ok && now.Sub(last) < flightDumpMinGap {
		return false
	}
	flightDumpLast[reason] = now
	return true
}

// DumpFlight writes a dump to the configured flight directory. With no
// directory configured it is a silent no-op returning "" — triggers
// fire from error paths that must not grow new failure modes. Dumps
// sharing a reason are rate-limited to one per flightDumpMinGap, so a
// client repeatedly tripping the same trigger cannot flood the state
// dir; a suppressed dump also returns "".
func DumpFlight(reason string) string {
	dir := FlightDir()
	if dir == "" {
		return ""
	}
	if !flightDumpAllowed(reason) {
		return ""
	}
	path, err := DumpFlightTo(dir, reason)
	if err != nil {
		return ""
	}
	return path
}
