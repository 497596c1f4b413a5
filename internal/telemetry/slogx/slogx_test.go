package slogx

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// lastFlightLog returns the newest "log" entry in the flight ring.
func lastFlightLog(t *testing.T) telemetry.FlightEntry {
	t.Helper()
	entries := telemetry.Flight().Snapshot()
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Kind == "log" {
			return entries[i]
		}
	}
	t.Fatal("no log entry in the flight recorder")
	return telemetry.FlightEntry{}
}

// TestFlightTeeCarriesBoundAttrsAndGroups checks that attrs bound with
// Logger.With and group prefixes opened with WithGroup survive into the
// flight-recorder entries, alongside the per-call attrs.
func TestFlightTeeCarriesBoundAttrsAndGroups(t *testing.T) {
	telemetry.Flight().Reset()
	defer telemetry.Flight().Reset()
	var buf bytes.Buffer
	l := Configure(Options{Writer: &buf})

	l.With("component", "autopilot").Info("cycle started", "cycle", 3)
	e := lastFlightLog(t)
	if e.Attrs["component"] != "autopilot" {
		t.Errorf("bound attr lost: %v", e.Attrs)
	}
	if e.Attrs["cycle"] != "3" || e.Attrs["level"] != "INFO" {
		t.Errorf("per-call attrs wrong: %v", e.Attrs)
	}

	l.WithGroup("gate").With("entry", "m1").Info("rejected", "reason", "fpr")
	e = lastFlightLog(t)
	if e.Attrs["gate.entry"] != "m1" || e.Attrs["gate.reason"] != "fpr" {
		t.Errorf("group prefix lost: %v", e.Attrs)
	}

	l.Info("grouped value", slog.Group("cmp", slog.Int("events", 9)))
	e = lastFlightLog(t)
	if e.Attrs["cmp.events"] != "9" {
		t.Errorf("inline group not flattened: %v", e.Attrs)
	}
}

func TestConfigureTextAndLevels(t *testing.T) {
	var buf bytes.Buffer
	Configure(Options{Writer: &buf, Level: slog.LevelInfo})
	L().Debug("hidden")
	Info("parsed log", "events", 42, "skipped", 3)
	Warn("degraded")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug line emitted at info level")
	}
	if !strings.Contains(out, "msg=\"parsed log\"") || !strings.Contains(out, "events=42") {
		t.Errorf("info line not key=value formatted:\n%s", out)
	}
	if !strings.Contains(out, "level=WARN") {
		t.Errorf("warn level missing:\n%s", out)
	}
}

func TestConfigureJSON(t *testing.T) {
	var buf bytes.Buffer
	Configure(Options{Writer: &buf, JSON: true})
	Info("wrote model", "path", "/tmp/x.model")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("JSON log line invalid: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "wrote model" || rec["path"] != "/tmp/x.model" {
		t.Errorf("JSON record = %v", rec)
	}
}

func TestQuietSuppressesInfo(t *testing.T) {
	var buf bytes.Buffer
	Configure(Options{Writer: &buf, Level: CLILevel(true, false)})
	Info("progress")
	L().Error("boom", "cause", "x")
	if strings.Contains(buf.String(), "progress") {
		t.Error("quiet level still emitted info")
	}
	if !strings.Contains(buf.String(), "boom") {
		t.Error("quiet level swallowed errors")
	}
}

func TestCLILevel(t *testing.T) {
	if CLILevel(true, true) != slog.LevelWarn {
		t.Error("quiet should win over verbose")
	}
	if CLILevel(false, true) != slog.LevelDebug {
		t.Error("verbose should lower to debug")
	}
	if CLILevel(false, false) != slog.LevelInfo {
		t.Error("default should be info")
	}
}

func TestLNeverNil(t *testing.T) {
	if L() == nil {
		t.Fatal("default logger is nil")
	}
}
