package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// goldenCanonicalPath holds the reports of every canonical scenario.
const goldenCanonicalPath = "testdata/canonical.golden.json"

// TestCanonicalGolden runs every canonical scenario and requires its
// full report to equal the committed golden byte for byte: counts,
// verdict checksums, virtual latencies and the per-replica rows. The
// simulator is deterministic, so any difference means the verdict
// stream, the schedule or the service model changed. On a mismatch the
// test prints the fresh golden, which replaces the file once the change
// is deliberate.
func TestCanonicalGolden(t *testing.T) {
	want, err := os.ReadFile(goldenCanonicalPath)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Report
	for _, sc := range Canonical() {
		rep, err := Run(Config{Scenario: sc, WorkDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		reps = append(reps, rep)
	}
	got, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("canonical reports differ from %s; got\n%s", goldenCanonicalPath, got)
	}
}
