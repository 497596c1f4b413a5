package autopilot

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// wholeRecords decodes the journal lines of data up to the first line
// that does not decode, skipping blank lines: the records a replay must
// recover.
func wholeRecords(data []byte) []Record {
	var out []Record
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil {
			break
		}
		out = append(out, rec)
	}
	return out
}

// replayJournal writes data as a state directory's journal and opens it.
func replayJournal(t *testing.T, data []byte) *journal {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// FuzzJournalReplay replays arbitrary bytes as autopilot.jsonl through
// openJournal and analyze. The replay must not panic and must recover
// exactly the whole decodable records before the first torn line; the
// records, re-encoded one per line and replayed again, must give the
// same records and the same recovered state.
func FuzzJournalReplay(f *testing.F) {
	at := time.Date(2026, 10, 17, 12, 0, 0, 0, time.UTC)
	var cycle bytes.Buffer
	for i, rec := range []Record{
		{Cycle: 1, State: stateCycleStart, Baseline: 512},
		{Cycle: 1, State: statePublished, Entry: "abc123"},
		{Cycle: 1, State: stateShadowStarted, Entry: "abc123"},
		{Cycle: 1, State: stateEvaluated, Entry: "abc123", Outcome: outcomeApproved},
		{Cycle: 1, State: statePromoted, Entry: "abc123"},
		{Cycle: 1, State: stateCycleDone, Entry: "abc123", Outcome: OutcomePromoted},
		{State: statePaused, Note: "operator"},
		{State: stateResumed},
		{Cycle: 2, State: stateCycleStart, Baseline: 1024},
		{Cycle: 2, State: stateCycleDone, Outcome: OutcomeFailed, Note: "train: boom"},
		{State: stateBreakerOpen},
		{Cycle: 3, State: stateCycleStart, Baseline: 2048},
		{Cycle: 3, State: statePublished, Entry: "def456"},
	} {
		rec.Seq, rec.At = i+1, at.Add(time.Duration(i)*time.Second)
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		cycle.Write(append(line, '\n'))
	}
	f.Add(cycle.Bytes())
	f.Add(cycle.Bytes()[:cycle.Len()-20]) // torn tail
	f.Add(append([]byte("\n  \n"), cycle.Bytes()...))
	f.Add([]byte(`{"seq":1,"state":"cycle-start","cycle":1}` + "\nnot json\n" + `{"seq":2,"state":"published","cycle":1}`))
	f.Add([]byte(`{"seq":1,"at":"2026-10-17T12:00:00+02:00","state":"paused","note":"x"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		j := replayJournal(t, data)
		recs := j.records()
		if want := wholeRecords(data); len(recs) != len(want) || len(want) > 0 && !reflect.DeepEqual(recs, want) {
			t.Fatalf("replay recovered %d records, want the %d whole records before the first torn line", len(recs), len(want))
		}
		state := j.analyze()

		var again bytes.Buffer
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("recovered record %+v does not re-encode: %v", rec, err)
			}
			again.Write(append(line, '\n'))
		}
		j2 := replayJournal(t, again.Bytes())
		got, err := json.Marshal(j2.records())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || j2.seq != j.seq {
			t.Fatalf("re-encoded journal replays to %s (seq %d), want %s (seq %d)", got, j2.seq, want, j.seq)
		}
		if state2 := j2.analyze(); !reflect.DeepEqual(state2, state) {
			t.Fatalf("re-encoded journal recovers %+v, want %+v", state2, state)
		}
	})
}
