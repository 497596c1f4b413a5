package registry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// wholeTransitions decodes the history lines of data up to the first
// line that does not decode, skipping blank lines: the transitions
// History must recover.
func wholeTransitions(data []byte) []Transition {
	var out []Transition
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var tr Transition
		if json.Unmarshal(line, &tr) != nil {
			break
		}
		out = append(out, tr)
	}
	return out
}

// historyStore opens a store whose history log holds data.
func historyStore(t *testing.T, data []byte) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Root(), historyFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return s
}

// rollbackTarget is RollbackTarget's entry, or its error's text.
func rollbackTarget(t *testing.T, s *Store) string {
	t.Helper()
	id, err := s.RollbackTarget()
	if err != nil {
		return "error: " + err.Error()
	}
	return id
}

// FuzzRegistryHistory reads arbitrary bytes as history.jsonl through
// History and RollbackTarget. Neither may panic, History must recover
// exactly the whole decodable transitions before the first torn line,
// and the transitions, re-encoded one per line and read again, must
// give the same transitions and the same rollback target.
func FuzzRegistryHistory(f *testing.F) {
	at := time.Date(2026, 10, 17, 12, 0, 0, 0, time.UTC)
	var hist bytes.Buffer
	for i, tr := range []Transition{
		{To: "aaaa1111", Reason: "initial publish"},
		{From: "aaaa1111", To: "bbbb2222", Reason: "gate approved"},
		{From: "bbbb2222", To: "aaaa1111", Reason: "rollback"},
		{To: "cccc3333", Reason: "sync: mirror generation 4 (promote)"},
	} {
		tr.At = at.Add(time.Duration(i) * time.Minute)
		line, err := json.Marshal(tr)
		if err != nil {
			f.Fatal(err)
		}
		hist.Write(append(line, '\n'))
	}
	f.Add(hist.Bytes())
	f.Add(hist.Bytes()[:hist.Len()-9]) // torn tail
	f.Add(append([]byte("\r\n\t\n"), hist.Bytes()...))
	f.Add([]byte(`{"to":"aaaa1111"}` + "\n{\"from\":\n" + `{"from":"aaaa1111","to":"bbbb2222"}`))
	f.Add([]byte(`{"at":"2026-10-17T12:00:00-07:00","from":"x","to":"y"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := historyStore(t, data)
		hist, err := s.History()
		if err != nil {
			t.Fatal(err)
		}
		if want := wholeTransitions(data); len(hist) != len(want) || len(want) > 0 && !reflect.DeepEqual(hist, want) {
			t.Fatalf("History recovered %d transitions, want the %d whole transitions before the first torn line", len(hist), len(want))
		}
		target := rollbackTarget(t, s)

		var again bytes.Buffer
		for _, tr := range hist {
			line, err := json.Marshal(tr)
			if err != nil {
				t.Fatalf("recovered transition %+v does not re-encode: %v", tr, err)
			}
			again.Write(append(line, '\n'))
		}
		s2 := historyStore(t, again.Bytes())
		hist2, err := s2.History()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(hist2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-encoded history reads back as %s, want %s", got, want)
		}
		if target2 := rollbackTarget(t, s2); target2 != target {
			t.Fatalf("re-encoded history rolls back to %q, want %q", target2, target)
		}
	})
}
