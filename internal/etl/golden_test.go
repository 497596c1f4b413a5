package etl_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/etl"
	"repro/internal/faultinject"
)

// goldenPath holds the parse results the streaming reader that preceded
// the single zero-copy parser produced over goldenCorpus, in strict and
// lenient mode. It is the parser's error-semantics reference: error
// texts, ErrorLog offsets and resync distances, drop accounting and the
// recovered events of every input.
const goldenPath = "testdata/parse_corpus.golden.json"

// goldenCorpus is the clean fuzz stream, three degenerate inputs and 25
// deterministic single-fault mutants of the stream.
func goldenCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	data := fuzzStream(tb)
	inputs := [][]byte{data, {}, []byte("LETL"), data[: len(data)/3 : len(data)/3]}
	mutants, err := faultinject.Corpus(data, 7, 25)
	if err != nil {
		tb.Fatal(err)
	}
	return append(inputs, mutants...)
}

// parseSummary is the golden record of one parse of one input.
type parseSummary struct {
	// Input is a digest of the parsed bytes, so a change to the corpus
	// generator reads as a stale golden rather than a parser regression.
	Input   string
	Lenient bool
	Err     string       `json:",omitempty"`
	Dropped int          `json:",omitempty"`
	Errors  []errorEntry `json:",omitempty"`
	Procs   []procEntry  `json:",omitempty"`
}

// errorEntry is one ErrorLog record.
type errorEntry struct {
	Offset int64
	Tag    byte
	Resync int64
	Cause  string
}

// procEntry is one recovered process; Digest covers every event field
// and every resolved frame in stream order.
type procEntry struct {
	PID    int
	App    string
	Events int
	Digest string
}

func summarize(in []byte, opts etl.ParseOpts, f *etl.RawFile, err error) parseSummary {
	sum := sha256.Sum256(in)
	s := parseSummary{Input: hex.EncodeToString(sum[:8]), Lenient: opts.Lenient}
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Dropped = f.Dropped
	for _, e := range f.ErrorLog {
		s.Errors = append(s.Errors, errorEntry{Offset: e.Offset, Tag: e.Tag, Resync: e.ResyncBytes, Cause: e.Cause.Error()})
	}
	for _, pid := range f.PIDs() {
		l, _ := f.Slice(pid)
		h := sha256.New()
		for _, e := range l.Events {
			fmt.Fprintf(h, "%d %d %d %d %d %d\n", e.Seq, e.Type, e.Time.UnixNano(), e.PID, e.TID, len(e.Stack))
			for _, fr := range e.Stack {
				fmt.Fprintf(h, "%x %q %q\n", fr.Addr, fr.Module, fr.Function)
			}
		}
		s.Procs = append(s.Procs, procEntry{PID: pid, App: l.App, Events: l.Len(), Digest: hex.EncodeToString(h.Sum(nil))})
	}
	return s
}

// TestParseCorpusGolden holds both parse entry points to the committed
// golden on every corpus input, in both strictness modes.
func TestParseCorpusGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden []parseSummary
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	inputs := goldenCorpus(t)
	if len(golden) != 2*len(inputs) {
		t.Fatalf("golden holds %d parses, corpus makes %d", len(golden), 2*len(inputs))
	}
	for i, in := range inputs {
		for j, opts := range []etl.ParseOpts{{}, {Lenient: true}} {
			want := golden[2*i+j]
			f, err := etl.ParseBytes(in, opts)
			if got := summarize(in, opts, f, err); !reflect.DeepEqual(got, want) {
				t.Errorf("input %d lenient=%v: ParseBytes\n got %+v\nwant %+v", i, opts.Lenient, got, want)
			}
			f, err = etl.ParseWith(bytes.NewReader(in), opts)
			if got := summarize(in, opts, f, err); !reflect.DeepEqual(got, want) {
				t.Errorf("input %d lenient=%v: ParseWith\n got %+v\nwant %+v", i, opts.Lenient, got, want)
			}
		}
	}
}
