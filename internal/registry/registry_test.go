package registry

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/svm"
	"repro/internal/trace"
)

// Shared trained bundles: training dominates test time, so every test
// reuses one model and its dataset, and a second model trained on the
// same logs with another seed where a test needs a distinct bundle.
var (
	fixtureOnce  sync.Once
	fixtureErr   error
	fixtureRaw   []byte
	fixtureOther []byte
	fixtureLogs  *dataset.Logs
)

func trainFixture() error {
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		return err
	}
	if fixtureLogs, err = spec.Generate(13); err != nil {
		return err
	}
	if fixtureRaw, err = saveModel(fixtureLogs, 13); err != nil {
		return err
	}
	fixtureOther, err = saveModel(fixtureLogs, 14)
	return err
}

// trainModel trains the weighted classifier on logs with the given
// seed, λ 8 and σ² 2.
func trainModel(logs *dataset.Logs, seed int64) (*core.Classifier, error) {
	td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, core.Config{
		Seed:        seed,
		FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	})
	if err != nil {
		return nil, err
	}
	return td.Train()
}

// saveModel returns the bundle of trainModel's classifier.
func saveModel(logs *dataset.Logs, seed int64) ([]byte, error) {
	clf, err := trainModel(logs, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func testBundle(t *testing.T) ([]byte, *dataset.Logs) {
	t.Helper()
	fixtureOnce.Do(func() { fixtureErr = trainFixture() })
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureRaw, fixtureLogs
}

// otherBundle is a second healthy bundle, distinct from testBundle's.
func otherBundle(t *testing.T) []byte {
	t.Helper()
	testBundle(t)
	return fixtureOther
}

// degradedBundle overwrites 16 bytes of raw with 0xff at the first of
// a run of offsets where core.InspectBundle then reports a degraded
// bundle: the bytes fell in the statistical section and made a count or
// a float unusable. It knows nothing of the bundle layout.
func degradedBundle(t *testing.T, raw []byte) []byte {
	t.Helper()
	for off := len(raw) / 8; off+16 <= len(raw); off += len(raw) / 32 {
		b := bytes.Clone(raw)
		copy(b[off:], bytes.Repeat([]byte{0xff}, 16))
		if info, err := core.InspectBundle(bytes.NewReader(b)); err == nil && info.Degraded {
			return b
		}
	}
	t.Fatal("no overwrite degrades the bundle")
	return nil
}

func openStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStorePublishLifecycle(t *testing.T) {
	raw, _ := testBundle(t)
	st := openStore(t)

	man, err := st.Publish(bytes.NewReader(raw), TrainInfo{App: "vim.exe", Seed: 13})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(man.ID) != idLen || !strings.HasPrefix(man.SHA256, man.ID) {
		t.Errorf("manifest id %q is not a prefix of hash %q", man.ID, man.SHA256)
	}
	if man.FormatVersion != 3 || man.Window <= 0 || man.Degraded {
		t.Errorf("manifest envelope = %+v, want version 3, positive window, not degraded", man)
	}
	if man.Parent != "" {
		t.Errorf("first entry has parent %q, want none", man.Parent)
	}

	// The first publish auto-promotes.
	ptr, ok, err := st.Current()
	if err != nil || !ok || ptr.ID != man.ID {
		t.Fatalf("Current = %+v ok=%v err=%v, want initial publish to set %s", ptr, ok, err, man.ID)
	}

	// Republishing identical bytes is idempotent.
	again, err := st.Publish(bytes.NewReader(raw), TrainInfo{})
	if err != nil {
		t.Fatalf("re-Publish: %v", err)
	}
	if again.ID != man.ID || !again.CreatedAt.Equal(man.CreatedAt) {
		t.Errorf("re-publish returned %+v, want the original entry %+v", again, man)
	}

	// A different (degraded) bundle becomes a second entry with lineage.
	degraded := degradedBundle(t, raw)
	man2, err := st.Publish(bytes.NewReader(degraded), TrainInfo{})
	if err != nil {
		t.Fatalf("Publish degraded: %v", err)
	}
	if man2.ID == man.ID {
		t.Fatal("distinct bundles share an id")
	}
	if !man2.Degraded {
		t.Error("corrupt statistical sections not recorded as degraded")
	}
	if man2.Parent != man.ID {
		t.Errorf("second entry parent = %q, want %q", man2.Parent, man.ID)
	}

	// The second publish must not repoint current.
	ptr, _, _ = st.Current()
	if ptr.ID != man.ID {
		t.Errorf("second publish moved current to %s", ptr.ID)
	}

	list, err := st.List()
	if err != nil || len(list) != 2 {
		t.Fatalf("List = %d entries, err %v, want 2", len(list), err)
	}

	// Promotion and rollback repoint the pointer and append history.
	if _, err := st.SetCurrent(man2.ID, "promoted"); err != nil {
		t.Fatalf("SetCurrent: %v", err)
	}
	ptr, _, _ = st.Current()
	if ptr.ID != man2.ID {
		t.Fatalf("current = %s after promotion, want %s", ptr.ID, man2.ID)
	}
	target, err := st.RollbackTarget()
	if err != nil || target != man.ID {
		t.Fatalf("RollbackTarget = %q err %v, want %s", target, err, man.ID)
	}
	if _, err := st.SetCurrent(target, "rollback"); err != nil {
		t.Fatalf("rollback SetCurrent: %v", err)
	}
	hist, err := st.History()
	if err != nil || len(hist) != 3 {
		t.Fatalf("History = %d records, err %v, want 3", len(hist), err)
	}
	if hist[2].From != man2.ID || hist[2].To != man.ID {
		t.Errorf("rollback transition = %+v, want %s -> %s", hist[2], man2.ID, man.ID)
	}
}

func TestStoreRejectsUnloadableBundles(t *testing.T) {
	raw, _ := testBundle(t)
	st := openStore(t)

	if _, err := st.Publish(strings.NewReader("not a model"), TrainInfo{}); err == nil {
		t.Error("garbage bundle accepted")
	}

	// A bundle of an earlier format, such as an earlier build's gob
	// bundle, or one cut short is refused; the format error names the
	// format and says to retrain.
	_, err := st.Publish(strings.NewReader("an earlier build's bundle"), TrainInfo{})
	if err == nil || !strings.Contains(err.Error(), "format v3") || !strings.Contains(err.Error(), "retrain") {
		t.Errorf("publishing an earlier format: error %v, want the format error", err)
	}
	if _, err := st.Publish(bytes.NewReader(raw[:len(raw)-1]), TrainInfo{}); err == nil {
		t.Error("truncated bundle accepted")
	}
}

// TestStoreRejectsDegradedBundleWithoutCallGraph: a universal
// classifier trains no call graph, so its bundle's call-graph section
// holds no edges, and once its statistical section is unusable there is
// nothing left to detect with. LoadMonitor, InspectBundle and Publish
// refuse such a bundle with an error naming both causes.
func TestStoreRejectsDegradedBundleWithoutCallGraph(t *testing.T) {
	var pairs []core.LogPair
	for i, name := range []string{"vim_reverse_tcp", "putty_reverse_https_online"} {
		spec, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 3000, 3000, 1500
		logs, err := spec.Generate(int64(20 + i))
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, core.LogPair{Benign: logs.Benign, Mixed: logs.Mixed})
	}
	ctx := context.Background()
	u, err := core.BuildUniversalTrainingData(ctx, pairs, core.Config{
		Seed:        41,
		FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := u.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Overwrite 16 bytes with 0xff, as degradedBundle does, at the first
	// offset where the statistical section then decodes to an invalid
	// model: the framing holds and only that section is unusable.
	var bad []byte
	for off := len(raw) / 8; bad == nil && off+16 <= len(raw); off += len(raw) / 32 {
		b := bytes.Clone(raw)
		copy(b[off:], bytes.Repeat([]byte{0xff}, 16))
		if _, err := core.LoadClassifier(bytes.NewReader(b)); errors.As(err, new(*core.InvalidModelError)) {
			bad = b
		}
	}
	if bad == nil {
		t.Fatal("no overwrite invalidates the statistical section")
	}

	bothCauses := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a degraded bundle without call-graph edges", what)
		}
		if !errors.As(err, new(*core.InvalidModelError)) || !strings.Contains(err.Error(), "no edges") {
			t.Errorf("%s: error %q, want the statistical cause and the empty call graph", what, err)
		}
	}
	_, err = core.LoadMonitor(bytes.NewReader(bad))
	bothCauses("LoadMonitor", err)
	_, err = core.InspectBundle(bytes.NewReader(bad))
	bothCauses("InspectBundle", err)
	st := openStore(t)
	_, err = st.Publish(bytes.NewReader(bad), TrainInfo{})
	bothCauses("Publish", err)
	if mans, err := st.List(); err != nil || len(mans) != 0 {
		t.Errorf("store lists %d entries (%v) after the refused publish, want none", len(mans), err)
	}
}

// TestBundleBytesIndependentOfProcessHistory saves one model in child
// processes that first do nothing, gob-encode an unrelated value, or
// checkpoint a stream detector, publishes it and requires one hash: a
// bundle's bytes, and so its entry ID, depend on the model alone, so
// leaps-train and a serving process's autopilot publish a model under
// one ID.
func TestBundleBytesIndependentOfProcessHistory(t *testing.T) {
	const prefix = "history="
	if args := flag.Args(); len(args) == 1 && strings.HasPrefix(args[0], prefix) {
		spec, err := dataset.ByName("vim_reverse_tcp")
		if err != nil {
			t.Fatal(err)
		}
		spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 600, 600, 100
		logs, err := spec.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		clf, err := trainModel(logs, 1)
		if err != nil {
			t.Fatal(err)
		}
		switch args[0][len(prefix):] {
		case "gob":
			if err := gob.NewEncoder(io.Discard).Encode(map[string][]float64{"unrelated": {1}}); err != nil {
				t.Fatal(err)
			}
		case "checkpoint":
			s, err := clf.Stream(logs.Malicious.Modules)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range logs.Malicious.Events[:3] {
				if _, err := s.Feed(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		var raw bytes.Buffer
		if err := clf.Save(&raw); err != nil {
			t.Fatal(err)
		}
		man, err := openStore(t).Publish(&raw, TrainInfo{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("bundle %s\n", man.SHA256)
		return
	}
	var first string
	for _, history := range []string{"none", "gob", "checkpoint"} {
		out, err := exec.Command(os.Args[0], "-test.run=^TestBundleBytesIndependentOfProcessHistory$", "--", prefix+history).Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", history, err, out)
		}
		_, rest, ok := strings.Cut(string(out), "bundle ")
		sum, _, _ := strings.Cut(rest, "\n")
		if !ok || sum == "" {
			t.Fatalf("%s: no bundle hash in the child's output:\n%s", history, out)
		}
		if first == "" {
			first = sum
		} else if sum != first {
			t.Errorf("after %s the bundle hashes %s, in a fresh process %s", history, sum, first)
		}
	}
}

func TestStoreIDValidation(t *testing.T) {
	st := openStore(t)
	for _, id := range []string{"", "..", "../../escape", "ABCDEF123456", "zzzzzzzzzzzz", "abc"} {
		if _, err := st.Get(id); err == nil {
			t.Errorf("Get(%q) accepted an invalid id", id)
		}
		if _, err := st.BundlePath(id); err == nil {
			t.Errorf("BundlePath(%q) accepted an invalid id", id)
		}
	}
	if _, err := st.SetCurrent("0123456789ab", "absent"); err == nil {
		t.Error("SetCurrent accepted an id with no committed entry")
	}
}

func TestStoreIgnoresUncommittedEntries(t *testing.T) {
	raw, _ := testBundle(t)
	st := openStore(t)
	man, err := st.Publish(bytes.NewReader(raw), TrainInfo{})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between bundle and manifest: a directory with no
	// manifest must be invisible.
	torn := filepath.Join(st.Root(), entriesDir, "0123456789ab")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, bundleFile), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	list, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != man.ID {
		t.Errorf("List sees %d entries, want only the committed %s", len(list), man.ID)
	}
}

// champion replays the dataset's events through a monitor, batching them,
// and returns per-batch events plus champion verdict flags.
type champBatch struct {
	events    []trace.Event
	malicious []bool
}

func championBatches(t *testing.T, mon *core.Monitor, log *trace.Log, batchSize int) []champBatch {
	t.Helper()
	det, err := mon.Stream(log.Modules)
	if err != nil {
		t.Fatal(err)
	}
	var out []champBatch
	events := log.Events
	for len(events) > 0 {
		n := batchSize
		if n > len(events) {
			n = len(events)
		}
		b := champBatch{events: events[:n]}
		for _, e := range events[:n] {
			d, err := det.Feed(e)
			var evErr *core.EventError
			if err != nil && !errors.As(err, &evErr) {
				t.Fatal(err)
			}
			if d != nil {
				b.malicious = append(b.malicious, d.Malicious)
			}
		}
		out = append(out, b)
		events = events[n:]
	}
	return out
}

func TestCanaryIdenticalChallengerAgreesPerfectly(t *testing.T) {
	raw, logs := testBundle(t)
	mon, err := core.LoadMonitor(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	challenger, err := core.LoadMonitor(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	batches := championBatches(t, mon, logs.Malicious, 37)
	// Size the queue to hold every batch so nothing is dropped no matter
	// how slowly the shadow worker drains.
	can, err := NewCanary("abcdefabcdef", challenger, len(batches))
	if err != nil {
		t.Fatal(err)
	}
	defer can.Stop()

	total := 0
	for _, b := range batches {
		if !can.Offer("sess-1", logs.Malicious.Modules, b.events, b.malicious) {
			t.Fatal("Offer rejected a batch with capacity for every batch")
		}
		total += len(b.events)
	}
	can.Sync()
	cmp := can.Status()
	if cmp.Events != total {
		t.Errorf("shadow events = %d, want %d", cmp.Events, total)
	}
	if cmp.Windows == 0 {
		t.Fatal("no verdict pairs compared")
	}
	if cmp.Diverged != 0 || cmp.Dropped != 0 {
		t.Errorf("diverged=%d dropped=%d, want 0/0", cmp.Diverged, cmp.Dropped)
	}
	if cmp.Confusion.FP != 0 || cmp.Confusion.FN != 0 {
		t.Errorf("identical challenger disagreed: %+v", cmp.Confusion)
	}
	s := cmp.Summary()
	if !math.IsNaN(s.ACC) && s.ACC != 1 {
		t.Errorf("identical challenger ACC = %v, want 1", s.ACC)
	}
}

func TestCanaryStopIsIdempotentAndRejectsOffers(t *testing.T) {
	raw, logs := testBundle(t)
	challenger, err := core.LoadMonitor(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	can, err := NewCanary("abcdefabcdef", challenger, 4)
	if err != nil {
		t.Fatal(err)
	}
	can.Stop()
	can.Stop()
	if can.Offer("s", logs.Benign.Modules, logs.Benign.Events[:1], nil) {
		t.Error("Offer accepted a batch after Stop")
	}
}

func TestCanaryCountsDroppedEvents(t *testing.T) {
	raw, logs := testBundle(t)
	challenger, err := core.LoadMonitor(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	can, err := NewCanary("abcdefabcdef", challenger, 4)
	if err != nil {
		t.Fatal(err)
	}
	can.Stop()
	batch := logs.Benign.Events[:3]
	if can.Offer("s", logs.Benign.Modules, batch, nil) {
		t.Fatal("Offer accepted a batch after Stop")
	}
	cmp := can.Status()
	if cmp.Dropped != 1 || cmp.DroppedEvents != len(batch) {
		t.Errorf("dropped=%d dropped_events=%d, want 1 batch carrying %d events",
			cmp.Dropped, cmp.DroppedEvents, len(batch))
	}
}

func TestGateEffectiveFillsDefaults(t *testing.T) {
	eff := Gate{}.Effective()
	if eff.MinEvents != 1000 || eff.MinTPR != 0.95 || eff.MaxFPR != 0.05 {
		t.Errorf("zero gate Effective = %+v, want the documented defaults", eff)
	}
	set := Gate{MinEvents: 7, MinTPR: 0.5, MaxFPR: 0.2}
	if got := set.Effective(); got != set {
		t.Errorf("Effective rewrote explicit thresholds: %+v", got)
	}
}

func TestGateDecide(t *testing.T) {
	mk := func(events int, tp, tn, fp, fn int) Comparison {
		return Comparison{Events: events, Confusion: metrics.Confusion{TP: tp, TN: tn, FP: fp, FN: fn}}
	}
	g := Gate{MinEvents: 100, MinTPR: 0.9, MaxFPR: 0.1}

	if d := g.Decide(mk(500, 95, 40, 2, 5)); !d.OK {
		t.Errorf("healthy comparison blocked: %v", d.Reasons)
	}
	if d := g.Decide(mk(50, 95, 40, 2, 5)); d.OK || len(d.Reasons) != 1 {
		t.Errorf("too-few-events comparison passed: %+v", d)
	}
	// Low agreement on champion-benign windows (new false alarms).
	if d := g.Decide(mk(500, 50, 40, 2, 50)); d.OK {
		t.Error("low-TPR challenger passed the gate")
	}
	// Challenger clears windows the champion flags (missed detections).
	if d := g.Decide(mk(500, 95, 10, 40, 5)); d.OK {
		t.Error("high-FPR challenger passed the gate")
	}
	// No shadow evidence at all: fails closed on undefined measures.
	d := g.Decide(Comparison{})
	if d.OK {
		t.Error("empty comparison passed the gate")
	}
	found := 0
	for _, r := range d.Reasons {
		if strings.Contains(r, "undefined") {
			found++
		}
	}
	if found != 2 {
		t.Errorf("empty comparison reasons %v, want both undefined measures reported", d.Reasons)
	}

	// Zero-value gate applies defaults.
	if d := (Gate{}).Decide(mk(999, 1000, 100, 0, 0)); d.OK {
		t.Error("999 events passed the default 1000-event floor")
	}
	if d := (Gate{}).Decide(mk(1000, 1000, 100, 0, 0)); !d.OK {
		t.Errorf("default gate blocked a perfect comparison: %v", d.Reasons)
	}
}
