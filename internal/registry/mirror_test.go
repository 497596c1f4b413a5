package registry

import (
	"bytes"
	"strings"
	"testing"
)

// publishTwo publishes the fixture bundle and a distinct variant,
// returning the store and both manifests (first is current).
func publishTwo(t *testing.T) (*Store, Manifest, Manifest) {
	t.Helper()
	raw, _ := testBundle(t)
	st := openStore(t)
	first, err := st.Publish(bytes.NewReader(raw), TrainInfo{Seed: 13})
	if err != nil {
		t.Fatalf("Publish first: %v", err)
	}
	variant := otherBundle(t)
	second, err := st.Publish(bytes.NewReader(variant), TrainInfo{Seed: 14})
	if err != nil {
		t.Fatalf("Publish second: %v", err)
	}
	return st, first, second
}

func TestSetCurrentGenerationMonotonic(t *testing.T) {
	st, first, second := publishTwo(t)

	ptr, ok, err := st.Current()
	if err != nil || !ok {
		t.Fatalf("Current after initial publish: ptr=%v ok=%v err=%v", ptr, ok, err)
	}
	if ptr.Generation != 1 {
		t.Errorf("initial publish generation = %d, want 1", ptr.Generation)
	}
	if _, err := st.Promote(second.ID, "test"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	ptr, _, _ = st.Current()
	if ptr.Generation != 2 {
		t.Errorf("post-promotion generation = %d, want 2", ptr.Generation)
	}
	if _, err := st.Rollback(first.ID, "test"); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	ptr, _, _ = st.Current()
	if ptr.Generation != 3 {
		t.Errorf("post-rollback generation = %d, want 3", ptr.Generation)
	}
}

func TestImportEntryMirrorsCommittedEntry(t *testing.T) {
	primary, first, second := publishTwo(t)
	replicaStore := openStore(t)

	for _, man := range []Manifest{first, second} {
		blob := readBundle(t, primary, man.ID)
		if err := replicaStore.ImportEntry(man, blob); err != nil {
			t.Fatalf("ImportEntry %s: %v", man.ID, err)
		}
		// Idempotent re-import.
		if err := replicaStore.ImportEntry(man, blob); err != nil {
			t.Fatalf("re-ImportEntry %s: %v", man.ID, err)
		}
		got, err := replicaStore.Get(man.ID)
		if err != nil {
			t.Fatalf("Get imported %s: %v", man.ID, err)
		}
		if got != man {
			t.Errorf("imported manifest differs:\n got %+v\nwant %+v", got, man)
		}
	}
	// Importing an entry must never set the pointer.
	if _, ok, err := replicaStore.Current(); err != nil || ok {
		t.Errorf("replica pointer after imports: ok=%v err=%v, want unset", ok, err)
	}
}

func TestImportEntryRejectsHashMismatch(t *testing.T) {
	primary, first, _ := publishTwo(t)
	replicaStore := openStore(t)

	blob := readBundle(t, primary, first.ID)
	corrupt := append([]byte{}, blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	err := replicaStore.ImportEntry(first, corrupt)
	if err == nil || !strings.Contains(err.Error(), "hashes") {
		t.Fatalf("ImportEntry with corrupt bundle: err=%v, want hash mismatch", err)
	}
	// The failed import must not have committed anything.
	if _, err := replicaStore.Get(first.ID); err == nil {
		t.Error("corrupt import is visible as a committed entry")
	}

	bad := first
	bad.ID = "abcdefabcdef"
	bad.SHA256 = "abcdefabcdef" + first.SHA256[idLen:]
	if err := replicaStore.ImportEntry(bad, blob); err == nil {
		t.Error("ImportEntry accepted a manifest whose hash disagrees with the bundle")
	}
}

func TestSetCurrentMirrorPreservesGeneration(t *testing.T) {
	primary, first, second := publishTwo(t)
	replicaStore := openStore(t)
	for _, man := range []Manifest{first, second} {
		if err := replicaStore.ImportEntry(man, readBundle(t, primary, man.ID)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := primary.Promote(second.ID, "gate approved"); err != nil {
		t.Fatal(err)
	}
	ptr, _, _ := primary.Current()

	if _, err := replicaStore.SetCurrentMirror(ptr); err != nil {
		t.Fatalf("SetCurrentMirror: %v", err)
	}
	got, ok, err := replicaStore.Current()
	if err != nil || !ok {
		t.Fatalf("replica Current: ok=%v err=%v", ok, err)
	}
	if got != ptr {
		t.Errorf("mirrored pointer differs:\n got %+v\nwant %+v", got, ptr)
	}

	// Re-mirroring the same generation is a no-op (no history append).
	before, _ := replicaStore.History()
	if _, err := replicaStore.SetCurrentMirror(ptr); err != nil {
		t.Fatalf("re-SetCurrentMirror: %v", err)
	}
	after, _ := replicaStore.History()
	if len(after) != len(before) {
		t.Errorf("converged re-mirror appended history: %d -> %d entries", len(before), len(after))
	}
}

func TestSetCurrentMirrorRefusesMissingEntry(t *testing.T) {
	primary, _, second := publishTwo(t)
	replicaStore := openStore(t)
	if _, err := primary.Promote(second.ID, "test"); err != nil {
		t.Fatal(err)
	}
	ptr, _, _ := primary.Current()
	if _, err := replicaStore.SetCurrentMirror(ptr); err == nil {
		t.Fatal("SetCurrentMirror accepted a pointer to an entry the store does not hold")
	}
	if _, ok, _ := replicaStore.Current(); ok {
		t.Error("refused mirror still wrote a pointer")
	}
}

func readBundle(t *testing.T, st *Store, id string) []byte {
	t.Helper()
	rc, err := st.OpenBundle(id)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(rc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
