// Package registry is the model-lifecycle subsystem layered between
// training and serving: a versioned, content-addressed store of immutable
// model bundles plus the champion/challenger machinery that decides when
// a newly trained model may take over live traffic.
//
// A Store keeps every published bundle under a root directory, addressed
// by the SHA-256 of its bytes, each with a small JSON manifest (id, hash,
// creation time, file-format version, training summary, lineage). One
// manifest pointer — current.json, the symlink-equivalent — names the
// champion; every repoint is appended to an append-only history log, so
// any prior entry remains one rollback away. All writes are atomic
// (WriteFileAtomic), so a crash mid-publish never leaves a torn bundle or
// a dangling pointer.
//
// A Canary runs shadow evaluation: the serving path scores traffic with
// the champion (whose verdicts are the ones returned) and asynchronously
// replays the same events against a challenger detector, accumulating a
// metrics.Confusion that treats the champion's verdicts as the reference
// labels. A Gate turns that comparison into a promotion decision: enough
// shadow evidence, high enough agreement on champion-benign windows
// (TPR), few enough missed detections (FPR). Promotion and rollback
// repoint the store's current pointer and hot-reload the server.
package registry

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Store layout under the root directory.
const (
	entriesDir   = "entries"
	bundleFile   = "bundle.model"
	manifestFile = "manifest.json"
	currentFile  = "current.json"
	historyFile  = "history.jsonl"
	// idLen is the length of an entry id: a hex prefix of the bundle's
	// SHA-256 long enough that collisions mean identical content in
	// practice (and are detected against the full hash regardless).
	idLen = 12
)

// TrainInfo is the training-configuration summary recorded in a
// manifest: enough provenance to tell entries apart in a listing, not a
// full reproduction recipe.
type TrainInfo struct {
	// App is the monitored application the model was trained for.
	App string `json:"app,omitempty"`
	// Seed is the data-selection seed the model was trained with.
	Seed int64 `json:"seed,omitempty"`
	// Lambda and Kernel identify the WSVM hyperparameters.
	Lambda float64 `json:"lambda,omitempty"`
	Kernel string  `json:"kernel,omitempty"`
	// BenignLog and MixedLog name the training inputs.
	BenignLog string `json:"benign_log,omitempty"`
	MixedLog  string `json:"mixed_log,omitempty"`
}

// Manifest describes one immutable store entry.
type Manifest struct {
	// ID addresses the entry: a 12-hex-digit prefix of SHA256.
	ID string `json:"id"`
	// SHA256 is the full content hash of the bundle bytes.
	SHA256 string `json:"sha256"`
	// CreatedAt is the publish time.
	CreatedAt time.Time `json:"created_at"`
	// FormatVersion is the bundle's file-format version; Window is the
	// model's event-coalescing window; Degraded reports a bundle whose
	// statistical sections are unusable (it would serve the call-graph
	// fallback).
	FormatVersion int  `json:"format_version"`
	Window        int  `json:"window"`
	Degraded      bool `json:"degraded"`
	// Parent is the entry that was current when this one was published —
	// the lineage link for champion/challenger chains.
	Parent string `json:"parent,omitempty"`
	// Train is the training-configuration summary.
	Train TrainInfo `json:"train,omitempty"`
}

// Pointer is the current.json payload: the manifest pointer naming the
// champion entry.
type Pointer struct {
	// ID is the current entry.
	ID string `json:"id"`
	// Generation counts repoints monotonically from 1; replication uses
	// it as the cheap "did the pointer move" poll token (a mirrored
	// pointer keeps the primary's generation verbatim). Pointers written
	// before generations existed read back as 0.
	Generation int64 `json:"generation,omitempty"`
	// UpdatedAt is when the pointer was last repointed.
	UpdatedAt time.Time `json:"updated_at"`
	// Reason records why (publish, promotion, rollback).
	Reason string `json:"reason,omitempty"`
}

// Transition is one history.jsonl record: a repoint of the current
// pointer, kept append-only so every promotion and rollback is auditable
// and any prior champion is recoverable.
type Transition struct {
	// At is when the transition happened.
	At time.Time `json:"at"`
	// From is the previous current entry ("" for the first).
	From string `json:"from,omitempty"`
	// To is the new current entry.
	To string `json:"to"`
	// Reason records why.
	Reason string `json:"reason,omitempty"`
}

// Store is a content-addressed registry of immutable model bundles
// rooted at one directory. Entry bundles and manifests are written once
// and never modified; only the current pointer and the history log
// change. A Store serialises its own pointer writes; concurrent
// processes sharing a root are safe against torn files (every write is
// temp+rename) but race on who repoints last.
type Store struct {
	root string
	mu   sync.Mutex // serialises pointer/history writes in-process
}

// Open opens (creating if needed) the registry rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: empty root directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, entriesDir), 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// validID rejects ids that are not lower-hex of the expected length, so
// hostile ids cannot traverse out of the entries directory.
func validID(id string) error {
	if len(id) != idLen {
		return fmt.Errorf("registry: entry id %q is not %d hex digits", id, idLen)
	}
	for _, r := range id {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("registry: entry id %q is not lower-case hex", id)
		}
	}
	return nil
}

func (s *Store) entryDir(id string) string {
	return filepath.Join(s.root, entriesDir, id)
}

// WriteFileAtomic lands blob at path via a temp file in the same
// directory, fsync and rename: a crash leaves the previous file or none,
// never a truncated one, and a failed write removes its temp file. It is
// the repository's one atomic file writer.
func WriteFileAtomic(path string, blob []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(blob); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// AppendJSONL appends v's JSON encoding to the log at path as one line,
// creating the log if needed, and syncs it before returning. A crash
// can leave a final line cut short; the next append starts on a fresh
// line, so the fragment never swallows a later record. It is the one
// writer of the repository's append-only logs: the registry history and
// the autopilot journal.
func AppendJSONL(path string, v any) (err error) {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if n := fi.Size(); n > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], n-1); err != nil {
			return err
		}
		if last[0] != '\n' {
			line = append([]byte{'\n'}, line...)
		}
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// ReadJSONL decodes the log AppendJSONL writes, one record per line,
// oldest first. A line that does not decode, the fragment a crash
// leaves, is skipped, and so are blank lines; a missing log is empty.
func ReadJSONL[T any](path string) ([]T, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []T
	for _, line := range bytes.Split(blob, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec T
		if json.Unmarshal(line, &rec) == nil {
			out = append(out, rec)
		}
	}
	return out, nil
}

// Publish stores the bundle read from r as a new immutable entry and
// returns its manifest. The entry id is content-addressed, so publishing
// identical bytes twice is idempotent and returns the existing entry.
// The bundle is validated on the way in — a bundle no Monitor could load
// (for example a corrupt version-1 file with no call-graph fallback) is
// rejected with the loader's error. The first entry published into an
// empty store becomes current automatically; later entries never touch
// the pointer (promotion is the Gate's job). Parent records the entry
// that was current at publish time.
func (s *Store) Publish(r io.Reader, train TrainInfo) (Manifest, error) {
	_, span := telemetry.StartSpan(context.Background(), "registry/publish")
	defer span.End()
	blob, err := io.ReadAll(r)
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: reading bundle: %w", err)
	}
	sum := sha256.Sum256(blob)
	hash := hex.EncodeToString(sum[:])
	id := hash[:idLen]

	info, err := core.InspectBundle(bytes.NewReader(blob))
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: rejecting bundle: %w", err)
	}

	parent := ""
	if cur, ok, err := s.Current(); err == nil && ok {
		parent = cur.ID
	}
	man, fresh, err := s.commit("publish", Manifest{
		ID:            id,
		SHA256:        hash,
		CreatedAt:     time.Now().UTC(),
		FormatVersion: info.Version,
		Window:        info.Window,
		Degraded:      info.Degraded,
		Parent:        parent,
		Train:         train,
	}, blob)
	if err != nil || !fresh {
		return man, err
	}
	mPublishes.Inc()
	telemetry.RecordFlight(telemetry.FlightEntry{
		Kind: "registry", Name: "publish",
		Attrs: map[string]string{"entry": id, "parent": parent},
	})

	if _, ok, err := s.Current(); err == nil && !ok {
		if _, err := s.SetCurrent(id, "initial publish"); err != nil {
			return Manifest{}, err
		}
	}
	return man, nil
}

// commit lands man and its bundle as an entry under the manifest-last
// protocol Publish and ImportEntry share, op naming the caller: the
// bundle first, the manifest last, so a crash between the two writes
// leaves an entry directory without a manifest, which Get and List
// ignore. The fault points before the writes (registry/publish/bundle
// and registry/publish/manifest, registry/import/bundle and
// registry/import/manifest) are where crash tests kill the writer. An
// entry already committed under the id is left as it is: commit returns
// it, with fresh false, when it holds the same hash, and fails when not.
func (s *Store) commit(op string, man Manifest, blob []byte) (_ Manifest, fresh bool, err error) {
	fail := func(what string, err error) (Manifest, bool, error) {
		return Manifest{}, false, fmt.Errorf("registry: %s %s: %s: %w", op, man.ID, what, err)
	}
	if existing, err := s.Get(man.ID); err == nil {
		if existing.SHA256 != man.SHA256 {
			return Manifest{}, false, fmt.Errorf("registry: %s %s: id collision: entry holds hash %s, bundle hashes %s",
				op, man.ID, existing.SHA256, man.SHA256)
		}
		return existing, false, nil
	}
	manBlob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fail("encoding manifest", err)
	}
	dir := s.entryDir(man.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail("creating entry", err)
	}
	if err := faultinject.Step("registry/" + op + "/bundle"); err != nil {
		return fail("writing bundle", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, bundleFile), blob); err != nil {
		return fail("writing bundle", err)
	}
	if err := faultinject.Step("registry/" + op + "/manifest"); err != nil {
		return fail("writing manifest", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, manifestFile), manBlob); err != nil {
		return fail("writing manifest", err)
	}
	return man, true, nil
}

// Get returns the manifest of one committed entry.
func (s *Store) Get(id string) (Manifest, error) {
	if err := validID(id); err != nil {
		return Manifest{}, err
	}
	blob, err := os.ReadFile(filepath.Join(s.entryDir(id), manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: no entry %s: %w", id, err)
	}
	var man Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return Manifest{}, fmt.Errorf("registry: entry %s manifest: %w", id, err)
	}
	return man, nil
}

// List returns every committed entry, oldest first (creation time, then
// id for stability).
func (s *Store) List() ([]Manifest, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, entriesDir))
	if err != nil {
		return nil, fmt.Errorf("registry: reading entries: %w", err)
	}
	var out []Manifest
	for _, e := range ents {
		if !e.IsDir() || validID(e.Name()) != nil {
			continue
		}
		man, err := s.Get(e.Name())
		if err != nil {
			continue // uncommitted or torn entry: invisible
		}
		out = append(out, man)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// BundlePath returns the filesystem path of a committed entry's bundle,
// the path a serving process loads its monitor from.
func (s *Store) BundlePath(id string) (string, error) {
	if _, err := s.Get(id); err != nil {
		return "", err
	}
	return filepath.Join(s.entryDir(id), bundleFile), nil
}

// OpenBundle opens a committed entry's bundle for reading.
func (s *Store) OpenBundle(id string) (io.ReadCloser, error) {
	path, err := s.BundlePath(id)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: opening bundle %s: %w", id, err)
	}
	return f, nil
}

// Current returns the manifest pointer naming the champion entry, with
// ok reporting whether one has been set.
func (s *Store) Current() (ptr Pointer, ok bool, err error) {
	blob, err := os.ReadFile(filepath.Join(s.root, currentFile))
	if os.IsNotExist(err) {
		return Pointer{}, false, nil
	}
	if err != nil {
		return Pointer{}, false, fmt.Errorf("registry: reading current pointer: %w", err)
	}
	if err := json.Unmarshal(blob, &ptr); err != nil {
		return Pointer{}, false, fmt.Errorf("registry: current pointer: %w", err)
	}
	return ptr, true, nil
}

// SetCurrent atomically repoints the current pointer at a committed
// entry and appends the transition to the history log. It is the single
// mutation promotion and rollback share.
func (s *Store) SetCurrent(id, reason string) (Transition, error) {
	if _, err := s.Get(id); err != nil {
		return Transition{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _, err := s.Current()
	if err != nil {
		return Transition{}, err
	}
	tr := Transition{At: time.Now().UTC(), From: prev.ID, To: id, Reason: reason}
	ptr := Pointer{ID: id, Generation: prev.Generation + 1, UpdatedAt: tr.At, Reason: reason}
	if err := s.repoint("registry/setcurrent", ptr, tr); err != nil {
		return Transition{}, err
	}
	return tr, nil
}

// Promote repoints current at a challenger entry, counting the
// promotion. Whether the promotion was gate-approved is the caller's
// business — the store only records the transition.
func (s *Store) Promote(id, reason string) (Transition, error) {
	tr, err := s.SetCurrent(id, reason)
	if err == nil {
		mPromotions.Inc()
		telemetry.RecordFlight(telemetry.FlightEntry{
			Kind: "registry", Name: "promote",
			Attrs: map[string]string{"entry": id, "from": tr.From, "reason": reason},
		})
	}
	return tr, err
}

// Rollback repoints current at a previously-serving entry, counting the
// rollback.
func (s *Store) Rollback(id, reason string) (Transition, error) {
	tr, err := s.SetCurrent(id, reason)
	if err == nil {
		mRollbacks.Inc()
		telemetry.RecordFlight(telemetry.FlightEntry{
			Kind: "registry", Name: "rollback",
			Attrs: map[string]string{"entry": id, "from": tr.From, "reason": reason},
		})
	}
	return tr, err
}

// ImportEntry lands an entry fetched from another store as a committed
// entry of this one, preserving the source manifest verbatim. It is the
// replication half of Publish: the bundle bytes are hash-verified
// against the manifest (both the full SHA-256 and the id prefix) but not
// re-inspected — the primary already validated them at publish time —
// and the pointer is never touched (mirroring the pointer is
// SetCurrentMirror's job). Importing an entry that already exists with
// the same hash is a no-op, so interrupted syncs can simply re-run. The
// manifest-last commit protocol is shared with Publish: a crash between
// the bundle and manifest writes leaves an uncommitted entry directory
// that Get/List ignore.
func (s *Store) ImportEntry(man Manifest, blob []byte) error {
	if err := validID(man.ID); err != nil {
		return err
	}
	sum := sha256.Sum256(blob)
	hash := hex.EncodeToString(sum[:])
	if hash != man.SHA256 {
		return fmt.Errorf("registry: import %s: bundle hashes %s, manifest says %s", man.ID, hash, man.SHA256)
	}
	if !strings.HasPrefix(hash, man.ID) {
		return fmt.Errorf("registry: import %s: id is not a prefix of bundle hash %s", man.ID, hash)
	}
	if _, fresh, err := s.commit("import", man, blob); err != nil || !fresh {
		return err
	}
	mImports.Inc()
	return nil
}

// SetCurrentMirror repoints the current pointer at a committed entry,
// copying a primary store's pointer verbatim — generation, timestamp and
// reason are the primary's, not regenerated, so replicas converge on
// byte-equal pointer state and the generation poll token stays
// comparable across the fleet. The transition appended to the local
// history names the sync so replica history is distinguishable from
// first-hand promotions. Mirroring a pointer at an entry this store does
// not hold is refused: the caller must import entries before the
// pointer, which is what keeps a replica from ever exposing a pointer to
// a missing entry.
func (s *Store) SetCurrentMirror(ptr Pointer) (Transition, error) {
	if _, err := s.Get(ptr.ID); err != nil {
		return Transition{}, fmt.Errorf("registry: mirroring pointer: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _, err := s.Current()
	if err != nil {
		return Transition{}, err
	}
	if prev.ID == ptr.ID && prev.Generation == ptr.Generation {
		return Transition{}, nil // already converged
	}
	tr := Transition{At: time.Now().UTC(), From: prev.ID, To: ptr.ID,
		Reason: fmt.Sprintf("sync: mirror generation %d (%s)", ptr.Generation, ptr.Reason)}
	if err := s.repoint("registry/setcurrent/mirror", ptr, tr); err != nil {
		return Transition{}, err
	}
	return tr, nil
}

// repoint is the one pointer mutation, shared by SetCurrent and
// SetCurrentMirror: it writes ptr as the current pointer, atomically,
// then appends tr to the history log. The fault point before the
// pointer write (registry/setcurrent or registry/setcurrent/mirror) is
// where crash tests kill the writer. Callers hold s.mu.
func (s *Store) repoint(fault string, ptr Pointer, tr Transition) error {
	blob, err := json.MarshalIndent(ptr, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encoding current pointer: %w", err)
	}
	if err := faultinject.Step(fault); err != nil {
		return fmt.Errorf("registry: repointing current: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(s.root, currentFile), blob); err != nil {
		return fmt.Errorf("registry: repointing current: %w", err)
	}
	if err := AppendJSONL(filepath.Join(s.root, historyFile), tr); err != nil {
		return fmt.Errorf("registry: appending history: %w", err)
	}
	return nil
}

// History returns every recorded transition, oldest first. A line cut
// short by a crash is skipped (ReadJSONL), not fatal.
func (s *Store) History() ([]Transition, error) {
	hist, err := ReadJSONL[Transition](filepath.Join(s.root, historyFile))
	if err != nil {
		return nil, fmt.Errorf("registry: reading history: %w", err)
	}
	return hist, nil
}

// RollbackTarget returns the entry that was current before the latest
// transition — the default destination of a rollback with no explicit
// id.
func (s *Store) RollbackTarget() (string, error) {
	hist, err := s.History()
	if err != nil {
		return "", err
	}
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].From != "" {
			return hist[i].From, nil
		}
	}
	return "", fmt.Errorf("registry: no prior entry to roll back to")
}
