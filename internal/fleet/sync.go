package fleet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// SyncSource is the read surface a Syncer pulls from — satisfied by
// *registry.Store, so a replica can sync straight off a primary's
// directory (shared filesystem) or any future transport that can answer
// the same three questions.
type SyncSource interface {
	// Current returns the primary's manifest pointer.
	Current() (registry.Pointer, bool, error)
	// List returns every committed entry on the primary.
	List() ([]registry.Manifest, error)
	// OpenBundle opens one committed entry's bundle bytes.
	OpenBundle(id string) (io.ReadCloser, error)
}

// Syncer replicates a primary registry into a local replica store:
// committed entries are fetched hash-verified and imported under the
// manifest-last commit protocol, then the current pointer is mirrored
// verbatim — entries strictly before pointer, so the replica never
// exposes a pointer at an entry it does not hold, and a crash at any
// point leaves at worst an invisible uncommitted entry directory.
//
// Every error follows the fail-static rule: the replica keeps its last
// good pointer (and the serve instance its last good model); the next
// round retries from scratch. The pointer is only rewritten when the
// primary's generation or id differs from the replica's — the
// generation is the poll token that makes steady-state rounds cheap.
type Syncer struct {
	// Source is the primary being mirrored; Replica the local store.
	Source  SyncSource
	Replica *registry.Store
	// OnAdvance, when set, runs after the pointer advances — the serve
	// hot-reload hook. An OnAdvance error counts as a failed round (the
	// pointer has landed; the next round retries the reload via a
	// re-advance no-op and reports the error).
	OnAdvance func(registry.Pointer) error
	// Logger receives sync logs (default slog.Default()).
	Logger *slog.Logger
}

func (y *Syncer) logger() *slog.Logger {
	if y.Logger != nil {
		return y.Logger
	}
	return slog.Default()
}

// SyncOnce runs one pull round: import missing entries, then mirror the
// pointer if it moved, then fire OnAdvance. It returns the first error
// and changes nothing else on failure — fail-static.
func (y *Syncer) SyncOnce() error {
	imported, ptr, advanced, err := y.round()
	mSyncRounds.Inc()
	if err != nil {
		mSyncFailures.Inc()
		y.logger().Warn("registry sync failed; serving last good model", "error", err)
		return err
	}
	if imported > 0 || advanced {
		mSyncEntries.Add(uint64(imported))
		mSyncGeneration.Set(float64(ptr.Generation))
		telemetry.RecordFlight(telemetry.FlightEntry{
			Kind: "sync", Name: "advance",
			Attrs: map[string]string{
				"entry":      ptr.ID,
				"generation": fmt.Sprintf("%d", ptr.Generation),
				"imported":   fmt.Sprintf("%d", imported),
			},
		})
	}
	return nil
}

// round does the actual pull; split out so SyncOnce owns the accounting.
func (y *Syncer) round() (imported int, ptr registry.Pointer, advanced bool, err error) {
	ptr, ok, err := y.Source.Current()
	if err != nil {
		return 0, ptr, false, fmt.Errorf("fleet: polling primary pointer: %w", err)
	}
	mans, err := y.Source.List()
	if err != nil {
		return 0, ptr, false, fmt.Errorf("fleet: listing primary entries: %w", err)
	}
	for _, man := range mans {
		if _, err := y.Replica.Get(man.ID); err == nil {
			continue // already mirrored; entries are immutable
		}
		if err := faultinject.Step("fleet/sync/fetch"); err != nil {
			return imported, ptr, false, fmt.Errorf("fleet: fetching entry %s: %w", man.ID, err)
		}
		rc, err := y.Source.OpenBundle(man.ID)
		if err != nil {
			return imported, ptr, false, fmt.Errorf("fleet: fetching entry %s: %w", man.ID, err)
		}
		blob, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return imported, ptr, false, fmt.Errorf("fleet: fetching entry %s: %w", man.ID, err)
		}
		if err := y.Replica.ImportEntry(man, blob); err != nil {
			return imported, ptr, false, err
		}
		imported++
		y.logger().Info("registry entry mirrored", "entry", man.ID)
	}
	if !ok {
		return imported, ptr, false, nil // primary has no champion yet
	}
	cur, _, err := y.Replica.Current()
	if err != nil {
		return imported, ptr, false, err
	}
	if cur.ID == ptr.ID && cur.Generation == ptr.Generation {
		return imported, ptr, false, nil // generations agree: nothing to do
	}
	if err := faultinject.Step("fleet/sync/pointer"); err != nil {
		return imported, ptr, false, fmt.Errorf("fleet: mirroring pointer: %w", err)
	}
	if _, err := y.Replica.SetCurrentMirror(ptr); err != nil {
		return imported, ptr, false, err
	}
	y.logger().Info("registry pointer mirrored",
		"entry", ptr.ID, "generation", ptr.Generation, "reason", ptr.Reason)
	if y.OnAdvance != nil {
		if err := y.OnAdvance(ptr); err != nil {
			return imported, ptr, true, fmt.Errorf("fleet: pointer advanced to %s but reload failed: %w", ptr.ID, err)
		}
	}
	return imported, ptr, true, nil
}

// Run polls the primary every interval until the context ends. Failures
// are logged and retried next round; Run itself never returns an error —
// fail-static is the loop's whole contract.
func (y *Syncer) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	_ = y.SyncOnce() // converge immediately at startup
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			_ = y.SyncOnce()
		}
	}
}
