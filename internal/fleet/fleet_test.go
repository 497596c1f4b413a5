package fleet

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/svm"
)

// The fleet tests train two real model bundles once (champion and a
// challenger with different hyperparameters, so the content hashes
// differ) and share them across every test in the package.
var (
	fixOnce     sync.Once
	fixChampion []byte
	fixChall    []byte
	fixMonitor  *core.Monitor
	fixLogs     *dataset.Logs
	fixErr      error
)

func trainFixture(lambda float64, sigma2 float64) ([]byte, error) {
	td, err := core.BuildTrainingData(fixLogs.Benign, fixLogs.Mixed, core.Config{
		Seed:        7,
		FixedParams: &svm.Params{Lambda: lambda, Kernel: svm.RBFKernel{Sigma2: sigma2}},
	})
	if err != nil {
		return nil, err
	}
	clf, err := td.Train()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func fixtures(t *testing.T) (*core.Monitor, *dataset.Logs) {
	t.Helper()
	fixOnce.Do(func() {
		spec, err := dataset.ByName("vim_reverse_tcp")
		if err != nil {
			fixErr = err
			return
		}
		if fixLogs, fixErr = spec.Generate(7); fixErr != nil {
			return
		}
		if fixChampion, fixErr = trainFixture(8, 2); fixErr != nil {
			return
		}
		if fixChall, fixErr = trainFixture(2, 4); fixErr != nil {
			return
		}
		fixMonitor, fixErr = core.LoadMonitor(bytes.NewReader(fixChampion))
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixMonitor, fixLogs
}

// newPrimary opens a registry with the champion published (and current).
func newPrimary(t *testing.T) (*registry.Store, registry.Manifest) {
	t.Helper()
	fixtures(t)
	st, err := registry.Open(filepath.Join(t.TempDir(), "primary"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := st.Publish(bytes.NewReader(fixChampion), registry.TrainInfo{
		App: "vim", Seed: 7, Lambda: 8, Kernel: "rbf",
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, man
}

// publishChallenger adds the second bundle to a store.
func publishChallenger(t *testing.T, st *registry.Store) registry.Manifest {
	t.Helper()
	man, err := st.Publish(bytes.NewReader(fixChall), registry.TrainInfo{
		App: "vim", Seed: 7, Lambda: 2, Kernel: "rbf",
	})
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func newReplicaStore(t *testing.T, name string) *registry.Store {
	t.Helper()
	st, err := registry.Open(filepath.Join(t.TempDir(), name))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newServeReplica boots a real serve.Server preloaded with the champion
// monitor, named for the fleet.
func newServeReplica(t *testing.T, id string) *serve.Server {
	t.Helper()
	mon, _ := fixtures(t)
	srv, err := serve.NewServer(serve.Config{
		Preloaded: map[string]*core.Monitor{"default": mon},
		ReplicaID: id,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// readBundle returns one entry's bundle bytes from a store.
func readBundle(t *testing.T, st *registry.Store, id string) []byte {
	t.Helper()
	rc, err := st.OpenBundle(id)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	blob, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
