package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/registry"
	"repro/internal/svm"
	"repro/internal/trace"
)

// apps are the five Table I applications (appsim profile keys).
var apps = []string{"winscp", "chrome", "notepad++", "putty", "vim"}

// championParams fixes the champions' WSVM hyperparameters, so set-up
// trains without a grid search.
var championParams = svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}}

// champInput is the training data of one application's champion: the
// benign and mixed logs of its reverse_tcp Table I dataset.
type champInput struct {
	app           string
	benign, mixed *trace.Log
}

// championSeed generates the champions' training data. The champions
// play the deployed models, so they stay the same for every workload
// seed; the seed varies the traffic and the recorded logs they score.
const championSeed = 1

func champInputs(small bool) ([]champInput, error) {
	var out []champInput
	for _, app := range apps {
		spec, err := dataset.ByName(app + "_reverse_tcp")
		if err != nil {
			return nil, err
		}
		spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 4000, 2000, 100
		if small {
			spec.BenignEvents, spec.MixedEvents = 1000, 600
		}
		logs, err := spec.Generate(championSeed)
		if err != nil {
			return nil, err
		}
		out = append(out, champInput{app: app, benign: logs.Benign, mixed: logs.Mixed})
	}
	return out, nil
}

// champion is one application's published model.
type champion struct {
	app string
	id  string // registry entry
	// enc and model are the trained encoder and SVM, kept for the
	// per-layer replays of encode and kernel scoring.
	enc      *preprocess.Encoder
	model    *svm.Model
	bundleKB float64
}

// trainChampions trains one champion per application and publishes each
// into store; each call into a module is one set-up step.
func trainChampions(tr *tracer, l *laps, in []champInput, store *registry.Store) ([]*champion, error) {
	ctx := context.Background()
	var out []*champion
	for _, c := range in {
		op := tr.newOp()
		s := tr.begin("core.artifacts", op, 0)
		art, err := core.BuildArtifacts(ctx, c.benign, c.mixed, core.Config{Seed: championSeed, FixedParams: &championParams})
		s.end(0)
		l.lap()
		if err != nil {
			return nil, fmt.Errorf("champion %s: %w", c.app, err)
		}
		s = tr.begin("core.select_train", op, 0)
		clf, err := art.Select(championSeed).Train(ctx)
		s.end(0)
		l.lap()
		if err != nil {
			return nil, fmt.Errorf("champion %s: %w", c.app, err)
		}
		var buf bytes.Buffer
		s = tr.begin("core.save", op, 0)
		err = clf.Save(&buf)
		s.end(0)
		l.lap()
		if err != nil {
			return nil, fmt.Errorf("champion %s: %w", c.app, err)
		}
		kb := float64(buf.Len()) / 1024
		s = tr.begin("registry.publish", op, 0)
		man, err := store.Publish(&buf, registry.TrainInfo{App: c.app, Seed: championSeed})
		s.end(0)
		if err != nil {
			return nil, fmt.Errorf("champion %s: %w", c.app, err)
		}
		out = append(out, &champion{app: c.app, id: man.ID, enc: art.Encoder, model: clf.Model(), bundleKB: kb})
		l.lap()
	}
	return out, nil
}

// loadMonitor loads a published bundle the way a serving replica does.
func loadMonitor(tr *tracer, store *registry.Store, id string) (*core.Monitor, error) {
	s := tr.begin("core.load", tr.newOp(), 0)
	defer s.end(0)
	rc, err := store.OpenBundle(id)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return core.LoadMonitor(rc)
}

// modelLayers reports the mean bundle size and support-vector count.
func modelLayers(m map[string]float64, kb []float64, svs []int) {
	var sumKB, sumSV float64
	for i := range kb {
		sumKB += kb[i]
		sumSV += float64(svs[i])
	}
	m["registry.bundle_kb"] = sumKB / float64(len(kb))
	m["svm.num_svs"] = sumSV / float64(len(svs))
}

func championLayers(m map[string]float64, champs []*champion) {
	var kb []float64
	var svs []int
	for _, c := range champs {
		kb = append(kb, c.bundleKB)
		svs = append(svs, c.model.NumSVs())
	}
	modelLayers(m, kb, svs)
}

// replayDetect times the batch-detection stages one by one over logs:
// partition, encode and kernel scoring. The spans carry their work in
// events (windows for scoring).
func replayDetect(tr *tracer, logs []*trace.Log, encs []*preprocess.Encoder, models []*svm.Model) error {
	for i, log := range logs {
		n := int64(log.Len())
		s := tr.begin("partition.split", 0, 0)
		part, err := partition.Split(log)
		s.end(n)
		if err != nil {
			return err
		}
		s = tr.begin("preprocess.encode", 0, 0)
		tuples := encs[i].EncodeAll(part)
		s.end(n)
		vecs, _, err := preprocess.Coalesce(tuples, 10)
		if err != nil {
			return err
		}
		s = tr.begin("svm.decision", 0, 0)
		for _, v := range vecs {
			sink += models[i].Decision(v)
		}
		s.end(int64(len(vecs)))
	}
	return nil
}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink float64

// Output digests: FNV-1a over the verdict fields, so any change in window
// boundaries, scores or verdicts changes the digest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func foldVerdict(h uint64, first, last int, score, prob float64, malicious bool) uint64 {
	h = fold(h, uint64(first))
	h = fold(h, uint64(last))
	h = fold(h, math.Float64bits(score))
	h = fold(h, math.Float64bits(prob))
	if malicious {
		return fold(h, 1)
	}
	return fold(h, 0)
}

func digestDetections(dets []core.Detection) uint64 {
	h := uint64(fnvOffset)
	for _, d := range dets {
		h = foldVerdict(h, d.FirstEvent, d.LastEvent, d.Score, d.Probability, d.Malicious)
	}
	return h
}

// payloadEvents labels each event of a log with appsim's ground truth: an
// event is malicious when a frame of its stack lies in the payload's
// address range [lo, hi). A clean process has hi == 0.
func payloadEvents(log *trace.Log, lo, hi uint64) []bool {
	out := make([]bool, log.Len())
	for i, e := range log.Events {
		for _, f := range e.Stack {
			if f.Addr >= lo && f.Addr < hi {
				out[i] = true
				break
			}
		}
	}
	return out
}

// windowMalicious applies the label rule: a window is malicious when it
// holds at least one payload event.
func windowMalicious(labels []bool, first, last int) bool {
	for i := first; i <= last && i < len(labels); i++ {
		if labels[i] {
			return true
		}
	}
	return false
}
