package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appsim"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/fleet"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/weight"
)

// train is the training phase for every Table I dataset: parse the
// benign and mixed logs, build the artifacts, select and train with the
// default grid, save, publish and promote the bundle, and replicate it
// with one sync round. One worker per core trains its share of the
// datasets, dataset k always on lane k mod the number of lanes.
type train struct {
	o    options
	sets []*trainSet
	// bytesPerEvent converts parse spans (which count events) to MB/s.
	bytesPerEvent float64

	// Lanes of the running round, with stores opened fresh before each.
	stores int
	lanes  []trainLane

	// Reference outputs of the warm-up round, per dataset: published entry
	// IDs, which later rounds must reproduce, and the models' verdict
	// quality, bundle size and support-vector count.
	wantIDs []string
	qs      []quality
	kb      []float64
	svs     []int
	// parsed keeps the traced rounds' sliced logs for the replays.
	parsed       [][2]*trace.Log
	errorRecords atomic.Int64
}

// trainLane is one worker's primary and replica store and the syncer
// between them.
type trainLane struct {
	primary, replica *registry.Store
	syncer           *fleet.Syncer
}

// trainSet is one dataset's inputs.
type trainSet struct {
	name, image   string
	benign, mixed []byte
	// nBenign and nMixed count the two training logs' events.
	nBenign, nMixed int
	// malicious and clean are evaluation logs: the standalone payload's
	// log (every window malicious) and a fresh clean log of the app.
	malicious, clean *trace.Log
}

func newTrain(o options) (*train, error) {
	specs := dataset.Table1Specs()
	if o.small {
		specs = specs[:2]
	}
	w := &train{o: o}
	var rawBytes, rawEvents int
	for i, spec := range specs {
		spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 3000, 3000, 1500
		if o.small {
			spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 1000, 800, 300
		}
		seed := o.seed + int64(i)
		logs, err := spec.Generate(seed)
		if err != nil {
			return nil, err
		}
		prof, err := appsim.AppProfile(spec.App)
		if err != nil {
			return nil, err
		}
		proc, err := appsim.NewProcess(prof, nil, appsim.MethodNone)
		if err != nil {
			return nil, err
		}
		clean, err := proc.GenerateLog(appsim.GenConfig{Seed: seed + 99, Events: spec.MaliciousEvents, PID: 500})
		if err != nil {
			return nil, err
		}
		set := &trainSet{
			name: spec.Name, image: logs.Benign.App,
			nBenign: logs.Benign.Len(), nMixed: logs.Mixed.Len(),
			malicious: logs.Malicious, clean: clean,
		}
		for _, dst := range []struct {
			raw *[]byte
			log *trace.Log
		}{{&set.benign, logs.Benign}, {&set.mixed, logs.Mixed}} {
			var buf bytes.Buffer
			if err := etl.WriteLogs(&buf, dst.log); err != nil {
				return nil, err
			}
			*dst.raw = buf.Bytes()
			rawBytes += buf.Len()
		}
		rawEvents += set.nBenign + set.nMixed
		w.sets = append(w.sets, set)
	}
	w.bytesPerEvent = float64(rawBytes) / float64(rawEvents)
	n := len(w.sets)
	w.wantIDs, w.qs, w.kb, w.svs = make([]string, n), make([]quality, n), make([]float64, n), make([]int, n)
	w.parsed = make([][2]*trace.Log, n)
	w.lanes = make([]trainLane, runtime.GOMAXPROCS(0))
	return w, nil
}

func (w *train) root() string  { return "train.model" }
func (w *train) expect() error { return nil }

func (w *train) storeDir(n int) string {
	return filepath.Join(w.o.workdir, fmt.Sprintf("train-%d-stores%d", os.Getpid(), n))
}

// setup opens every lane's stores.
func (w *train) setup(tr *tracer, l *laps) error {
	err := w.openStores()
	l.lap()
	return err
}

// beforeRound opens fresh stores: every round publishes into empty
// stores, so rounds do equal work.
func (w *train) beforeRound() error { return w.openStores() }

func (w *train) openStores() error {
	w.stores++
	for i := range w.lanes {
		dir := filepath.Join(w.storeDir(w.stores), fmt.Sprintf("lane%d", i))
		ln := &w.lanes[i]
		var err error
		if ln.primary, err = registry.Open(filepath.Join(dir, "primary")); err != nil {
			return err
		}
		if ln.replica, err = registry.Open(filepath.Join(dir, "replica")); err != nil {
			return err
		}
		ln.syncer = &fleet.Syncer{
			Source: ln.primary, Replica: ln.replica,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		}
	}
	return nil
}

func (w *train) close() {
	for i := 1; i <= w.stores; i++ {
		_ = os.RemoveAll(w.storeDir(i))
	}
}

// parse parses one raw training log and slices the application from it.
func (w *train) parse(tr *tracer, op, parent int64, raw []byte, image string, events int) (*trace.Log, error) {
	s := tr.begin("etl.parse", op, parent)
	f, err := etl.ParseWith(bytes.NewReader(raw), etl.ParseOpts{Lenient: true})
	s.end(int64(events))
	if err != nil {
		return nil, err
	}
	w.errorRecords.Add(int64(len(f.ErrorLog)))
	return f.SliceApp(image)
}

// model runs the whole training pipeline for one dataset and returns the
// published entry and the trained classifier.
func (w *train) model(tr *tracer, k int) (string, *core.Classifier, float64, error) {
	set, ln := w.sets[k], &w.lanes[k%len(w.lanes)]
	ctx := context.Background()
	op := tr.newOp()
	root := tr.begin("train.model", op, 0)
	defer root.end(int64(set.nBenign + set.nMixed))
	id := root.id()
	benign, err := w.parse(tr, op, id, set.benign, set.image, set.nBenign)
	if err != nil {
		return "", nil, 0, err
	}
	mixed, err := w.parse(tr, op, id, set.mixed, set.image, set.nMixed)
	if err != nil {
		return "", nil, 0, err
	}
	if tr != nil {
		w.parsed[k] = [2]*trace.Log{benign, mixed}
	}
	s := tr.begin("core.artifacts", op, id)
	art, err := core.BuildArtifacts(ctx, benign, mixed, core.Config{Seed: w.o.seed})
	s.end(0)
	if err != nil {
		return "", nil, 0, err
	}
	s = tr.begin("core.select_train", op, id)
	clf, err := art.Select(w.o.seed).Train(ctx)
	s.end(0)
	if err != nil {
		return "", nil, 0, err
	}
	var buf bytes.Buffer
	s = tr.begin("core.save", op, id)
	err = clf.Save(&buf)
	s.end(0)
	if err != nil {
		return "", nil, 0, err
	}
	kb := float64(buf.Len()) / 1024
	s = tr.begin("registry.publish", op, id)
	man, err := ln.primary.Publish(&buf, registry.TrainInfo{App: set.name, Seed: w.o.seed})
	s.end(0)
	if err != nil {
		return "", nil, 0, err
	}
	s = tr.begin("registry.promote", op, id)
	_, err = ln.primary.Promote(man.ID, "benchmark")
	s.end(0)
	if err != nil {
		return "", nil, 0, err
	}
	s = tr.begin("fleet.sync_round", op, id)
	err = ln.syncer.SyncOnce()
	s.end(0)
	if err != nil {
		return "", nil, 0, err
	}
	// The replica's pointer must equal the primary's after every round.
	pp, _, perr := ln.primary.Current()
	rp, _, rerr := ln.replica.Current()
	if perr != nil || rerr != nil || pp.ID != rp.ID || pp.Generation != rp.Generation || pp.ID != man.ID {
		return "", nil, 0, fmt.Errorf("replica pointer %s/%d does not match primary %s/%d", rp.ID, rp.Generation, pp.ID, pp.Generation)
	}
	return man.ID, clf, kb, nil
}

// round trains, publishes and replicates every dataset's model, each lane
// its own datasets in turn.
func (w *train) round(tr *tracer, r int) (roundResult, error) {
	outs := make([]roundResult, len(w.sets))
	errs := make([]error, len(w.sets))
	var wg sync.WaitGroup
	for i := range w.lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i; k < len(w.sets); k += len(w.lanes) {
				outs[k], errs[k] = w.dataset(tr, r, k)
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return roundResult{}, err
	}
	return merge(outs), nil
}

// dataset trains, publishes and replicates the model of dataset k. In the
// warm-up round it records the reference outputs.
func (w *train) dataset(tr *tracer, r, k int) (roundResult, error) {
	set := w.sets[k]
	t0 := time.Now()
	id, clf, kb, err := w.model(tr, k)
	lat := time.Since(t0).Seconds()
	c := roundResult{attempted: 1}
	if r < 0 {
		if err != nil {
			return c, fmt.Errorf("%s: %w", set.name, err)
		}
		w.wantIDs[k], w.kb[k], w.svs[k] = id, kb, clf.Model().NumSVs()
		if w.qs[k], err = evaluate(set, clf); err != nil {
			return c, err
		}
	}
	if err != nil || id != w.wantIDs[k] {
		c.failed++
		lat = math.Inf(1)
	}
	c.ops = []operation{{lat: lat, events: int64(set.nBenign + set.nMixed)}}
	c.q = w.qs[k]
	c.digest = fnvOffset
	for _, b := range []byte(id) {
		c.digest = fold(c.digest, uint64(b))
	}
	return c, nil
}

// evaluate scores a trained model on its dataset's evaluation logs, once,
// in the warm-up round: identical entry IDs in later rounds mean
// identical models, hence identical quality.
func evaluate(set *trainSet, clf *core.Classifier) (quality, error) {
	var q quality
	for _, l := range []*trace.Log{set.malicious, set.clean} {
		dets, err := clf.DetectLog(l)
		if err != nil {
			return q, err
		}
		for _, d := range dets {
			q.add(l == set.malicious, d.Malicious)
		}
	}
	return q, nil
}

// replay times the training stages BuildArtifacts hides, one by one:
// encoder fitting, CFG inference of both logs and weight assessment.
func (w *train) replay(tr *tracer) error {
	for _, pair := range w.parsed {
		if pair[0] == nil {
			continue
		}
		bp, err := partition.Split(pair[0])
		if err != nil {
			return err
		}
		mp, err := partition.Split(pair[1])
		if err != nil {
			return err
		}
		events := append(append([]partition.Event(nil), bp.Events...), mp.Events...)
		s := tr.begin("preprocess.fit", 0, 0)
		_, err = preprocess.Fit(events, preprocess.Config{})
		s.end(int64(len(events)))
		if err != nil {
			return err
		}
		s = tr.begin("cfg.infer", 0, 0)
		bc, err := cfg.Infer(bp)
		var mc *cfg.Inference
		if err == nil {
			mc, err = cfg.Infer(mp)
		}
		s.end(int64(len(events)))
		if err != nil {
			return err
		}
		s = tr.begin("weight.assess", 0, 0)
		_, err = weight.Assess(bc.Graph, mc, weight.Config{})
		s.end(int64(mp.Len()))
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *train) layers(st map[string]*layerStat, m map[string]float64) {
	if p := st["etl.parse"]; p != nil && p.dur > 0 {
		m["etl.parse_mb_per_s"] = w.bytesPerEvent * float64(p.n) / (float64(p.dur) / 1e9) / 1e6
	}
	m["etl.error_records"] = float64(w.errorRecords.Load())
	modelLayers(m, w.kb, w.svs)
}
