package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appsim"
	"repro/internal/core"
	"repro/internal/etl"
	"repro/internal/preprocess"
	"repro/internal/registry"
	"repro/internal/svm"
	"repro/internal/trace"
)

// offline is a forensic scan of recorded logs, the path leaps-detect
// takes: parse each raw .letl file with etl.ParseWith, slice the
// monitored application out of it and classify it with
// Monitor.DetectLog, one worker per core.
type offline struct {
	o     options
	train []champInput
	logs  []*offlineLog
	// bytesPerEvent converts parse spans (which count events) to MB/s.
	bytesPerEvent float64

	setups int
	store  *registry.Store
	champs []*champion
	mons   map[string]*core.Monitor

	errorRecords atomic.Int64
	// sliced keeps the traced rounds' sliced logs for the replays.
	slicedMu sync.Mutex
	sliced   map[int]*trace.Log
}

// offlineLog is one recorded raw file: the application's process plus
// background processes.
type offlineLog struct {
	app    string
	image  string // the application's main image, the slicing key
	raw    []byte
	events int // events of the application's process
	parsed int // events of every process in the file
	labels []bool
	want   uint64 // digest of DetectLog over the in-memory log
	mem    *trace.Log
}

func newOffline(o options) (*offline, error) {
	appEvents, bgEvents, perKind := 3000, 400, 4
	if o.small {
		appEvents, bgEvents, perKind = 600, 100, 1
	}
	train, err := champInputs(o.small)
	if err != nil {
		return nil, err
	}
	w := &offline{o: o, train: train, sliced: make(map[int]*trace.Log)}
	payload, err := appsim.PayloadProfile("reverse_tcp")
	if err != nil {
		return nil, err
	}
	var bg []*appsim.Process
	for _, prof := range appsim.BackgroundProfiles() {
		p, err := appsim.NewBackgroundProcess(prof)
		if err != nil {
			return nil, err
		}
		bg = append(bg, p)
	}
	var rawBytes, rawEvents int
	for ai, app := range apps {
		prof, err := appsim.AppProfile(app)
		if err != nil {
			return nil, err
		}
		for k := 0; k < perKind*len(templateKinds); k++ {
			method := templateKinds[k%len(templateKinds)]
			seed := o.seed*7919 + int64(ai*1000+k)
			cfg := appsim.GenConfig{Seed: seed, Events: appEvents, PID: 100}
			var proc *appsim.Process
			if method == appsim.MethodNone {
				proc, err = appsim.NewProcess(prof, nil, method)
			} else {
				proc, err = appsim.NewProcess(prof, &payload, method)
				cfg.PayloadFraction, cfg.MaxBurst = 0.3, 3
			}
			if err != nil {
				return nil, fmt.Errorf("%s log: %w", app, err)
			}
			log, err := proc.GenerateLog(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s log: %w", app, err)
			}
			all := []*trace.Log{log}
			for bi, p := range bg {
				l, err := p.GenerateLog(appsim.GenConfig{Seed: seed + int64(bi+1), Events: bgEvents, PID: 400 + bi})
				if err != nil {
					return nil, err
				}
				all = append(all, l)
			}
			var buf bytes.Buffer
			if err := etl.WriteLogs(&buf, all...); err != nil {
				return nil, err
			}
			lo, hi, _ := proc.PayloadRange()
			w.logs = append(w.logs, &offlineLog{
				app: app, image: log.App, raw: buf.Bytes(), events: log.Len(),
				labels: payloadEvents(log, lo, hi), mem: log,
			})
			rawBytes += buf.Len()
			for _, l := range all {
				w.logs[len(w.logs)-1].parsed += l.Len()
				rawEvents += l.Len()
			}
		}
	}
	w.bytesPerEvent = float64(rawBytes) / float64(rawEvents)
	return w, nil
}

func (w *offline) root() string       { return "offline.scan" }
func (w *offline) beforeRound() error { return nil }

func (w *offline) storeDir(n int) string {
	return filepath.Join(w.o.workdir, fmt.Sprintf("offline-%d-setup%d", os.Getpid(), n))
}

// setup trains and publishes the champions and loads them back.
func (w *offline) setup(tr *tracer, l *laps) error {
	w.setups++
	store, err := registry.Open(w.storeDir(w.setups))
	if err != nil {
		return err
	}
	w.store = store
	if w.champs, err = trainChampions(tr, l, w.train, store); err != nil {
		return err
	}
	w.mons = make(map[string]*core.Monitor)
	for _, c := range w.champs {
		if w.mons[c.app], err = loadMonitor(tr, store, c.id); err != nil {
			return err
		}
		l.lap()
	}
	return nil
}

func (w *offline) close() {
	for i := 1; i <= w.setups; i++ {
		_ = os.RemoveAll(w.storeDir(i))
	}
}

// scan parses, slices and classifies one raw log.
func (w *offline) scan(tr *tracer, i int) roundResult {
	l := w.logs[i]
	op := tr.newOp()
	root := tr.begin("offline.scan", op, 0)
	t0 := time.Now()
	s := tr.begin("etl.parse", op, root.id())
	f, err := etl.ParseWith(bytes.NewReader(l.raw), etl.ParseOpts{Lenient: true})
	s.end(int64(l.parsed))
	var log *trace.Log
	if err == nil {
		w.errorRecords.Add(int64(len(f.ErrorLog)))
		s = tr.begin("etl.slice", op, root.id())
		log, err = f.SliceApp(l.image)
		s.end(0)
	}
	var dets []core.Detection
	if err == nil {
		s = tr.begin("core.detect", op, root.id())
		dets, err = w.mons[l.app].DetectLog(log)
		s.end(int64(l.events))
	}
	lat := time.Since(t0).Seconds()
	root.end(int64(l.events))
	out := roundResult{attempted: 1, ops: []operation{{lat: math.Inf(1), events: int64(l.events)}}, failed: 1}
	if err != nil {
		return out
	}
	if tr != nil {
		w.slicedMu.Lock()
		w.sliced[i] = log
		w.slicedMu.Unlock()
	}
	out.digest = digestDetections(dets)
	if out.digest == l.want {
		out.ops[0].lat, out.failed = lat, 0
	}
	for _, d := range dets {
		out.q.add(windowMalicious(l.labels, d.FirstEvent, d.LastEvent), d.Malicious)
	}
	return out
}

// expect computes each log's expected detections: DetectLog over the
// in-memory log the file was written from.
func (w *offline) expect() error {
	for _, l := range w.logs {
		dets, err := w.mons[l.app].DetectLog(l.mem)
		if err != nil {
			return err
		}
		l.want = digestDetections(dets)
		l.mem = nil // only needed for the expected digest
	}
	return nil
}

// round scans every log once, one worker per core.
func (w *offline) round(tr *tracer, r int) (roundResult, error) {
	outs := make([]roundResult, len(w.logs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.logs) {
					return
				}
				outs[i] = w.scan(tr, i)
			}
		}()
	}
	wg.Wait()
	return merge(outs), nil
}

// replay times partition, encode and kernel scoring one by one on the
// logs the traced rounds sliced.
func (w *offline) replay(tr *tracer) error {
	byApp := make(map[string]*champion)
	for _, c := range w.champs {
		byApp[c.app] = c
	}
	var logs []*trace.Log
	var encs []*preprocess.Encoder
	var models []*svm.Model
	for i, l := range w.logs {
		logs = append(logs, w.sliced[i])
		encs = append(encs, byApp[l.app].enc)
		models = append(models, byApp[l.app].model)
	}
	return replayDetect(tr, logs, encs, models)
}

func (w *offline) layers(st map[string]*layerStat, m map[string]float64) {
	if p := st["etl.parse"]; p != nil && p.dur > 0 {
		m["etl.parse_mb_per_s"] = w.bytesPerEvent * float64(p.n) / (float64(p.dur) / 1e9) / 1e6
	}
	m["etl.error_records"] = float64(w.errorRecords.Load())
	championLayers(m, w.champs)
}
