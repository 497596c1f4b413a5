package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appsim"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/preprocess"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ingest is online monitoring through the fleet path: two closed-loop
// connections drive a fleet.Router on a loopback listener, which routes
// to two in-process serve.Server replicas. Sessions live for a fixed
// number of pre-encoded event batches, so session create and close are
// part of the traffic.
type ingest struct {
	o     options
	sz    ingestSizes
	train []champInput
	tmpls []*sessionTemplate
	// order maps each session of a round to its template.
	order []int

	// Serving state of the last set-up.
	setups   int
	store    *registry.Store
	champs   []*champion
	replicas []*serve.Server
	hs       *http.Server
	served   chan struct{}
	url      string
	client   *http.Client

	// tr is the tracer of the running round (nil when untraced); the
	// router and member wrappers read it per request.
	tr       atomic.Pointer[tracer]
	rejected atomic.Int64
}

type ingestSizes struct {
	sessionEvents int // events per session, a multiple of batch
	batch         int // events per request
	perKind       int // templates per application and templateKinds entry
	conns         int
}

// sessionTemplate is one monitored process's event stream, pre-encoded
// for the wire, with its expected verdicts.
type sessionTemplate struct {
	app    string
	log    *trace.Log
	labels []bool
	// createTail is the SessionSpec JSON without its opening brace; a
	// session's create body is `{"id":"<id>",` followed by it.
	createTail []byte
	bodies     [][]byte
	want       uint64 // digest of Monitor.DetectLog over log
}

// Process kinds per application, in proportion: two clean processes, two
// offline-infected and one online-injected, so a fifth of the sessions
// are online injections.
var templateKinds = []appsim.AttackMethod{
	appsim.MethodNone, appsim.MethodNone,
	appsim.MethodOfflineInfection, appsim.MethodOfflineInfection,
	appsim.MethodOnlineInjection,
}

func newIngest(o options) (*ingest, error) {
	// Each round runs every template once: 50 sessions of 2048 events.
	sz := ingestSizes{sessionEvents: 2048, batch: 256, perKind: 2, conns: 2}
	if o.small {
		sz = ingestSizes{sessionEvents: 512, batch: 256, perKind: 1, conns: 2}
	}
	train, err := champInputs(o.small)
	if err != nil {
		return nil, err
	}
	w := &ingest{o: o, sz: sz, train: train}
	payload, err := appsim.PayloadProfile("reverse_tcp")
	if err != nil {
		return nil, err
	}
	for ai, app := range apps {
		prof, err := appsim.AppProfile(app)
		if err != nil {
			return nil, err
		}
		for k := 0; k < sz.perKind*len(templateKinds); k++ {
			method := templateKinds[k%len(templateKinds)]
			cfg := appsim.GenConfig{
				Seed:   o.seed*1000 + int64(ai*100+k),
				Events: sz.sessionEvents, PID: 1000 + k,
			}
			var proc *appsim.Process
			if method == appsim.MethodNone {
				proc, err = appsim.NewProcess(prof, nil, method)
			} else {
				proc, err = appsim.NewProcess(prof, &payload, method)
				cfg.PayloadFraction, cfg.MaxBurst = 0.3, 3
			}
			if err != nil {
				return nil, fmt.Errorf("%s template: %w", app, err)
			}
			log, err := proc.GenerateLog(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s template: %w", app, err)
			}
			log.Events = log.Events[:sz.sessionEvents]
			t, err := newTemplate(app, log, proc, sz.batch)
			if err != nil {
				return nil, err
			}
			w.tmpls = append(w.tmpls, t)
		}
	}
	w.order = rand.New(rand.NewSource(o.seed)).Perm(len(w.tmpls))
	return w, nil
}

func newTemplate(app string, log *trace.Log, proc *appsim.Process, batch int) (*sessionTemplate, error) {
	lo, hi, _ := proc.PayloadRange()
	t := &sessionTemplate{app: app, log: log, labels: payloadEvents(log, lo, hi)}
	spec, err := json.Marshal(serve.SessionSpecOf(log, app))
	if err != nil {
		return nil, err
	}
	t.createTail = spec[1:]
	events := serve.EventSpecsOf(log.Events)
	for lo := 0; lo < len(events); lo += batch {
		body, err := json.Marshal(serve.EventBatch{Events: events[lo:min(lo+batch, len(events))]})
		if err != nil {
			return nil, err
		}
		t.bodies = append(t.bodies, body)
	}
	return t, nil
}

func (w *ingest) root() string       { return "ingest.batch" }
func (w *ingest) beforeRound() error { return nil }

// setup trains and publishes the champions, loads them into two
// replicas and boots the router on a loopback listener.
func (w *ingest) setup(tr *tracer, l *laps) error {
	w.stopServing()
	w.setups++
	l.skip()
	store, err := registry.Open(w.storeDir(w.setups))
	if err != nil {
		return err
	}
	w.store = store
	if w.champs, err = trainChampions(tr, l, w.train, store); err != nil {
		return err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var members []fleet.Member
	for r := 0; r < 2; r++ {
		models := make(map[string]*core.Monitor)
		for _, c := range w.champs {
			if models[c.app], err = loadMonitor(tr, store, c.id); err != nil {
				return err
			}
			l.lap()
		}
		id := fmt.Sprintf("replica-%d", r)
		srv, err := serve.NewServer(serve.Config{Preloaded: models, ReplicaID: id, Logger: quiet})
		if err != nil {
			return err
		}
		w.replicas = append(w.replicas, srv)
		members = append(members, fleet.Member{ID: id, Handler: w.member(srv.Handler())})
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{Members: members, Seed: 1106, Logger: quiet})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.router(rt.Handler())}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.sz.conns, MaxConnsPerHost: w.sz.conns},
		Timeout:   30 * time.Second,
	}
	l.lap()
	return nil
}

// stopServing shuts the router and replicas of the previous set-up down
// and waits for them.
func (w *ingest) stopServing() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.client.CloseIdleConnections()
	_ = w.hs.Shutdown(ctx)
	<-w.served
	for _, srv := range w.replicas {
		_ = srv.Shutdown(ctx)
	}
	w.hs, w.replicas = nil, nil
}

func (w *ingest) storeDir(n int) string {
	return filepath.Join(w.o.workdir, fmt.Sprintf("ingest-%d-setup%d", os.Getpid(), n))
}

func (w *ingest) close() {
	w.stopServing()
	for i := 1; i <= w.setups; i++ {
		_ = os.RemoveAll(w.storeDir(i))
	}
}

// Headers carrying the client's operation and span IDs to the router in
// traced rounds.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

type spanCtxKey struct{}

// router wraps the router's handler in a "fleet.route" span whose parent
// is the client's span.
func (w *ingest) router(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := tr.begin("fleet.route", op, parent)
		h.ServeHTTP(rw, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, [2]int64{op, s.id()})))
		s.end(0)
	})
}

// member wraps a replica's handler in a span named for the request:
// "serve.handle" for event batches, "serve.create" and "serve.delete"
// for the session lifecycle. The router forwards the request context, so
// the span's parent is the router's span.
func (w *ingest) member(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		ids, ok := r.Context().Value(spanCtxKey{}).([2]int64)
		if tr == nil || !ok {
			h.ServeHTTP(rw, r)
			return
		}
		name, n := "serve.create", int64(0)
		switch {
		case r.Method == http.MethodDelete:
			name = "serve.delete"
		case strings.HasSuffix(r.URL.Path, "/events"):
			name, n = "serve.handle", int64(w.sz.batch)
		}
		s := tr.begin(name, ids[0], ids[1])
		h.ServeHTTP(rw, r)
		s.end(n)
	})
}

// do sends one request inside a client span and reads the whole reply;
// the latency covers the round trip and the body read.
func (w *ingest) do(tr *tracer, name, method, url string, body []byte, n int64) (int, []byte, float64, error) {
	op := tr.newOp()
	s := tr.begin(name, op, 0)
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(s.id(), 10))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0).Seconds()
	s.end(n)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		w.rejected.Add(1)
	}
	return resp.StatusCode, reply, lat, err
}

// runSession drives one session's lifetime: create, every batch, delete,
// then the verdict check against the template's DetectLog digest. Each
// request and the check is one operation; only batches carry latency
// samples.
func (w *ingest) runSession(tr *tracer, r, i int) roundResult {
	t := w.tmpls[w.order[i]]
	id := fmt.Sprintf("b%d-%d", r+2, i)
	out := roundResult{attempted: int64(len(t.bodies)) + 3}
	create := append([]byte(`{"id":"`+id+`",`), t.createTail...)
	code, _, lat, err := w.do(tr, "ingest.create", http.MethodPost, w.url+"/v1/sessions", create, 0)
	if err != nil || code != http.StatusCreated {
		out.failed = out.attempted
		out.ops = append(out.ops, operation{lat: math.Inf(1)})
		for range t.bodies {
			out.ops = append(out.ops, operation{lat: math.Inf(1), events: int64(w.sz.batch)})
		}
		out.ops = append(out.ops, operation{lat: math.Inf(1)})
		return out
	}
	out.ops = append(out.ops, operation{lat: lat})
	h := uint64(fnvOffset)
	ok := true
	for _, body := range t.bodies {
		code, reply, lat, err := w.do(tr, "ingest.batch", http.MethodPost, w.url+"/v1/sessions/"+id+"/events", body, int64(w.sz.batch))
		var res serve.IngestResult
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(reply, &res)
		}
		if err != nil || code != http.StatusOK {
			out.failed++
			out.ops = append(out.ops, operation{lat: math.Inf(1), events: int64(w.sz.batch)})
			ok = false
			continue
		}
		out.ops = append(out.ops, operation{lat: lat, events: int64(w.sz.batch)})
		for _, v := range res.Verdicts {
			h = foldVerdict(h, v.FirstEvent, v.LastEvent, v.Score, v.Probability, v.Malicious)
			out.q.add(windowMalicious(t.labels, v.FirstEvent, v.LastEvent), v.Malicious)
		}
	}
	code, _, lat, err = w.do(tr, "ingest.delete", http.MethodDelete, w.url+"/v1/sessions/"+id, nil, 0)
	if err != nil || code != http.StatusNoContent {
		out.failed++
		lat = math.Inf(1)
	}
	out.ops = append(out.ops, operation{lat: lat})
	if !ok || h != t.want {
		out.failed++
	}
	out.digest = h
	return out
}

// round runs every session once; each connection cycles through its own
// sessions, closed-loop.
func (w *ingest) round(tr *tracer, r int) (roundResult, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	outs := make([]roundResult, len(w.order))
	var wg sync.WaitGroup
	for c := 0; c < w.sz.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.order); i += w.sz.conns {
				outs[i] = w.runSession(tr, r, i)
			}
		}(c)
	}
	wg.Wait()
	return merge(outs), nil
}

// expect computes each template's expected verdict digest with
// Monitor.DetectLog on a separately loaded copy of its champion.
func (w *ingest) expect() error {
	mons := make(map[string]*core.Monitor)
	for _, c := range w.champs {
		mon, err := loadMonitor(nil, w.store, c.id)
		if err != nil {
			return err
		}
		mons[c.app] = mon
	}
	for _, t := range w.tmpls {
		dets, err := mons[t.app].DetectLog(t.log)
		if err != nil {
			return err
		}
		t.want = digestDetections(dets)
	}
	return nil
}

// replay times the serve and core stages of ingest one by one on the
// templates' bodies: JSON decode, stack resolution and StreamDetector.Feed,
// plus the batch-detection stages for comparison with offline.
func (w *ingest) replay(tr *tracer) error {
	byApp := make(map[string]*champion)
	for _, c := range w.champs {
		byApp[c.app] = c
	}
	var logs []*trace.Log
	var encs []*preprocess.Encoder
	var models []*svm.Model
	for _, t := range w.tmpls {
		mon, err := loadMonitor(nil, w.store, byApp[t.app].id)
		if err != nil {
			return err
		}
		spec := serve.SessionSpecOf(t.log, t.app)
		mm, err := spec.ModuleMap()
		if err != nil {
			return err
		}
		det, err := mon.Stream(mm)
		if err != nil {
			return err
		}
		for _, body := range t.bodies {
			var b serve.EventBatch
			s := tr.begin("serve.decode", 0, 0)
			err := json.Unmarshal(body, &b)
			s.end(int64(len(b.Events)))
			if err != nil {
				return err
			}
			evs := make([]trace.Event, len(b.Events))
			s = tr.begin("serve.resolve", 0, 0)
			for i := range b.Events {
				if evs[i], err = b.Events[i].Event(mm); err != nil {
					break
				}
			}
			s.end(int64(len(evs)))
			if err != nil {
				return err
			}
			s = tr.begin("core.feed", 0, 0)
			for _, ev := range evs {
				var ee *core.EventError
				if _, err = det.Feed(ev); err != nil && !errors.As(err, &ee) {
					break
				}
				err = nil
			}
			s.end(int64(len(evs)))
			if err != nil {
				return err
			}
		}
		logs = append(logs, t.log)
		encs = append(encs, byApp[t.app].enc)
		models = append(models, byApp[t.app].model)
	}
	return replayDetect(tr, logs, encs, models)
}

func (w *ingest) layers(st map[string]*layerStat, m map[string]float64) {
	if route := st["fleet.route"]; route != nil && route.count > 0 {
		m["fleet.forward_self_us"] = float64(route.self) / float64(route.count) / 1e3
	}
	m["serve.rest_us_per_event"] = st["serve.handle"].usPerUnit() -
		st["serve.decode"].usPerUnit() - st["serve.resolve"].usPerUnit() - st["core.feed"].usPerUnit()
	for _, s := range telemetry.Default().Snapshot() {
		if s.Name == "serve_queue_wait_seconds" && s.Count > 0 {
			m["serve.queue_wait_ms"] = s.Quantile(0.90) * 1000
		}
	}
	m["serve.rejected"] = float64(w.rejected.Load())
	championLayers(m, w.champs)
}
