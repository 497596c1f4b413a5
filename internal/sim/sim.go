// Package sim is the deterministic cluster load simulator behind the
// leaps-sim binary: a discrete-event harness that drives N in-process
// serve replicas with synthetic appsim sessions under one shared virtual
// clock.
//
// Everything that varies — session arrivals, workload mix, event
// content, service jitter — draws from a PartitionedRNG stream addressed
// by a stable label path, and everything that takes time takes *virtual*
// time from a deterministic service model, so a scenario plus its seed
// fully determines the run: same inputs, byte-identical report and event
// log, on any machine, under -race, at any -test.count. Scoring is still
// real — each batch traverses the actual serve handler and session turn
// and the verdict stream comes from a really-trained model — which is
// what makes the simulator useful for exercising crash/restore and
// promotion behaviour, not just queueing arithmetic.
//
// See DESIGN.md §13 for the architecture and EXPERIMENTS.md for the
// canonical scenario catalog.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"repro/internal/appsim"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/svm"
)

// Config parameterises one simulation run.
type Config struct {
	// Scenario is the run's full configuration (see Scenario).
	Scenario Scenario
	// WorkDir hosts the run's scratch state: the model registry and the
	// per-replica checkpoint spools. Empty creates (and removes) a
	// temporary directory. The directory's path never enters the report
	// or event log, so it does not affect determinism.
	WorkDir string
	// Logger receives the replicas' operational logs (default: discard).
	Logger *slog.Logger
	// EventLog, when non-nil, receives the run's deterministic event
	// trace: one line per simulation event, virtual timestamps only.
	EventLog io.Writer
}

// simulation is one run's mutable state.
type simulation struct {
	sc      Scenario
	workDir string
	logger  *slog.Logger
	out     io.Writer

	clock *Clock
	prng  *PartitionedRNG
	store *registry.Store
	procs map[string]*appsim.Process

	replicas []*replica
	sessions []*simSession
	agg      aggregator

	// Routed mode: the real consistent-hash router in front of the
	// replicas and the driver every batch traverses it through.
	router    *fleet.Router
	routerDrv *serve.Driver

	championID   string
	challengerID string
	promoted     bool

	err error
}

// procKey identifies the shared appsim process a mix entry uses.
func procKey(m MixEntry) string {
	return m.App + "\x00" + m.Payload + "\x00" + m.Method
}

// fail records the run's first error; the event loop stops on it.
func (s *simulation) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// logf appends one line to the deterministic event log.
func (s *simulation) logf(format string, args ...any) {
	if s.out == nil {
		return
	}
	fmt.Fprintf(s.out, format+"\n", args...)
}

// trainBundle deterministically trains one model bundle from the
// scenario's dataset spec and returns its serialized bytes. Training
// with fixed hyperparameters (no grid search) keeps it fast; the same
// (dataset, sizes, seed) yields the same bundle bytes in every process,
// whatever it encoded before, so the registry entry ID — a content
// hash — is itself deterministic.
func trainBundle(mc ModelConfig, seed int64) ([]byte, registry.TrainInfo, error) {
	spec, err := dataset.ByName(mc.Dataset)
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = mc.BenignEvents, mc.MixedEvents, mc.MaliciousEvents
	logs, err := spec.Generate(seed)
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, core.Config{
		Seed:        seed,
		FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	})
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	clf, err := td.Train()
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		return nil, registry.TrainInfo{}, err
	}
	info := registry.TrainInfo{
		App:    logs.Benign.App,
		Seed:   seed,
		Lambda: 8,
		Kernel: "rbf",
	}
	return buf.Bytes(), info, nil
}

// setupModels trains and publishes the champion (and, for promotion
// scenarios, the challenger) into the run's registry. The first publish
// pins the current pointer to the champion.
func (s *simulation) setupModels() error {
	store, err := registry.Open(filepath.Join(s.workDir, "registry"))
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.store = store
	blob, info, err := trainBundle(s.sc.Model, s.sc.Model.Seed)
	if err != nil {
		return fmt.Errorf("sim: training champion: %w", err)
	}
	champion, err := store.Publish(bytes.NewReader(blob), info)
	if err != nil {
		return fmt.Errorf("sim: publishing champion: %w", err)
	}
	s.championID = champion.ID
	if s.sc.Promotion != nil {
		blob, info, err := trainBundle(s.sc.Model, s.sc.Model.ChallengerSeed)
		if err != nil {
			return fmt.Errorf("sim: training challenger: %w", err)
		}
		challenger, err := store.Publish(bytes.NewReader(blob), info)
		if err != nil {
			return fmt.Errorf("sim: publishing challenger: %w", err)
		}
		if challenger.ID == champion.ID {
			return fmt.Errorf("sim: challenger trained identical to champion (seed %d vs %d)", s.sc.Model.ChallengerSeed, s.sc.Model.Seed)
		}
		s.challengerID = challenger.ID
	}
	return nil
}

// setupProcs builds the shared appsim process for every distinct mix
// template. Processes are immutable once built; sessions hold their own
// generator cursors.
func (s *simulation) setupProcs() error {
	s.procs = make(map[string]*appsim.Process)
	for _, m := range s.sc.Mix {
		key := procKey(m)
		if _, ok := s.procs[key]; ok {
			continue
		}
		app, err := appsim.AppProfile(m.App)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		var proc *appsim.Process
		if m.Payload == "" {
			proc, err = appsim.NewProcess(app, nil, appsim.MethodNone)
		} else {
			var payload appsim.Profile
			payload, err = appsim.PayloadProfile(m.Payload)
			if err == nil {
				method := m.Method
				if method == "" {
					method = "online-injection"
				}
				proc, err = appsim.NewProcess(app, &payload, attackMethods[method])
			}
		}
		if err != nil {
			return fmt.Errorf("sim: building process for mix %s/%s: %w", m.App, m.Payload, err)
		}
		s.procs[key] = proc
	}
	return nil
}

// scheduleFaults enqueues the scenario's crash events.
func (s *simulation) scheduleFaults() {
	for _, f := range s.sc.Faults {
		f := f
		at := secNS(f.AtSec)
		targets := []*replica{}
		if f.Replica < 0 {
			targets = s.replicas
		} else {
			targets = append(targets, s.replicas[f.Replica])
		}
		for _, r := range targets {
			r := r
			s.clock.Schedule(at, prioCrash, func() { r.crash(at, f) })
		}
	}
}

// schedulePromotion enqueues the mid-traffic registry promotion: repoint
// the current pointer at the challenger, then propagate it. Unrouted
// replicas share the primary store, so propagation is a direct
// hot-reload. Routed replicas serve from their own mirrored stores, so
// propagation is a real sync round per replica (in index order): the
// entry imports, the pointer mirrors, and the syncer's OnAdvance hook
// reloads the server — the exact path a production replica takes. Down
// replicas pick the new champion up at restore, because boot always
// loads the registry's current entry.
func (s *simulation) schedulePromotion() {
	if s.sc.Promotion == nil {
		return
	}
	at := secNS(s.sc.Promotion.AtSec)
	s.clock.Schedule(at, prioPromote, func() {
		if s.err != nil {
			return
		}
		if _, err := s.store.Promote(s.challengerID, "sim promotion"); err != nil {
			s.fail(fmt.Errorf("sim: promoting challenger: %w", err))
			return
		}
		for _, r := range s.replicas {
			if !r.up {
				continue
			}
			if s.sc.Routed {
				if err := r.syncer.SyncOnce(); err != nil {
					s.fail(fmt.Errorf("sim: syncing promotion to %s: %w", r.id, err))
					return
				}
			} else if err := r.srv.Reload(); err != nil {
				s.fail(fmt.Errorf("sim: reloading replica %d: %w", r.idx, err))
				return
			}
		}
		s.promoted = true
		s.logf("t=%d promote entry=%s", at, s.challengerID)
	})
}

// scheduleDrains enqueues the routed-mode ring changes: each drain takes
// its replica out of the ring mid-traffic (checkpoint handoff moves its
// sessions), each rejoin puts it back (sessions hand back). The handoffs
// are real — exported and imported session checkpoints over the router's
// member handlers — which is exactly what the replica-count-invariant
// verdict checksum then proves lossless.
func (s *simulation) scheduleDrains() {
	for _, d := range s.sc.Drains {
		r := s.replicas[d.Replica]
		at := secNS(d.AtSec)
		s.clock.Schedule(at, prioCrash, func() {
			if s.err != nil {
				return
			}
			moved, err := s.router.DrainMember(context.Background(), r.id)
			if err != nil {
				s.fail(fmt.Errorf("sim: draining %s: %w", r.id, err))
				return
			}
			s.agg.handoffs += moved
			s.logf("t=%d drain %s moved=%d ring_gen=%d", at, r.id, moved, s.router.Status().Generation)
		})
		if d.RejoinSec <= 0 {
			continue
		}
		rejoinAt := at + secNS(d.RejoinSec)
		s.clock.Schedule(rejoinAt, prioRestore, func() {
			if s.err != nil {
				return
			}
			moved, err := s.router.JoinMember(context.Background(), r.id)
			if err != nil {
				s.fail(fmt.Errorf("sim: rejoining %s: %w", r.id, err))
				return
			}
			s.agg.handoffs += moved
			s.logf("t=%d rejoin %s moved=%d ring_gen=%d", rejoinAt, r.id, moved, s.router.Status().Generation)
		})
	}
}

// setupRouter builds the real fleet router over the booted replicas.
// Session ids always come from the workload (the stable s%05d names), so
// the minting callback is a deterministic fallback that only the
// recreate-after-loss path could ever reach.
func (s *simulation) setupRouter() error {
	members := make([]fleet.Member, len(s.replicas))
	for i, r := range s.replicas {
		members[i] = fleet.Member{ID: r.id, Handler: r.srv.Handler()}
	}
	minted := 0
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Members: members,
		Seed:    uint64(s.sc.Seed),
		Logger:  s.logger,
		NewID: func() string {
			minted++
			return fmt.Sprintf("anon%05d", minted)
		},
	})
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.router = rt
	s.routerDrv = serve.NewHandlerDriver(rt.Handler())
	return nil
}

// ownerReplica resolves which replica the router currently places a
// session on, so virtual service time is charged to the replica that
// really scored the batch.
func (s *simulation) ownerReplica(name string) (*replica, error) {
	mid, _, ok := s.router.Owner(name)
	if !ok {
		return nil, fmt.Errorf("sim: no ring owner for session %s", name)
	}
	for _, r := range s.replicas {
		if r.id == mid {
			return r, nil
		}
	}
	return nil, fmt.Errorf("sim: router owner %q is not a fleet replica", mid)
}

// report assembles the run's deterministic report.
func (s *simulation) report() *Report {
	rep := &Report{
		Scenario:          s.sc.Name,
		Seed:              s.sc.Seed,
		Replicas:          s.sc.Replicas,
		Champion:          s.championID,
		Challenger:        s.challengerID,
		Promoted:          s.promoted,
		VirtualDurationMS: float64(s.clock.Now()) / 1e6,
		SessionsStarted:   s.agg.sessionsStarted,
		SessionsCompleted: s.agg.sessionsCompleted,
		SessionsRecreated: s.agg.sessionsRecreated,
		EventsSent:        s.agg.eventsSent,
		BatchesSent:       s.agg.batchesSent,
		BatchesHeld:       s.agg.batchesHeld,
		BatchesDropped:    s.agg.batchesDropped,
		Verdicts:          s.agg.verdicts,
		Malicious:         s.agg.malicious,
		BatchLatency:      summarize(s.agg.batchLat),
		VerdictLatency:    summarize(s.agg.verdictLat),
	}
	if s.clock.Now() > 0 {
		rep.ThroughputEPS = float64(s.agg.eventsSent) / (float64(s.clock.Now()) / 1e9)
	}
	combined := newVerdictHash()
	for _, sess := range s.sessions {
		combined.combine(sess.hash)
	}
	rep.VerdictChecksum = fmt.Sprintf("%016x", combined.sum)
	if s.sc.Routed {
		rep.Routed = true
		rep.RingGeneration = s.router.Status().Generation
		rep.Handoffs = s.agg.handoffs
	}
	for _, r := range s.replicas {
		rep.Fleet = append(rep.Fleet, ReplicaStats{
			Replica: r.idx, Batches: r.batches, Held: r.heldCount,
			Dropped: r.dropped, Crashes: r.crashes, Restores: r.restores,
		})
	}
	return rep
}

// Run executes one simulation: train and publish the scenario's models,
// boot the fleet, process every scheduled event on the shared virtual
// clock, and return the deterministic report.
func Run(cfg Config) (*Report, error) {
	sc := cfg.Scenario.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "leaps-sim-")
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &simulation{
		sc:      sc,
		workDir: workDir,
		logger:  logger,
		out:     cfg.EventLog,
		clock:   NewClock(),
		prng:    NewPartitionedRNG(sc.Seed),
	}
	if err := s.setupModels(); err != nil {
		return nil, err
	}
	if err := s.setupProcs(); err != nil {
		return nil, err
	}
	for i := 0; i < sc.Replicas; i++ {
		s.replicas = append(s.replicas, s.newReplica(i))
	}
	for _, r := range s.replicas {
		if err := r.boot(); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, r := range s.replicas {
			if r.up {
				r.stop(true)
			}
		}
	}()
	if sc.Routed {
		if err := s.setupRouter(); err != nil {
			return nil, err
		}
	}
	s.scheduleArrivals()
	s.scheduleFaults()
	s.scheduleDrains()
	s.schedulePromotion()
	for s.clock.HasPendingEvents() && s.err == nil {
		s.clock.ProcessNextEvent()
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.report(), nil
}
