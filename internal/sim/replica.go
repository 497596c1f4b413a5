package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/serve"
)

// errSimKill is the injected spool failure a hard kill arms: the dying
// replica cannot checkpoint, so its sessions are lost exactly as they
// would be to a SIGKILL before the spool fsync.
var errSimKill = errors.New("sim: hard kill: checkpoint spool unavailable")

// spoolCheckpointPoint is the serve fault-injection point a hard kill
// arms to make session checkpointing fail.
const spoolCheckpointPoint = "serve/spool/checkpoint"

// heldBatch is one generated batch awaiting (or undergoing) service.
type heldBatch struct {
	sess    *simSession
	seq     int // 1-based batch ordinal within the session
	events  []serve.EventSpec
	arrival int64 // virtual time the batch was emitted
}

// replica is one simulated serve instance: a real serve.Server driven
// in-process through its HTTP handler, wrapped in a virtual-time service
// model. Scoring is real — every batch runs the actual handler and
// session turn and produces real verdicts — but the time it takes
// exists only in the model (busyUntil plus the scenario's service
// costs), so the schedule never observes the wall clock.
type replica struct {
	idx      int
	id       string // fleet member name ("r0", "r1", …)
	sim      *simulation
	spoolDir string
	jitter   *rand.Rand

	srv *serve.Server
	drv *serve.Driver

	// Routed mode only: the replica's own registry store, replicated
	// from the run's primary by a real fleet.Syncer — promotions reach
	// this replica through registry sync, never by sharing the primary.
	store  *registry.Store
	syncer *fleet.Syncer

	up        bool
	epoch     int   // bumped by hard kills; stale completions check it
	busyUntil int64 // virtual time the pipeline drains

	held      []*heldBatch // batches that arrived while down
	heldCount int
	batches   int
	dropped   int
	crashes   int
	restores  int
}

// newReplica prepares (but does not boot) one replica harness.
func (s *simulation) newReplica(idx int) *replica {
	return &replica{
		idx:      idx,
		id:       fmt.Sprintf("r%d", idx),
		sim:      s,
		spoolDir: filepath.Join(s.workDir, fmt.Sprintf("spool-r%d", idx)),
		jitter:   s.prng.Stream("replica-jitter", strconv.Itoa(idx)),
	}
}

// boot starts the replica's serve.Server. Unrouted replicas share the
// run's primary registry store directly; routed replicas first converge
// their own local store off the primary through a real sync round, then
// serve from that — exactly the replicated topology cmd/leaps-serve
// -sync-from runs in production. Booting loads the registry's *current*
// entry, so a replica restored after a promotion comes back serving the
// new champion.
func (r *replica) boot() error {
	store := r.sim.store
	if r.sim.sc.Routed {
		if r.store == nil {
			st, err := registry.Open(filepath.Join(r.sim.workDir, "registry-"+r.id))
			if err != nil {
				return fmt.Errorf("sim: opening replica %s store: %w", r.id, err)
			}
			r.store = st
			r.syncer = &fleet.Syncer{
				Source:  r.sim.store,
				Replica: st,
				Logger:  r.sim.logger,
				OnAdvance: func(registry.Pointer) error {
					if r.srv == nil {
						return nil // pre-boot convergence; boot loads current itself
					}
					return r.srv.Reload()
				},
			}
		}
		if err := r.syncer.SyncOnce(); err != nil {
			return fmt.Errorf("sim: syncing replica %s: %w", r.id, err)
		}
		store = r.store
	}
	srv, err := serve.NewServer(serve.Config{
		Registry:  store,
		SpoolDir:  r.spoolDir,
		ReplicaID: r.id,
		Logger:    r.sim.logger,
	})
	if err != nil {
		return fmt.Errorf("sim: booting replica %d: %w", r.idx, err)
	}
	r.srv = srv
	r.drv = serve.NewDriver(srv)
	r.up = true
	return nil
}

// stop shuts the replica's server down for real. Graceful stops spool
// every session; hard kills arm the spool fault point first, so the
// checkpoints fail and sessions die with the process.
func (r *replica) stop(graceful bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !graceful {
		faultinject.ArmError(spoolCheckpointPoint, errSimKill, -1)
		defer faultinject.Disarm(spoolCheckpointPoint)
		_ = r.srv.Shutdown(ctx) // spool failures are the point
	} else if err := r.srv.Shutdown(ctx); err != nil {
		r.sim.fail(fmt.Errorf("sim: stopping replica %d: %w", r.idx, err))
	}
	r.srv, r.drv = nil, nil
	r.up = false
}

// cost returns the virtual service time of an n-event batch, including
// the replica's deterministic jitter draw.
func (r *replica) cost(n int) int64 {
	svc := r.sim.sc.Service
	micros := svc.BatchOverheadMicros + svc.PerEventMicros*float64(n)
	if svc.JitterFrac > 0 {
		micros *= 1 + svc.JitterFrac*(2*r.jitter.Float64()-1)
	}
	return int64(micros * 1000)
}

// ingest pushes the batch through the replica's real serving path,
// creating (or re-creating, after a kill lost it) the server-side
// session as needed.
func (r *replica) ingest(b *heldBatch) (serve.IngestResult, error) {
	sess := b.sess
	drv := r.drv
	if r.sim.sc.Routed {
		// Routed batches go through the router's forwarding path; the
		// session's stable name is its id, so the router's consistent
		// hash (not the simulator) decides which replica scores it.
		drv = r.sim.routerDrv
	}
	if sess.serverID == "" {
		spec := sess.spec
		if r.sim.sc.Routed {
			spec.ID = sess.name
		}
		info, err := drv.CreateSession(spec)
		if err != nil {
			return serve.IngestResult{}, fmt.Errorf("sim: creating session %s: %w", sess.name, err)
		}
		sess.serverID = info.ID
	}
	res, err := drv.Ingest(sess.serverID, serve.EventBatch{Events: b.events})
	if serve.IsStatus(err, 404) || serve.IsStatus(err, 409) {
		// The server-side session died with a killed replica (or was
		// closed under us): re-open and restart the stream there.
		spec := sess.spec
		if r.sim.sc.Routed {
			spec.ID = sess.name
		}
		info, cerr := drv.CreateSession(spec)
		if cerr != nil {
			return serve.IngestResult{}, fmt.Errorf("sim: recreating session %s: %w", sess.name, cerr)
		}
		sess.serverID = info.ID
		sess.recreated++
		r.sim.agg.sessionsRecreated++
		res, err = drv.Ingest(sess.serverID, serve.EventBatch{Events: b.events})
	}
	if err != nil {
		return serve.IngestResult{}, fmt.Errorf("sim: ingesting %s batch %d: %w", sess.name, b.seq, err)
	}
	return res, nil
}

// dispatch services a batch: real ingest now, verdict delivery at the
// virtual completion time. The completion closure captures the replica's
// epoch — if a hard kill intervenes, the batch's results are dropped on
// the floor exactly as a dying process would drop them.
func (r *replica) dispatch(b *heldBatch, now int64) error {
	res, err := r.ingest(b)
	if err != nil {
		return err
	}
	r.batches++
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	done := start + r.cost(len(b.events))
	r.busyUntil = done
	epoch := r.epoch
	s := r.sim
	s.clock.Schedule(done, prioComplete, func() {
		if r.epoch != epoch {
			r.dropped++
			s.agg.batchesDropped++
			s.logf("t=%d drop %s batch=%d replica=%d", done, b.sess.name, b.seq, r.idx)
			s.batchSettled(b.sess, done)
			return
		}
		lat := done - b.arrival
		s.agg.batchLat = append(s.agg.batchLat, lat)
		for _, v := range res.Verdicts {
			b.sess.hash.addVerdict(v.FirstEvent, v.LastEvent, v.Score, v.Malicious)
			b.sess.verdicts++
			s.agg.verdicts++
			if v.Malicious {
				b.sess.malicious++
				s.agg.malicious++
			}
			s.agg.verdictLat = append(s.agg.verdictLat, lat)
		}
		s.logf("t=%d done %s batch=%d replica=%d verdicts=%d latency_ns=%d",
			done, b.sess.name, b.seq, r.idx, len(res.Verdicts), lat)
		s.batchSettled(b.sess, done)
	})
	return nil
}

// crash takes the replica down at virtual time now and schedules its
// restore. Graceful crashes ("sigterm") let in-flight work drain and
// checkpoint sessions; hard crashes ("kill") bump the epoch — dropping
// every in-flight completion — and lose session state.
func (r *replica) crash(now int64, f FaultSpec) {
	if !r.up {
		r.sim.logf("t=%d crash-skip replica=%d (already down)", now, r.idx)
		return
	}
	r.crashes++
	graceful := f.Kind == "sigterm"
	if !graceful {
		r.epoch++
	}
	r.stop(graceful)
	r.sim.logf("t=%d crash replica=%d kind=%s", now, r.idx, f.Kind)
	restoreAt := now + secNS(f.DownSec)
	if graceful && r.busyUntil+1 > restoreAt {
		// A graceful stop drains before the process exits; the replacement
		// cannot be up before the drain finishes.
		restoreAt = r.busyUntil + 1
	}
	r.sim.clock.Schedule(restoreAt, prioRestore, func() { r.restore(restoreAt) })
}

// restore boots the replacement replica and delivers the batches held
// while it was down, in arrival order, with latency measured from each
// batch's original arrival — downtime surfaces as tail latency.
func (r *replica) restore(now int64) {
	s := r.sim
	if s.err != nil {
		return
	}
	if err := r.boot(); err != nil {
		s.fail(err)
		return
	}
	r.restores++
	r.busyUntil = now
	held := r.held
	r.held = nil
	s.logf("t=%d restore replica=%d held=%d", now, r.idx, len(held))
	for _, b := range held {
		if err := r.dispatch(b, b.arrival); err != nil {
			s.fail(err)
			return
		}
	}
}
