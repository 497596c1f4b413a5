// Command leaps-serve runs the online detection server: it loads one or
// more trained model bundles and scores event streams POSTed to its
// HTTP/JSON API, one detection session per monitored process.
//
// Usage:
//
//	leaps-serve -model leaps.model [-model name=other.model ...] \
//	    [-registry dir] [-registry-model default] [-shadow-queue 256] \
//	    [-gate-min-events 1000] [-gate-min-tpr 0.95] [-gate-max-fpr 0.05] \
//	    [-addr 127.0.0.1:8341] [-spool ./spool] [-queue-depth 8192] \
//	    [-max-sessions 1024] [-max-body 8388608] \
//	    [-idle-timeout 15m] [-evict-interval 1m] [-parallel N] \
//	    [-autopilot -autopilot-benign b.letl -autopilot-mixed m.letl \
//	     -autopilot-app vim.exe -autopilot-lambda 8 -autopilot-sigma2 2 \
//	     -autopilot-trigger 5000 -autopilot-interval 1m \
//	     -autopilot-state dir -autopilot-shadow-timeout 10m] \
//	    [-sync-from primary-registry-dir] [-sync-interval 2s] \
//	    [-replica-id r0] [-quiet] [-verbose] [-log-json]
//
// API (see README.md "Serving" for request/response bodies):
//
//	POST   /v1/sessions              open a session for one process
//	POST   /v1/sessions/{id}/events  ingest a batch, receive verdicts
//	GET    /v1/sessions/{id}         session state (?checkpoint=1)
//	DELETE /v1/sessions/{id}         close and discard the session
//	POST   /v1/sessions/{id}/export  detach a session as a handoff envelope
//	POST   /v1/sessions/import       restore a handed-off session
//	POST   /v1/drain                 refuse new sessions (ring exit prep)
//	DELETE /v1/drain                 resume accepting sessions
//	GET    /v1/models                registry catalogue and shadow state
//	POST   /v1/models/shadow         start shadow-evaluating an entry
//	DELETE /v1/models/shadow         stop the shadow evaluation
//	POST   /v1/models/promote        gated (or forced) promotion
//	POST   /v1/models/rollback       return to a prior champion
//	GET    /v1/autopilot             retraining controller status
//	POST   /v1/autopilot/pause       suspend retraining (journaled)
//	POST   /v1/autopilot/resume      resume; resets the circuit breaker
//	GET    /healthz, /readyz         liveness and readiness probes
//	GET    /metrics, /spans, ...     telemetry introspection
//
// With -registry, the model named by -registry-model (default "default")
// is loaded from the registry's current entry and managed over the
// /v1/models endpoints: challengers published by leaps-train -registry
// are shadow-evaluated against live traffic and promoted only when the
// -gate-* thresholds pass (see README.md "Model registry"). At least one
// model source is required; -registry counts as one.
//
// With -autopilot (requires -registry plus -autopilot-benign and
// -autopilot-mixed), a crash-safe retraining controller closes the loop
// unattended: once -autopilot-trigger new verdict windows accumulate it
// retrains from the configured logs, publishes the candidate, shadow-
// evaluates it against live traffic and promotes it when the gate
// passes. Its journal lives under -autopilot-state (default
// <registry>/autopilot); a restarted server resumes any interrupted
// cycle from there. See DESIGN.md "Retraining autopilot".
// -autopilot-lambda and -autopilot-sigma2 go together, as leaps-train's
// -lambda and -sigma2 do: with both, each finite and positive, they fix
// every retrain's SVM parameters; without either, each cycle
// grid-searches them; anything else is a usage error at startup.
//
// On SIGTERM or SIGINT the server stops accepting work, drains every
// session queue, checkpoints all sessions to the spool directory and
// exits; a restart against the same -spool restores them. SIGHUP
// hot-reloads every model from disk for new sessions — all-or-nothing:
// if any bundle fails to load, every model keeps serving its previous
// version.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/autopilot"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slogx"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "leaps-serve:", err)
		os.Exit(1)
	}
}

// modelFlags collects repeated -model values of the form "path" (named
// "default") or "name=path".
type modelFlags map[string]string

func (m modelFlags) String() string {
	parts := make([]string, 0, len(m))
	for name, path := range m {
		parts = append(parts, name+"="+path)
	}
	return strings.Join(parts, ",")
}

func (m modelFlags) Set(v string) error {
	name, path := "default", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
	}
	if name == "" || path == "" {
		return fmt.Errorf("want path or name=path, got %q", v)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("model %q given twice", name)
	}
	m[name] = path
	return nil
}

// run starts the server and blocks until a termination signal. When
// ready is non-nil, the bound address is sent on it once the listener is
// up and signals are caught (main_test's hook).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("leaps-serve", flag.ContinueOnError)
	models := modelFlags{}
	fs.Var(models, "model", "model bundle to serve: path or name=path (repeatable)")
	var (
		addr       = fs.String("addr", "127.0.0.1:8341", "listen address")
		regDir     = fs.String("registry", "", "model registry directory (enables /v1/models lifecycle endpoints)")
		regModel   = fs.String("registry-model", "default", "model name the registry's current entry serves as")
		shadowQ    = fs.Int("shadow-queue", 256, "max queued shadow batches awaiting challenger replay")
		gateEvents = fs.Int("gate-min-events", 1000, "min shadow events before promotion")
		gateTPR    = fs.Float64("gate-min-tpr", 0.95, "min challenger agreement on champion-benign windows")
		gateFPR    = fs.Float64("gate-max-fpr", 0.05, "max rate of champion detections the challenger misses")
		spool      = fs.String("spool", "", "checkpoint spool directory (enables shutdown/eviction persistence)")
		queueDepth = fs.Int("queue-depth", 8192, "max queued events per session before 429")
		maxSess    = fs.Int("max-sessions", 1024, "max resident sessions")
		maxBody    = fs.Int64("max-body", 8<<20, "max request body bytes")
		idle       = fs.Duration("idle-timeout", 15*time.Minute, "evict sessions untouched this long (needs -spool)")
		evictEvery = fs.Duration("evict-interval", time.Minute, "idle-session scan period")
		parallel   = fs.Int("parallel", 0, "autopilot retraining worker count (0 = GOMAXPROCS)")
		syncFrom   = fs.String("sync-from", "", "primary registry directory to replicate -registry from (background pull loop; promotions on the primary hot-reload this replica)")
		syncEvery  = fs.Duration("sync-interval", 2*time.Second, "replication poll period (with -sync-from)")
		replicaID  = fs.String("replica-id", "", "fleet replica name, reported in session info and verdict flight entries")
		quiet      = fs.Bool("quiet", false, "only warnings and errors")
		verbose    = fs.Bool("verbose", false, "debug-level logging")
		logJSON    = fs.Bool("log-json", false, "emit JSON log records instead of key=value text")

		apEnable   = fs.Bool("autopilot", false, "run the retraining autopilot (needs -registry, -autopilot-benign, -autopilot-mixed)")
		apBenign   = fs.String("autopilot-benign", "", "benign training log the autopilot retrains from")
		apMixed    = fs.String("autopilot-mixed", "", "mixed training log the autopilot retrains from")
		apApp      = fs.String("autopilot-app", "", "application to slice from the training logs")
		apWindow   = fs.Int("autopilot-window", 0, "retraining detection window (0 = core default)")
		apLambda   = fs.Float64("autopilot-lambda", 0, "fixed WSVM λ, with -autopilot-sigma2 (omit both to grid-search)")
		apSigma2   = fs.Float64("autopilot-sigma2", 0, "fixed RBF σ², with -autopilot-lambda (omit both to grid-search)")
		apSeed     = fs.Int64("autopilot-seed", 1, "retraining data-selection seed")
		apLenient  = fs.Bool("autopilot-lenient", false, "skip corrupt training-log records instead of failing the cycle")
		apInterval = fs.Duration("autopilot-interval", time.Minute, "trigger-check period")
		apTrigger  = fs.Uint64("autopilot-trigger", 5000, "new verdict windows that trigger a retraining cycle")
		apState    = fs.String("autopilot-state", "", "autopilot journal directory (default <registry>/autopilot)")
		apShadowTO = fs.Duration("autopilot-shadow-timeout", 10*time.Minute, "max wait for shadow evidence before the gate judges what it has")
		apRetries  = fs.Int("autopilot-retries", 0, "retries per failed autopilot stage (0 = default 2, negative = no retries)")
		apBackoff  = fs.Duration("autopilot-backoff", 0, "base retry backoff (0 = default 500ms)")
		apBreaker  = fs.Int("autopilot-breaker", 0, "consecutive failed cycles that trip the circuit breaker (0 = default 3)")
		flightDir  = fs.String("flight-dir", "", "directory for flight-recorder dumps (default -spool, else <registry>/flightrec; empty without either disables dumps)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Configure(slogx.Options{Level: slogx.CLILevel(*quiet, *verbose), JSON: *logJSON})
	if armed := faultinject.ArmFromEnv(); len(armed) > 0 {
		slogx.Warn("crash points armed from environment", "points", strings.Join(armed, ","))
	}
	if len(models) == 0 && *regDir == "" {
		return fmt.Errorf("missing -model (or -registry)")
	}
	apParams, err := svm.FlagParams(fs, "autopilot-lambda", "autopilot-sigma2", *apLambda, *apSigma2)
	if err != nil {
		return err
	}
	// Flight-recorder dumps land next to the server's other durable state
	// unless -flight-dir points elsewhere. With neither a spool nor a
	// registry configured there is no state dir at all; dumps stay off.
	switch {
	case *flightDir != "":
		telemetry.SetFlightDir(*flightDir)
	case *spool != "":
		telemetry.SetFlightDir(*spool)
	case *regDir != "":
		telemetry.SetFlightDir(filepath.Join(*regDir, "flightrec"))
	}
	// A crash-point exit is precisely when the recent-history ring matters
	// most: dump it on the way down.
	faultinject.SetExitHook(func(point string) {
		if path := telemetry.DumpFlight("crashpoint-" + point); path != "" {
			slogx.Warn("flight recorder dumped before crash-point exit", "point", point, "dump", path)
		}
	})
	var store *registry.Store
	if *regDir != "" {
		st, err := registry.Open(*regDir)
		if err != nil {
			return err
		}
		store = st
	}

	// Replication: mirror a primary registry into the local -registry
	// before boot (so boot serves the primary's champion), then keep
	// pulling in the background. Sync is fail-static — a broken primary
	// only costs freshness — but an *empty* mirror with a failed first
	// sync has nothing to serve, which is a boot error.
	var syncer *fleet.Syncer
	if *syncFrom != "" {
		if store == nil {
			return fmt.Errorf("-sync-from requires -registry (the local mirror directory)")
		}
		if *apEnable {
			return fmt.Errorf("-sync-from and -autopilot are mutually exclusive: replicas are read mirrors, the primary owns retraining")
		}
		src, err := registry.Open(*syncFrom)
		if err != nil {
			return fmt.Errorf("opening sync source: %w", err)
		}
		syncer = &fleet.Syncer{Source: src, Replica: store, Logger: slogx.L()}
		if err := syncer.SyncOnce(); err != nil {
			if _, ok, _ := store.Current(); !ok {
				return fmt.Errorf("initial registry sync failed and the local mirror is empty: %w", err)
			}
			slogx.Warn("initial registry sync failed; serving last mirrored model", "err", err.Error())
		}
	}

	gate := registry.Gate{MinEvents: *gateEvents, MinTPR: *gateTPR, MaxFPR: *gateFPR}
	var ctl *autopilot.Controller
	if *apEnable {
		if store == nil {
			return fmt.Errorf("-autopilot requires -registry")
		}
		if *apBenign == "" || *apMixed == "" {
			return fmt.Errorf("-autopilot requires -autopilot-benign and -autopilot-mixed")
		}
		stateDir := *apState
		if stateDir == "" {
			stateDir = filepath.Join(*regDir, "autopilot")
		}
		c, err := autopilot.New(autopilot.Config{
			Store: store,
			Trainer: autopilot.LogTrainer{
				BenignPath: *apBenign,
				MixedPath:  *apMixed,
				App:        *apApp,
				Window:     *apWindow,
				Params:     apParams,
				Seed:       *apSeed,
				Lenient:    *apLenient,
				Parallel:   *parallel,
			},
			Gate:             gate,
			StateDir:         stateDir,
			Interval:         *apInterval,
			TriggerEvents:    *apTrigger,
			ShadowTimeout:    *apShadowTO,
			StageRetries:     *apRetries,
			BackoffBase:      *apBackoff,
			BreakerThreshold: *apBreaker,
			Seed:             *apSeed,
			Logger:           slogx.L(),
		})
		if err != nil {
			return err
		}
		ctl = c
	}

	cfg := serve.Config{
		Models:        models,
		Registry:      store,
		RegistryModel: *regModel,
		ShadowQueue:   *shadowQ,
		Gate:          gate,
		SpoolDir:      *spool,
		MaxSessions:   *maxSess,
		QueueDepth:    *queueDepth,
		MaxBodyBytes:  *maxBody,
		IdleTimeout:   *idle,
		EvictInterval: *evictEvery,
		ReplicaID:     *replicaID,
		Logger:        slogx.L(),
	}
	if ctl != nil {
		cfg.Autopilot = ctl
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	if syncer != nil {
		// Pointer advances mirrored from the primary hot-reload the
		// server — the fleet-wide promotion propagation path.
		syncer.OnAdvance = func(registry.Pointer) error { return srv.Reload() }
		syncCtx, syncCancel := context.WithCancel(context.Background())
		defer syncCancel()
		go syncer.Run(syncCtx, *syncEvery)
		slogx.Info("registry replication started", "from", *syncFrom, "interval", syncEvery.String())
	}
	if ctl != nil {
		ctl.Bind(srv)
		if err := ctl.Start(); err != nil {
			return err
		}
		slogx.Info("autopilot started", "trigger", *apTrigger, "interval", apInterval.String())
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP, syscall.SIGQUIT)
	defer signal.Stop(sigs)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	slogx.Info("serving", "addr", ln.Addr().String(), "models", models.String(), "spool", *spool)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	for {
		select {
		case err := <-serveErr:
			return fmt.Errorf("listener failed: %w", err)
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				slogx.Info("SIGHUP: reloading models")
				if err := srv.Reload(); err != nil {
					slogx.Warn("model reload incomplete", "err", err.Error())
				}
				continue
			}
			if sig == syscall.SIGQUIT {
				// The operator's "what is it doing right now" signal: dump
				// the flight recorder and keep serving. Catching SIGQUIT
				// suppresses the runtime's dump-all-goroutines-and-exit
				// default, so write a goroutine stack dump too — to a file
				// next to the flight dump, or to stderr (where the runtime
				// would have put it) when no flight directory is configured.
				// Each kill -QUIT is a deliberate ask, so this bypasses the
				// trigger-dump rate limit.
				if dir := telemetry.FlightDir(); dir != "" {
					if path, err := telemetry.DumpFlightTo(dir, "sigquit"); err == nil {
						slogx.Info("SIGQUIT: flight recorder dumped", "dump", path)
					} else {
						slogx.Warn("SIGQUIT: flight dump failed", "err", err.Error())
					}
					if path, err := telemetry.DumpGoroutinesTo(dir, "sigquit"); err == nil {
						slogx.Info("SIGQUIT: goroutine stacks dumped", "dump", path)
					} else {
						slogx.Warn("SIGQUIT: goroutine dump failed", "err", err.Error())
					}
				} else {
					slogx.Warn("SIGQUIT: no flight directory configured; dumping goroutine stacks to stderr")
					_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
				}
				continue
			}
			slogx.Info("shutting down", "signal", sig.String())
			if ctl != nil {
				ctl.Stop() // journal keeps any interrupted cycle resumable
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := httpSrv.Shutdown(ctx) // stop intake, finish in-flight requests
			if serr := srv.Shutdown(ctx); err == nil {
				err = serr
			}
			cancel()
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("shutdown: %w", err)
			}
			slogx.Info("shutdown complete; sessions spooled", "spool", *spool)
			return nil
		}
	}
}
