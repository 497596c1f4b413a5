package faultinject

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the process-fault half of the package: named fault points
// compiled into production code paths (registry publishes, spool writes,
// autopilot transitions) that are inert until a test or an operator arms
// them. A disarmed Step is one atomic load, so the hooks are free on the
// hot path.
//
// Two fault shapes are supported per point:
//
//   - a crash: Step panics with *CrashPanic (in-process tests recover it
//     to simulate a kill) or calls os.Exit(CrashExitCode) when armed
//     from the environment (a test re-runs its binary as a server that
//     really dies);
//   - an error: Step returns the armed error for its next N firings,
//     modelling transient I/O failures (disk full, EIO) without
//     corrupting any real file.
//
// Points are just strings; the convention is "subsystem/site", e.g.
// "registry/publish/manifest" or "autopilot/journal/published".

// CrashExitCode is the exit status of a process killed by an
// environment-armed crash point, distinguishable from ordinary failures.
const CrashExitCode = 70

// CrashEnv is the environment variable ArmFromEnv reads: a
// comma-separated list of crash points, each killing the process with
// CrashExitCode the first time execution reaches it.
const CrashEnv = "LEAPS_CRASHPOINT"

// CrashPanic is the panic payload of an in-process armed crash point.
// Tests recover it at the top of the killed control flow to simulate a
// process death at exactly that point.
type CrashPanic struct {
	// Point is the fault point that fired.
	Point string
}

func (c *CrashPanic) Error() string {
	return fmt.Sprintf("faultinject: simulated crash at %q", c.Point)
}

// armKind selects what an armed point does when stepped on.
type armKind int

const (
	armPanic armKind = iota // panic(*CrashPanic)
	armExit                 // os.Exit(CrashExitCode)
	armError                // return the armed error
)

// armed is one armed fault point.
type armed struct {
	kind  armKind
	err   error
	times int // firings left; <0 means unlimited
}

var (
	pointMu sync.Mutex
	points  map[string]*armed
	// armedCount keeps the disarmed Step fast: one atomic load, no lock.
	armedCount atomic.Int32
	// exitHook runs just before an environment-armed crash point kills
	// the process (see SetExitHook).
	exitHook atomic.Pointer[func(point string)]
)

// SetExitHook installs fn to run immediately before an armExit crash
// point terminates the process. Binaries use it to flush last-moment
// diagnostics — leaps-serve dumps the telemetry flight recorder — in
// the narrow window a simulated crash still allows. The hook must not
// block; a nil fn clears it. What to flush is the binary's policy, so
// the hook is injected from main rather than hard-wired here.
func SetExitHook(fn func(point string)) {
	if fn == nil {
		exitHook.Store(nil)
		return
	}
	exitHook.Store(&fn)
}

func arm(point string, a *armed) {
	pointMu.Lock()
	defer pointMu.Unlock()
	if points == nil {
		points = make(map[string]*armed)
	}
	if _, dup := points[point]; !dup {
		armedCount.Add(1)
	}
	points[point] = a
}

// ArmCrash arms point to panic with *CrashPanic the next time execution
// steps on it (one-shot). In-process recovery tests use it to kill a
// control flow at an exact transition and then restart it.
func ArmCrash(point string) {
	arm(point, &armed{kind: armPanic, times: 1})
}

// ArmExit arms point to terminate the process with CrashExitCode the
// next time execution steps on it (one-shot) — the cross-process variant
// of ArmCrash, for tests that kill a real process.
func ArmExit(point string) {
	arm(point, &armed{kind: armExit, times: 1})
}

// ArmError arms point to return err from Step for its next times
// firings (times < 0 means until disarmed). It models transient I/O
// failures such as a full disk.
func ArmError(point string, err error, times int) {
	if times == 0 {
		times = 1
	}
	arm(point, &armed{kind: armError, err: err, times: times})
}

// Disarm removes one armed point; missing points are a no-op.
func Disarm(point string) {
	pointMu.Lock()
	defer pointMu.Unlock()
	if _, ok := points[point]; ok {
		delete(points, point)
		armedCount.Add(-1)
	}
}

// Reset disarms every point. Tests call it in cleanup so armed faults
// cannot leak across test cases.
func Reset() {
	pointMu.Lock()
	defer pointMu.Unlock()
	armedCount.Add(-int32(len(points)))
	points = nil
}

// ArmFromEnv arms every crash point named in the CrashEnv environment
// variable (comma-separated) to kill the process with CrashExitCode.
// Binaries call it at startup; with the variable unset it does nothing.
// It returns the armed points so callers can log them.
func ArmFromEnv() []string {
	v := os.Getenv(CrashEnv)
	if strings.TrimSpace(v) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(v, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		ArmExit(p)
		out = append(out, p)
	}
	return out
}

// Step is the fault hook production code places at a crash or failure
// site. Disarmed (the overwhelmingly common case) it returns nil at the
// cost of one atomic load. Armed as a crash it never returns; armed as
// an error it returns the injected error until the arming's firing
// budget is spent.
func Step(point string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	pointMu.Lock()
	a, ok := points[point]
	if !ok {
		pointMu.Unlock()
		return nil
	}
	if a.times > 0 {
		a.times--
		if a.times == 0 {
			delete(points, point)
			armedCount.Add(-1)
		}
	}
	kind, err := a.kind, a.err
	pointMu.Unlock()
	switch kind {
	case armPanic:
		panic(&CrashPanic{Point: point})
	case armExit:
		fmt.Fprintf(os.Stderr, "faultinject: crash point %q reached; exiting %d\n", point, CrashExitCode)
		if fn := exitHook.Load(); fn != nil {
			(*fn)(point)
		}
		os.Exit(CrashExitCode)
	}
	return err
}

// Recover converts a recover() value back into the *CrashPanic an armed
// crash point raised, re-panicking on anything else so unrelated panics
// are never swallowed. Typical use:
//
//	defer func() { crash = faultinject.Recover(recover()) }()
func Recover(v any) *CrashPanic {
	if v == nil {
		return nil
	}
	if c, ok := v.(*CrashPanic); ok {
		return c
	}
	panic(v)
}
