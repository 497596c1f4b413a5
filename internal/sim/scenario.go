package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/appsim"
	"repro/internal/dataset"
)

// ArrivalConfig describes the session arrival process.
type ArrivalConfig struct {
	// Process selects the arrival model: "poisson" (exponential
	// inter-arrivals at RatePerSec) or "bursty" (an on/off modulated
	// Poisson process: RatePerSec*BurstFactor during on-phases of OnSec,
	// RatePerSec during off-phases of OffSec).
	Process string `json:"process"`
	// RatePerSec is the base session arrival rate, in sessions per
	// virtual second.
	RatePerSec float64 `json:"rate_per_sec"`
	// BurstFactor multiplies the rate during on-phases (bursty only).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// OnSec and OffSec are the phase lengths of the bursty modulation,
	// in virtual seconds.
	OnSec  float64 `json:"on_sec,omitempty"`
	OffSec float64 `json:"off_sec,omitempty"`
}

// LifetimeConfig describes how many events one session emits over its
// life.
type LifetimeConfig struct {
	// Dist selects the lifetime distribution: "fixed" (always MinEvents)
	// or "uniform" (uniform on [MinEvents, MaxEvents]).
	Dist string `json:"dist"`
	// MinEvents and MaxEvents bound the per-session event count.
	MinEvents int `json:"min_events"`
	MaxEvents int `json:"max_events,omitempty"`
}

// MixEntry is one session template in the scenario's workload mix: which
// appsim application the session runs, the payload infecting it (if
// any), and the template's selection weight.
type MixEntry struct {
	// App names the appsim application profile (winscp, chrome,
	// notepad++, putty, vim).
	App string `json:"app"`
	// Payload names the appsim payload profile (reverse_tcp,
	// reverse_https, codeinject); empty means a clean session.
	Payload string `json:"payload,omitempty"`
	// Method is the attack method for infected sessions:
	// "offline-infection" or "online-injection" (default
	// "online-injection" when a payload is set).
	Method string `json:"method,omitempty"`
	// PayloadFraction is the probability of drawing payload operations
	// while generating the session's events (infected sessions only).
	PayloadFraction float64 `json:"payload_fraction,omitempty"`
	// Weight is the relative probability of a new session using this
	// template.
	Weight float64 `json:"weight"`
}

// FaultSpec schedules one replica crash and its restoration.
type FaultSpec struct {
	// Replica is the replica index to kill; -1 kills every replica.
	Replica int `json:"replica"`
	// AtSec is the crash's virtual time.
	AtSec float64 `json:"at_sec"`
	// DownSec is how long the replica stays down before restoring.
	DownSec float64 `json:"down_sec"`
	// Kind is the crash flavour: "sigterm" (graceful — admitted batches
	// score, sessions checkpoint to the spool and restore intact) or
	// "kill" (hard — in-flight batches drop, the checkpoint spool fails
	// via the serve/spool/checkpoint fault-injection point, sessions
	// restart from scratch).
	Kind string `json:"kind"`
}

// DrainSpec schedules one ring change in a routed scenario: the replica
// leaves the ring at AtSec (its sessions move to their new ring owners
// by checkpoint handoff) and rejoins RejoinSec later (sessions whose
// ring owner it is hand back). Unlike a FaultSpec crash, no state is
// ever lost — the drain is the cooperative maintenance path, and the
// run's verdict checksum must not notice it happened.
type DrainSpec struct {
	// Replica is the replica index to drain.
	Replica int `json:"replica"`
	// AtSec is the drain's virtual time.
	AtSec float64 `json:"at_sec"`
	// RejoinSec is how long after the drain the replica rejoins the
	// ring; 0 means it stays out for the rest of the run.
	RejoinSec float64 `json:"rejoin_sec,omitempty"`
}

// PromotionSpec schedules a mid-traffic registry promotion.
type PromotionSpec struct {
	// AtSec is when the challenger entry becomes the registry's current
	// pointer and every live replica hot-reloads. Sessions opened before
	// the promotion stay pinned to the old champion; sessions opened
	// after score with the challenger.
	AtSec float64 `json:"at_sec"`
}

// ServiceConfig is the deterministic virtual service-time model of one
// replica: how long, in virtual time, scoring work occupies the
// replica's pipeline. Real scoring still happens (each batch goes
// through the serve handler path), but its wall-clock cost never enters
// the schedule — latency and throughput are functions of this model and
// the arrival schedule alone, which is what makes reports
// machine-independent and byte-reproducible.
type ServiceConfig struct {
	// PerEventMicros is the virtual cost of scoring one event.
	PerEventMicros float64 `json:"per_event_micros"`
	// BatchOverheadMicros is the fixed virtual cost per batch (request
	// handling, queue hand-off).
	BatchOverheadMicros float64 `json:"batch_overhead_micros"`
	// JitterFrac scales a deterministic per-batch service-time jitter
	// drawn from the replica's RNG stream: the cost is multiplied by a
	// factor uniform on [1-JitterFrac, 1+JitterFrac].
	JitterFrac float64 `json:"jitter_frac,omitempty"`
}

// ModelConfig describes the model bundle(s) the simulated fleet serves.
// The simulator trains them in-process from a dataset spec — training is
// deterministic, so the served model (and therefore every verdict) is a
// pure function of this config.
type ModelConfig struct {
	// Dataset names the internal/dataset spec to train from (default
	// "vim_reverse_tcp").
	Dataset string `json:"dataset"`
	// Seed is the champion's training seed.
	Seed int64 `json:"seed"`
	// ChallengerSeed trains the promotion challenger (scenarios with a
	// promotion only); it must differ from Seed so the bundles hash to
	// distinct registry entries.
	ChallengerSeed int64 `json:"challenger_seed,omitempty"`
	// BenignEvents, MixedEvents and MaliciousEvents size the training
	// logs (defaults keep training under a couple of seconds).
	BenignEvents    int `json:"benign_events,omitempty"`
	MixedEvents     int `json:"mixed_events,omitempty"`
	MaliciousEvents int `json:"malicious_events,omitempty"`
}

// Scenario is one complete simulation configuration: the cluster shape,
// workload, faults and service model. A scenario plus its seed fully
// determines the run — same scenario, same seed, byte-identical report.
type Scenario struct {
	// Name labels the scenario in reports and in the canonical golden.
	Name string `json:"name"`
	// Seed is the master seed every random stream partitions from.
	Seed int64 `json:"seed"`
	// Replicas is how many in-process serve replicas the fleet runs.
	Replicas int `json:"replicas"`
	// DurationSec is the arrival window in virtual seconds: sessions
	// stop arriving at this time and the simulation drains the tail.
	DurationSec float64 `json:"duration_sec"`
	// Arrival is the session arrival process.
	Arrival ArrivalConfig `json:"arrival"`
	// Lifetime is the per-session event-count distribution.
	Lifetime LifetimeConfig `json:"lifetime"`
	// Mix is the weighted set of session templates.
	Mix []MixEntry `json:"mix"`
	// BatchEvents is how many events one ingest batch carries.
	BatchEvents int `json:"batch_events"`
	// BatchIntervalMS is the virtual pacing between a session's batches,
	// in milliseconds.
	BatchIntervalMS float64 `json:"batch_interval_ms"`
	// Service is the replica service-time model.
	Service ServiceConfig `json:"service"`
	// Routed runs the fleet behind a real fleet.Router: sessions shard
	// by consistent hash on the session name instead of round-robin
	// pinning, every batch traverses the router's forwarding path, each
	// replica serves from its own registry store replicated from the
	// run's primary, and promotions propagate through registry sync. The
	// verdict checksum must match the same workload unrouted — routing
	// is a placement concern and may never change what is scored.
	Routed bool `json:"routed,omitempty"`
	// Faults is the crash/restore schedule, possibly empty.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Drains is the routed-mode ring-change schedule (drain + rejoin via
	// checkpoint handoff); requires Routed.
	Drains []DrainSpec `json:"drains,omitempty"`
	// Promotion, when set, schedules a mid-traffic registry promotion.
	Promotion *PromotionSpec `json:"promotion,omitempty"`
	// Model configures the served bundle(s).
	Model ModelConfig `json:"model"`
}

// secNS converts virtual seconds to virtual nanoseconds.
func secNS(s float64) int64 { return int64(s * 1e9) }

// withDefaults fills unset scenario knobs with the simulator defaults.
func (sc Scenario) withDefaults() Scenario {
	if sc.Replicas <= 0 {
		sc.Replicas = 1
	}
	if sc.BatchEvents <= 0 {
		sc.BatchEvents = 10
	}
	if sc.BatchIntervalMS <= 0 {
		sc.BatchIntervalMS = 100
	}
	if sc.Service.PerEventMicros <= 0 {
		sc.Service.PerEventMicros = 150
	}
	if sc.Service.BatchOverheadMicros <= 0 {
		sc.Service.BatchOverheadMicros = 500
	}
	if sc.Lifetime.Dist == "" {
		sc.Lifetime.Dist = "fixed"
	}
	if sc.Lifetime.MaxEvents == 0 {
		sc.Lifetime.MaxEvents = sc.Lifetime.MinEvents
	}
	if sc.Arrival.Process == "" {
		sc.Arrival.Process = "poisson"
	}
	if sc.Model.Dataset == "" {
		sc.Model.Dataset = "vim_reverse_tcp"
	}
	if sc.Model.Seed == 0 {
		sc.Model.Seed = 7
	}
	if sc.Model.BenignEvents == 0 {
		sc.Model.BenignEvents = 4000
	}
	if sc.Model.MixedEvents == 0 {
		sc.Model.MixedEvents = 2000
	}
	if sc.Model.MaliciousEvents == 0 {
		sc.Model.MaliciousEvents = 1000
	}
	if len(sc.Mix) == 0 {
		sc.Mix = []MixEntry{{App: "vim", Weight: 4}, {App: "vim", Payload: "reverse_tcp", Method: "online-injection", PayloadFraction: 0.3, Weight: 1}}
	}
	return sc
}

// attackMethods maps scenario method names onto appsim.
var attackMethods = map[string]appsim.AttackMethod{
	"offline-infection": appsim.MethodOfflineInfection,
	"online-injection":  appsim.MethodOnlineInjection,
}

// Validate checks the scenario (after defaulting) for structural errors.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("sim: scenario has no name")
	}
	if sc.DurationSec <= 0 {
		return fmt.Errorf("sim: scenario %q: duration_sec must be positive", sc.Name)
	}
	switch sc.Arrival.Process {
	case "poisson":
	case "bursty":
		if sc.Arrival.OnSec <= 0 || sc.Arrival.OffSec <= 0 {
			return fmt.Errorf("sim: scenario %q: bursty arrivals need positive on_sec and off_sec", sc.Name)
		}
		if sc.Arrival.BurstFactor <= 1 {
			return fmt.Errorf("sim: scenario %q: bursty arrivals need burst_factor > 1", sc.Name)
		}
	default:
		return fmt.Errorf("sim: scenario %q: unknown arrival process %q (want poisson or bursty)", sc.Name, sc.Arrival.Process)
	}
	if sc.Arrival.RatePerSec <= 0 {
		return fmt.Errorf("sim: scenario %q: arrival rate_per_sec must be positive", sc.Name)
	}
	switch sc.Lifetime.Dist {
	case "fixed", "uniform":
	default:
		return fmt.Errorf("sim: scenario %q: unknown lifetime dist %q (want fixed or uniform)", sc.Name, sc.Lifetime.Dist)
	}
	if sc.Lifetime.MinEvents <= 0 || sc.Lifetime.MaxEvents < sc.Lifetime.MinEvents {
		return fmt.Errorf("sim: scenario %q: lifetime events range [%d,%d] invalid", sc.Name, sc.Lifetime.MinEvents, sc.Lifetime.MaxEvents)
	}
	for i, m := range sc.Mix {
		if _, err := appsim.AppProfile(m.App); err != nil {
			return fmt.Errorf("sim: scenario %q: mix[%d]: %w", sc.Name, i, err)
		}
		if m.Weight <= 0 {
			return fmt.Errorf("sim: scenario %q: mix[%d] weight must be positive", sc.Name, i)
		}
		if m.Payload != "" {
			if _, err := appsim.PayloadProfile(m.Payload); err != nil {
				return fmt.Errorf("sim: scenario %q: mix[%d]: %w", sc.Name, i, err)
			}
			method := m.Method
			if method == "" {
				method = "online-injection"
			}
			if _, ok := attackMethods[method]; !ok {
				return fmt.Errorf("sim: scenario %q: mix[%d]: unknown attack method %q", sc.Name, i, method)
			}
			if m.PayloadFraction <= 0 || m.PayloadFraction > 1 {
				return fmt.Errorf("sim: scenario %q: mix[%d]: payload_fraction %v out of (0,1]", sc.Name, i, m.PayloadFraction)
			}
		} else if m.Method != "" {
			return fmt.Errorf("sim: scenario %q: mix[%d]: method set without a payload", sc.Name, i)
		}
	}
	for i, f := range sc.Faults {
		if f.Replica < -1 || f.Replica >= sc.Replicas {
			return fmt.Errorf("sim: scenario %q: faults[%d]: replica %d out of range (have %d replicas, -1 = all)", sc.Name, i, f.Replica, sc.Replicas)
		}
		if f.AtSec <= 0 || f.DownSec <= 0 {
			return fmt.Errorf("sim: scenario %q: faults[%d]: at_sec and down_sec must be positive", sc.Name, i)
		}
		switch f.Kind {
		case "sigterm", "kill":
		default:
			return fmt.Errorf("sim: scenario %q: faults[%d]: unknown kind %q (want sigterm or kill)", sc.Name, i, f.Kind)
		}
	}
	if len(sc.Drains) > 0 && !sc.Routed {
		return fmt.Errorf("sim: scenario %q: drains require routed mode", sc.Name)
	}
	if sc.Routed && len(sc.Faults) > 0 {
		return fmt.Errorf("sim: scenario %q: routed mode and faults are mutually exclusive (a crash bypasses the router's ownership table; use drains)", sc.Name)
	}
	for i, d := range sc.Drains {
		if d.Replica < 0 || d.Replica >= sc.Replicas {
			return fmt.Errorf("sim: scenario %q: drains[%d]: replica %d out of range (have %d replicas)", sc.Name, i, d.Replica, sc.Replicas)
		}
		if d.AtSec <= 0 || d.RejoinSec < 0 {
			return fmt.Errorf("sim: scenario %q: drains[%d]: at_sec must be positive and rejoin_sec non-negative", sc.Name, i)
		}
	}
	if sc.Routed && sc.Replicas < 2 {
		return fmt.Errorf("sim: scenario %q: routed mode needs at least 2 replicas", sc.Name)
	}
	if sc.Promotion != nil {
		if sc.Promotion.AtSec <= 0 {
			return fmt.Errorf("sim: scenario %q: promotion at_sec must be positive", sc.Name)
		}
		if sc.Model.ChallengerSeed == 0 || sc.Model.ChallengerSeed == sc.Model.Seed {
			return fmt.Errorf("sim: scenario %q: promotion needs model.challenger_seed distinct from model.seed", sc.Name)
		}
	}
	if _, err := dataset.ByName(sc.Model.Dataset); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	return nil
}

// ParseScenario decodes a scenario JSON document, applies defaults and
// validates it. Unknown fields are rejected so a typo'd knob fails loud
// instead of silently simulating something else.
func ParseScenario(blob []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("sim: decoding scenario: %w", err)
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (Scenario, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("sim: %w", err)
	}
	sc, err := ParseScenario(blob)
	if err != nil {
		return Scenario{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	return sc, nil
}

// Canonical returns the pinned scenario catalog from EXPERIMENTS.md: the
// named workloads (and their seeds) whose full reports
// TestCanonicalGolden holds byte for byte to testdata/canonical.golden.json,
// so simulator numbers stay comparable across changes. Mutating a
// canonical scenario's shape or seed fails that test, whose output is
// the golden to commit once the change is deliberate.
func Canonical() []Scenario {
	mix := []MixEntry{
		{App: "vim", Weight: 3},
		{App: "putty", Weight: 2},
		{App: "vim", Payload: "reverse_tcp", Method: "online-injection", PayloadFraction: 0.3, Weight: 1},
	}
	base := Scenario{
		Replicas:    2,
		DurationSec: 30,
		Arrival:     ArrivalConfig{Process: "poisson", RatePerSec: 6},
		Lifetime:    LifetimeConfig{Dist: "uniform", MinEvents: 40, MaxEvents: 80},
		Mix:         mix,
		BatchEvents: 10, BatchIntervalMS: 250,
		Service: ServiceConfig{PerEventMicros: 150, BatchOverheadMicros: 500, JitterFrac: 0.2},
		Model:   ModelConfig{Dataset: "vim_reverse_tcp", Seed: 7},
	}
	steady := base
	steady.Name, steady.Seed = "steady-state", 1101

	burst := base
	burst.Name, burst.Seed = "burst", 1102
	burst.Arrival = ArrivalConfig{Process: "bursty", RatePerSec: 4, BurstFactor: 8, OnSec: 3, OffSec: 7}

	churn := base
	churn.Name, churn.Seed = "churn", 1103
	churn.Faults = []FaultSpec{
		{Replica: 0, AtSec: 8, DownSec: 3, Kind: "sigterm"},
		{Replica: 1, AtSec: 14, DownSec: 3, Kind: "kill"},
		{Replica: 0, AtSec: 22, DownSec: 2, Kind: "sigterm"},
	}

	promote := base
	promote.Name, promote.Seed = "promote-under-load", 1104
	promote.Promotion = &PromotionSpec{AtSec: 15}
	promote.Model.ChallengerSeed = 11

	storm := base
	storm.Name, storm.Seed = "restore-storm", 1105
	storm.Replicas = 3
	storm.Faults = []FaultSpec{{Replica: -1, AtSec: 12, DownSec: 5, Kind: "sigterm"}}

	routedSteady := base
	routedSteady.Name, routedSteady.Seed = "routed-steady", 1106
	routedSteady.Routed = true
	routedSteady.Replicas = 3

	routedRebalance := base
	routedRebalance.Name, routedRebalance.Seed = "routed-rebalance", 1107
	routedRebalance.Routed = true
	routedRebalance.Replicas = 3
	routedRebalance.Drains = []DrainSpec{{Replica: 1, AtSec: 10, RejoinSec: 10}}
	routedRebalance.Promotion = &PromotionSpec{AtSec: 15}
	routedRebalance.Model.ChallengerSeed = 11

	out := []Scenario{steady, burst, churn, promote, storm, routedSteady, routedRebalance}
	for i := range out {
		out[i] = out[i].withDefaults()
	}
	return out
}

// CanonicalByName returns the named canonical scenario.
func CanonicalByName(name string) (Scenario, error) {
	for _, sc := range Canonical() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("sim: unknown canonical scenario %q", name)
}
