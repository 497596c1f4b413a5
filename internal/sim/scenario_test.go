package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// validScenarioJSON is a minimal well-formed scenario document.
const validScenarioJSON = `{
  "name": "t",
  "seed": 1,
  "replicas": 2,
  "duration_sec": 5,
  "arrival": {"process": "poisson", "rate_per_sec": 2},
  "lifetime": {"dist": "uniform", "min_events": 20, "max_events": 40},
  "mix": [{"app": "vim", "weight": 1}],
  "batch_events": 10,
  "batch_interval_ms": 100,
  "service": {"per_event_micros": 100, "batch_overhead_micros": 200}
}`

func TestParseScenarioRoundTrip(t *testing.T) {
	sc, err := ParseScenario([]byte(validScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := ParseScenario(blob)
	if err != nil {
		t.Fatalf("re-parsing a marshalled scenario: %v", err)
	}
	if sc2.Name != sc.Name || sc2.Seed != sc.Seed || sc2.Replicas != sc.Replicas ||
		sc2.Lifetime != sc.Lifetime || sc2.Arrival != sc.Arrival || sc2.Service != sc.Service {
		t.Fatalf("round trip changed the scenario: %+v vs %+v", sc2, sc)
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	blob := strings.Replace(validScenarioJSON, `"seed": 1,`, `"seed": 1, "sede": 2,`, 1)
	if _, err := ParseScenario([]byte(blob)); err == nil {
		t.Fatal("typo'd field was accepted silently")
	}
}

// FuzzParseScenario: ParseScenario never panics, and a scenario it
// accepts is a fixed point of marshal and re-parse, so defaults applied
// once stay applied and validation accepts what it let through.
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(validScenarioJSON))
	f.Add([]byte(strings.Replace(validScenarioJSON, `"seed": 1,`, `"seed": 1, "sede": 2,`, 1)))
	for _, sc := range Canonical() {
		blob, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		sc, err := ParseScenario(blob)
		if err != nil {
			return
		}
		first, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("marshalling an accepted scenario: %v", err)
		}
		sc2, err := ParseScenario(first)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", first, err)
		}
		second, err := json.Marshal(sc2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal and re-parse is not a fixed point:\n%s\n%s", first, second)
		}
	})
}

func TestParseScenarioDefaults(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"name": "d", "seed": 1, "duration_sec": 5,
		"arrival": {"rate_per_sec": 1}, "lifetime": {"min_events": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Replicas != 1 || sc.BatchEvents != 10 || sc.Arrival.Process != "poisson" ||
		sc.Lifetime.Dist != "fixed" || sc.Lifetime.MaxEvents != 10 ||
		sc.Model.Dataset != "vim_reverse_tcp" || len(sc.Mix) == 0 {
		t.Fatalf("defaults not applied: %+v", sc)
	}
}

// TestScenarioValidation walks the validator's error cases.
func TestScenarioValidation(t *testing.T) {
	base := func() Scenario {
		sc, err := ParseScenario([]byte(validScenarioJSON))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		substr string
	}{
		{"no name", func(sc *Scenario) { sc.Name = "" }, "no name"},
		{"bad duration", func(sc *Scenario) { sc.DurationSec = 0 }, "duration_sec"},
		{"bad arrival process", func(sc *Scenario) { sc.Arrival.Process = "constant" }, "arrival process"},
		{"bursty without phases", func(sc *Scenario) { sc.Arrival.Process = "bursty"; sc.Arrival.BurstFactor = 4 }, "on_sec"},
		{"bursty without factor", func(sc *Scenario) {
			sc.Arrival.Process = "bursty"
			sc.Arrival.OnSec, sc.Arrival.OffSec = 1, 1
		}, "burst_factor"},
		{"bad lifetime dist", func(sc *Scenario) { sc.Lifetime.Dist = "zipf" }, "lifetime dist"},
		{"inverted lifetime", func(sc *Scenario) { sc.Lifetime.MaxEvents = 5 }, "invalid"},
		{"unknown app", func(sc *Scenario) { sc.Mix[0].App = "emacs" }, "emacs"},
		{"zero weight", func(sc *Scenario) { sc.Mix[0].Weight = 0 }, "weight"},
		{"unknown payload", func(sc *Scenario) {
			sc.Mix[0].Payload = "cryptominer"
			sc.Mix[0].PayloadFraction = 0.5
		}, "cryptominer"},
		{"method without payload", func(sc *Scenario) { sc.Mix[0].Method = "online-injection" }, "without a payload"},
		{"payload without fraction", func(sc *Scenario) { sc.Mix[0].Payload = "reverse_tcp" }, "payload_fraction"},
		{"fault replica out of range", func(sc *Scenario) {
			sc.Faults = []FaultSpec{{Replica: 2, AtSec: 1, DownSec: 1, Kind: "sigterm"}}
		}, "out of range"},
		{"bad fault kind", func(sc *Scenario) {
			sc.Faults = []FaultSpec{{Replica: 0, AtSec: 1, DownSec: 1, Kind: "sigkill9"}}
		}, "kind"},
		{"promotion without challenger", func(sc *Scenario) { sc.Promotion = &PromotionSpec{AtSec: 2} }, "challenger_seed"},
		{"unknown dataset", func(sc *Scenario) { sc.Model.Dataset = "nope" }, "nope"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validation passed, want error containing %q", tc.name, tc.substr)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}

// TestCanonicalCatalog proves every canonical scenario validates, the
// names are unique, and the catalog covers the documented matrix:
// bursty arrivals, both crash kinds, and a promotion.
func TestCanonicalCatalog(t *testing.T) {
	scs := Canonical()
	if len(scs) != 7 {
		t.Fatalf("catalog has %d scenarios, want 7", len(scs))
	}
	seen := map[string]bool{}
	seeds := map[int64]bool{}
	var bursty, sigterm, kill, promotion, routed, drained bool
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			t.Errorf("canonical %s invalid: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate canonical name %s", sc.Name)
		}
		if seeds[sc.Seed] {
			t.Errorf("duplicate canonical seed %d", sc.Seed)
		}
		seen[sc.Name], seeds[sc.Seed] = true, true
		bursty = bursty || sc.Arrival.Process == "bursty"
		promotion = promotion || sc.Promotion != nil
		routed = routed || sc.Routed
		drained = drained || len(sc.Drains) > 0
		for _, f := range sc.Faults {
			sigterm = sigterm || f.Kind == "sigterm"
			kill = kill || f.Kind == "kill"
		}
	}
	if !bursty || !sigterm || !kill || !promotion || !routed || !drained {
		t.Fatalf("catalog coverage: bursty=%v sigterm=%v kill=%v promotion=%v routed=%v drained=%v, want all true",
			bursty, sigterm, kill, promotion, routed, drained)
	}
	if _, err := CanonicalByName("steady-state"); err != nil {
		t.Fatal(err)
	}
	if _, err := CanonicalByName("no-such"); err == nil {
		t.Fatal("unknown canonical name accepted")
	}
}
