package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at smoke-test size on the same code
// paths as the real benchmark, untraced and traced, with the output
// checks on.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"ingest", "offline", "train"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl, seed: 3, rounds: 2, trace: traced, workdir: t.TempDir(), small: true}
			res, st, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			if st.Digest == "" || st.Ops == 0 {
				t.Errorf("%s trace=%v: stamp %+v", wl, traced, st)
			}
			t.Logf("%s trace=%v: %+v", wl, traced, res.Metrics)
		}
	}
}

// TestSmokeRepeats checks that counts, verdict quality and the output
// digest (verdicts, detections, published entry IDs) repeat exactly for a
// given seed.
func TestSmokeRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, wl := range []string{"ingest", "offline", "train"} {
		var first *result
		var firstDigest string
		for i := 0; i < 2; i++ {
			res, st, err := run(options{workload: wl, seed: 5, rounds: 1, workdir: t.TempDir(), small: true})
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			if first == nil {
				first, firstDigest = res, st.Digest
				continue
			}
			for _, k := range []string{"window_tpr", "window_tnr"} {
				if res.Metrics[k] != first.Metrics[k] {
					t.Errorf("%s %s: %v then %v", wl, k, first.Metrics[k], res.Metrics[k])
				}
			}
			if res.Attempted != first.Attempted || st.Digest != firstDigest {
				t.Errorf("%s: attempted %d then %d, digest %s then %s", wl, first.Attempted, res.Attempted, firstDigest, st.Digest)
			}
		}
	}
}

// TestBenchmarkManifest checks BENCHMARK.json names exactly the metrics
// this program reports, with the same units.
func TestBenchmarkManifest(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []named
	}{{man.EndToEnd, endToEnd}, {man.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.got), len(c.want))
		}
		for i, w := range c.want {
			if c.got[i].Name != w.name || c.got[i].Unit != w.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], program %s [%s]", i, c.got[i].Name, c.got[i].Unit, w.name, w.unit)
			}
		}
	}
}
