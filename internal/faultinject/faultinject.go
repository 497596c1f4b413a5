// Package faultinject mutates serialized raw event-trace-log streams
// with deterministic, seedable faults — the corruption patterns a real
// capture pipeline produces (dropped or duplicated records, flipped
// bits, garbage bursts, truncated files) plus what an adversary aware
// of the parser would feed it. It exists so the robustness of the
// lenient ETL parser and the streaming detector can be exercised
// reproducibly, both in tests and end-to-end via `leaps-trace -inject`.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/etl"
)

// Fault names one corruption pattern.
type Fault string

// The supported fault kinds.
const (
	// BitFlip flips one random bit inside a record's body.
	BitFlip Fault = "bitflip"
	// DropRecord removes a whole record from the stream (a capture
	// drop; dropped stack records orphan their events).
	DropRecord Fault = "drop"
	// DupStack duplicates a stack record (the duplicate arrives with no
	// pending event and must be discarded as an orphan).
	DupStack Fault = "dupstack"
	// Garbage inserts a short burst of random bytes between records.
	Garbage Fault = "garbage"
	// Truncate cuts the tail of the stream, possibly mid-record.
	Truncate Fault = "truncate"
)

// faultOrder fixes the application order so a Config is deterministic
// regardless of how its Specs slice was assembled.
var faultOrder = []Fault{DropRecord, DupStack, BitFlip, Garbage, Truncate}

// DefaultRate is the per-record fault probability when a spec omits it.
const DefaultRate = 0.05

// Spec is one fault with its rate. For record-level faults the rate is
// the per-record probability of injection; for Truncate it is the
// maximum fraction of the stream removed.
type Spec struct {
	Fault Fault
	Rate  float64
}

// Config selects the faults to inject and the randomness seed.
type Config struct {
	// Seed drives every random choice; identical (data, Config) pairs
	// produce identical output.
	Seed int64
	// Specs are the faults to apply. An empty list applies every
	// record-level fault at DefaultRate.
	Specs []Spec
}

// Report summarises what an injection did.
type Report struct {
	// Records is how many records the input stream held.
	Records int
	// Counts tallies injections per fault.
	Counts map[Fault]int
	// BytesIn and BytesOut are the stream sizes before and after.
	BytesIn, BytesOut int
}

// Total returns the number of injected faults.
func (r Report) Total() int {
	var n int
	for _, c := range r.Counts {
		n += c
	}
	return n
}

func (r Report) String() string {
	parts := make([]string, 0, len(r.Counts))
	for _, f := range faultOrder {
		if c := r.Counts[f]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", f, c))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "none")
	}
	return fmt.Sprintf("%s over %d records (%d → %d bytes)",
		strings.Join(parts, " "), r.Records, r.BytesIn, r.BytesOut)
}

// Inject applies the configured faults to a serialized stream and
// returns the mutated copy. The input must be a structurally valid
// stream (it is scanned record by record); the output usually is not —
// that is the point.
func Inject(data []byte, cfg Config) ([]byte, Report, error) {
	rep := Report{Counts: make(map[Fault]int), BytesIn: len(data)}
	specs, err := normalize(cfg.Specs)
	if err != nil {
		return nil, rep, err
	}
	spans, err := etl.ScanRecords(data)
	if err != nil {
		return nil, rep, fmt.Errorf("faultinject: input stream invalid: %w", err)
	}
	rep.Records = len(spans)
	rng := rand.New(rand.NewSource(cfg.Seed))

	out := make([]byte, 0, len(data)+64)
	out = append(out, data[:etl.HeaderLen]...)
	for _, sp := range spans {
		rec := data[sp.Offset : sp.Offset+int64(sp.Len)]
		// Process records are never faulted: corrupting one loses the
		// whole process (the format keeps no second copy of a module
		// map), a catastrophic failure rather than noisy capture.
		if sp.Tag == etl.TagEnd || sp.Tag == etl.TagProcess {
			out = append(out, rec...)
			continue
		}
		dropped := false
		for _, spec := range specs {
			switch spec.Fault {
			case DropRecord:
				if !dropped && rng.Float64() < spec.Rate {
					dropped = true
					rep.Counts[DropRecord]++
				}
			case DupStack:
				if sp.Tag == etl.TagStack && rng.Float64() < spec.Rate {
					out = append(out, rec...)
					rep.Counts[DupStack]++
				}
			case BitFlip:
				if rng.Float64() < spec.Rate {
					mut := append([]byte(nil), rec...)
					mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
					rec = mut
					rep.Counts[BitFlip]++
				}
			case Garbage:
				if rng.Float64() < spec.Rate {
					n := 1 + rng.Intn(16)
					for i := 0; i < n; i++ {
						out = append(out, byte(rng.Intn(256)))
					}
					rep.Counts[Garbage]++
				}
			}
		}
		if !dropped {
			out = append(out, rec...)
		}
	}
	for _, spec := range specs {
		if spec.Fault != Truncate {
			continue
		}
		cut := int(rng.Float64() * spec.Rate * float64(len(out)))
		if cut > 0 && cut < len(out) {
			out = out[:len(out)-cut]
			rep.Counts[Truncate]++
		}
	}
	rep.BytesOut = len(out)
	return out, rep, nil
}

// normalize validates the specs and orders them canonically.
func normalize(specs []Spec) ([]Spec, error) {
	if len(specs) == 0 {
		specs = []Spec{
			{BitFlip, DefaultRate},
			{DropRecord, DefaultRate},
			{DupStack, DefaultRate},
			{Garbage, DefaultRate},
		}
	}
	rank := make(map[Fault]int, len(faultOrder))
	for i, f := range faultOrder {
		rank[f] = i
	}
	out := make([]Spec, 0, len(specs))
	seen := make(map[Fault]bool)
	for _, s := range specs {
		if _, known := rank[s.Fault]; !known {
			return nil, fmt.Errorf("faultinject: unknown fault %q", s.Fault)
		}
		if seen[s.Fault] {
			return nil, fmt.Errorf("faultinject: fault %q specified twice", s.Fault)
		}
		seen[s.Fault] = true
		if s.Rate == 0 {
			s.Rate = DefaultRate
		}
		if s.Rate < 0 || s.Rate > 1 {
			return nil, fmt.Errorf("faultinject: rate %v for %q out of [0,1]", s.Rate, s.Fault)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return rank[out[i].Fault] < rank[out[j].Fault] })
	return out, nil
}

// ParseSpecs parses a CLI fault specification: a comma-separated list
// of faults, each optionally followed by a colon and a rate, e.g.
// "bitflip:0.05,drop:0.02" or just "bitflip,garbage".
func ParseSpecs(s string) ([]Spec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("faultinject: empty fault spec")
	}
	var specs []Spec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rateStr, hasRate := strings.Cut(part, ":")
		spec := Spec{Fault: Fault(strings.TrimSpace(name))}
		if hasRate {
			r, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad rate in %q: %v", part, err)
			}
			spec.Rate = r
		}
		specs = append(specs, spec)
	}
	// Validate eagerly so CLI users get errors at flag-parse time.
	if _, err := normalize(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// Corpus generates n single-fault mutants of a valid stream, cycling
// through the fault kinds — seed material for fuzzing the parser.
func Corpus(data []byte, seed int64, n int) ([][]byte, error) {
	kinds := faultOrder
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		spec := Spec{Fault: kinds[i%len(kinds)], Rate: 0.1}
		mut, _, err := Inject(data, Config{Seed: seed + int64(i), Specs: []Spec{spec}})
		if err != nil {
			return nil, err
		}
		out = append(out, mut)
	}
	return out, nil
}
