// Package preprocess implements the paper's Data Preprocessing Module: it
// turns partitioned system events into discretised 3-tuple features
// {Event_Type, Lib, Func}, where Lib and Func are hierarchical-clustering
// cluster ids of the event's library set and function set (Jaccard set
// dissimilarity, UPGMA linkage), and coalesces consecutive tuples into
// higher-dimensional data points for the statistical learning model.
package preprocess

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/hcluster"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// Preprocessing telemetry: how many events were discretised, how many
// windows the coalescer produced (the statistical model's sample count),
// and the learned cluster-space sizes.
var (
	mFitEvents     = telemetry.NewCounter("preprocess_fit_events_total", "events the feature encoder was fitted on")
	mEncodedEvents = telemetry.NewCounter("preprocess_encoded_events_total", "events discretised into 3-tuples")
	mWindows       = telemetry.NewCounter("preprocess_windows_total", "coalesced windows produced")
	mTailDropped   = telemetry.NewCounter("preprocess_tail_events_total", "events dropped in trailing partial windows")
	mLibClusters   = telemetry.NewGauge("preprocess_lib_clusters", "library-set clusters in the last fitted encoder")
	mFuncClusters  = telemetry.NewGauge("preprocess_func_clusters", "function-set clusters in the last fitted encoder")
)

// Tuple is the discretised form of one system event.
type Tuple struct {
	// EventType is the integer event type (well-defined in the system, so
	// mapped directly to the integer space).
	EventType int
	// Lib is the cluster id of the event's library set.
	Lib int
	// Func is the cluster id of the event's function set.
	Func int
}

// Config controls feature extraction.
type Config struct {
	// Linkage is the clustering criterion; the zero value selects UPGMA
	// (average linkage), the paper's choice.
	Linkage hcluster.Linkage
	// LibCut and FuncCut are the dendrogram cut thresholds on Jaccard
	// dissimilarity for the library-set and function-set clusterings.
	// Zero values default to 0.5: sets sharing at least half their
	// elements (on average) group together.
	LibCut  float64
	FuncCut float64
}

func (c Config) withDefaults() Config {
	if c.Linkage == 0 {
		c.Linkage = hcluster.Average
	}
	if c.LibCut == 0 {
		c.LibCut = 0.5
	}
	if c.FuncCut == 0 {
		c.FuncCut = 0.5
	}
	return c
}

// Encoder is a fitted feature extractor: the cluster models for library
// and function sets, learned on training events and reusable on unseen
// testing events.
type Encoder struct {
	cfg  Config
	libs *setClusters
	fns  *setClusters
}

// Fit learns the library/function clusterings from training events, which
// should cover both the benign and the mixed training logs so cluster ids
// are consistent across them.
func Fit(events []partition.Event, cfg Config) (*Encoder, error) {
	return FitContext(context.Background(), []*partition.Log{{Events: events}}, cfg)
}

// FitContext is Fit over the events of several partitioned logs, in
// order, with a caller-supplied context so the fit's telemetry span
// nests under the caller's span tree. An event's library and function
// sets depend on its stack walk alone, so the sets are built once per
// distinct walk of each log, in first-occurrence order; the clustering
// deduplicates sets in that order and ignores how often each occurs, so
// the encoder equals one fitted on every event.
func FitContext(ctx context.Context, logs []*partition.Log, cfg Config) (*Encoder, error) {
	var events int
	for _, l := range logs {
		events += l.Len()
	}
	if events == 0 {
		return nil, errors.New("preprocess: no events to fit on")
	}
	_, sp := telemetry.StartSpan(ctx, "preprocess")
	defer sp.End()
	cfg = cfg.withDefaults()
	var s Scratch
	var libSets, fnSets [][]string
	for _, l := range logs {
		for w := 0; w < l.NumWalks(); w++ {
			e := &l.Events[l.FirstOf(w)]
			libSets = append(libSets, slices.Clone(s.libNames(e)))
			fnSets = append(fnSets, slices.Clone(s.funcNames(e)))
		}
	}
	libs, err := clusterSets(libSets, cfg.Linkage, cfg.LibCut)
	if err != nil {
		return nil, fmt.Errorf("preprocess: clustering library sets: %w", err)
	}
	fns, err := clusterSets(fnSets, cfg.Linkage, cfg.FuncCut)
	if err != nil {
		return nil, fmt.Errorf("preprocess: clustering function sets: %w", err)
	}
	mFitEvents.Add(uint64(events))
	mLibClusters.Set(float64(libs.numClusters))
	mFuncClusters.Set(float64(fns.numClusters))
	return &Encoder{cfg: cfg, libs: libs, fns: fns}, nil
}

// NumLibClusters returns how many library-set clusters were learned.
func (enc *Encoder) NumLibClusters() int { return enc.libs.numClusters }

// NumFuncClusters returns how many function-set clusters were learned.
func (enc *Encoder) NumFuncClusters() int { return enc.fns.numClusters }

// Scratch is the reusable working memory of the encode path: the
// distinct-name buffer, the set-key buffer and the interned
// module-qualified function names. The zero value is ready to use. A
// Scratch belongs to one goroutine at a time; the Encoder itself stays
// immutable and safe for concurrent use.
type Scratch struct {
	names []string
	key   []byte
	qual  map[qualName]string
}

type qualName struct{ module, function string }

// qualified returns the interned "module!function" string for a frame,
// concatenating only the first time a pair is seen.
func (s *Scratch) qualified(module, function string) string {
	if s.qual == nil {
		s.qual = make(map[qualName]string)
	}
	k := qualName{module, function}
	if q, ok := s.qual[k]; ok {
		return q
	}
	q := module + "!" + function
	s.qual[k] = q
	return q
}

// appendDistinct appends name unless present. Linear scan: stack-walk
// name sets are tiny (bounded by stack depth, typically a handful).
func appendDistinct(names []string, name string) []string {
	for _, n := range names {
		if n == name {
			return names
		}
	}
	return append(names, name)
}

// libNames loads the event's library set into the scratch and returns
// it: the distinct module names of its system stack trace, sorted,
// unresolved frames skipped. It is valid until the scratch's next use.
func (s *Scratch) libNames(e *partition.Event) []string {
	s.names = s.names[:0]
	for _, fr := range e.SysTrace {
		if fr.Module != "" {
			s.names = appendDistinct(s.names, fr.Module)
		}
	}
	slices.Sort(s.names)
	return s.names
}

// funcNames loads the event's function set into the scratch and returns
// it: the distinct module-qualified ("module!function") function names
// of its system stack trace, sorted, frames without a function skipped.
// It is valid until the scratch's next use.
func (s *Scratch) funcNames(e *partition.Event) []string {
	s.names = s.names[:0]
	for _, fr := range e.SysTrace {
		if fr.Function != "" {
			s.names = appendDistinct(s.names, s.qualified(fr.Module, fr.Function))
		}
	}
	slices.Sort(s.names)
	return s.names
}

// EncodeOne discretises one event: its sorted library and function sets
// are built in scratch buffers and matched against the fitted clusters
// without allocating once the scratch is warm. Unseen sets are assigned
// to the nearest learned cluster by Jaccard distance to cluster medoids.
// It does not count the event; see CreditEncoded.
func (enc *Encoder) EncodeOne(s *Scratch, e *partition.Event) Tuple {
	t := Tuple{EventType: int(e.Type)}
	s.libNames(e)
	t.Lib = enc.libs.assignScratch(s)
	s.funcNames(e)
	t.Func = enc.fns.assignScratch(s)
	return t
}

// EncodeBatch is EncodeInto over events that carry no walk index.
func (enc *Encoder) EncodeBatch(dst []Tuple, events []partition.Event, s *Scratch) []Tuple {
	return enc.EncodeInto(dst, &partition.Log{Events: events}, s)
}

// CreditEncoded adds n events to the encoded-events counter. EncodeInto
// credits its own events; EncodeOne does not, so callers that encode one
// event at a time, or memoise tuples, credit every event here.
func CreditEncoded(n int) { mEncodedEvents.Add(uint64(n)) }

// EncodeInto discretises every event of a partitioned log in order,
// appending the tuples to dst (pass dst[:0] to recycle a previous
// batch). EncodeOne runs once per distinct stack walk of the log; every
// later event of a walk takes the {Lib, Func} pair of the walk's first
// event and its own event type. A nil scratch gets a private one for the
// call; passing one in makes repeated batches allocation-free.
func (enc *Encoder) EncodeInto(dst []Tuple, log *partition.Log, s *Scratch) []Tuple {
	if s == nil {
		s = &Scratch{}
	}
	base := len(dst)
	for i := range log.Events {
		e := &log.Events[i]
		if first := log.FirstOf(log.WalkOf(i)); first < i {
			t := dst[base+first]
			t.EventType = int(e.Type)
			dst = append(dst, t)
		} else {
			dst = append(dst, enc.EncodeOne(s, e))
		}
	}
	CreditEncoded(log.Len())
	return dst
}

// EncodeAll discretises every event of a partitioned log, in order. It
// is the allocating convenience wrapper over EncodeInto.
func (enc *Encoder) EncodeAll(log *partition.Log) []Tuple {
	return enc.EncodeInto(make([]Tuple, 0, log.Len()), log, nil)
}

// Coalesce groups consecutive tuples into windows of the given size and
// flattens each window into one (3*window)-dimensional feature vector,
// taking the order of adjacent events into account as in the paper
// (window 10 yields the paper's 30-dimensional data points). The trailing
// partial window is dropped. It returns, alongside the vectors, the index
// of the first event of each window.
func Coalesce(tuples []Tuple, window int) (vecs [][]float64, starts []int, err error) {
	var wb WindowBuf
	if err := CoalesceInto(&wb, tuples, window); err != nil {
		return nil, nil, err
	}
	return wb.Vecs, wb.Starts, nil
}

// WindowBuf is a reusable coalescing buffer. After CoalesceInto, Vecs
// and Starts hold the same windows Coalesce would have returned, with
// every vector sliced out of one shared slab.
//
// Ownership: Vecs and their backing slab are valid until the next
// CoalesceInto on the same buffer; retain windows past that only by
// copying. The vectors are capacity-clipped, so an append by a retainer
// copies out instead of clobbering the slab.
type WindowBuf struct {
	Vecs   [][]float64
	Starts []int
	slab   []float64
}

// CoalesceInto is Coalesce writing into a reusable buffer: one slab
// holds every window vector, so a warm buffer coalesces without
// allocating.
func CoalesceInto(wb *WindowBuf, tuples []Tuple, window int) error {
	if window < 1 {
		return fmt.Errorf("preprocess: window %d must be positive", window)
	}
	n := len(tuples) / window
	wb.Vecs = wb.Vecs[:0]
	wb.Starts = wb.Starts[:0]
	if need := 3 * window * n; cap(wb.slab) < need {
		wb.slab = make([]float64, 0, need)
	}
	wb.slab = wb.slab[:0]
	for w := 0; w < n; w++ {
		start := len(wb.slab)
		for i := w * window; i < (w+1)*window; i++ {
			wb.slab = append(wb.slab, float64(tuples[i].EventType), float64(tuples[i].Lib), float64(tuples[i].Func))
		}
		wb.Vecs = append(wb.Vecs, wb.slab[start:len(wb.slab):len(wb.slab)])
		wb.Starts = append(wb.Starts, w*window)
	}
	mWindows.Add(uint64(n))
	mTailDropped.Add(uint64(len(tuples) - n*window))
	return nil
}

// CreditTail adds n events to the trailing-partial-window counter, for
// callers that window tuples one FlattenWindow at a time instead of
// through CoalesceInto and must still count the tail they drop.
func CreditTail(n int) { mTailDropped.Add(uint64(n)) }

// FlattenWindow flattens exactly one window of tuples into dst (pass
// dst[:0] to reuse it) — the streaming detector's single-window
// counterpart of Coalesce, counted as one coalesced window.
func FlattenWindow(dst []float64, tuples []Tuple) []float64 {
	for i := range tuples {
		dst = append(dst, float64(tuples[i].EventType), float64(tuples[i].Lib), float64(tuples[i].Func))
	}
	mWindows.Inc()
	return dst
}

// Jaccard returns the Jaccard set dissimilarity of two sorted string
// slices: 1 - |a∩b| / |a∪b| (Eqn. 1 of the paper). Two empty sets have
// dissimilarity 0.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	var inter, union int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch strings.Compare(a[i], b[j]) {
		case 0:
			inter++
			union++
			i++
			j++
		case -1:
			union++
			i++
		default:
			union++
			j++
		}
	}
	union += (len(a) - i) + (len(b) - j)
	return 1 - float64(inter)/float64(union)
}

// setClusters is a fitted clustering over unique string sets.
type setClusters struct {
	uniq        [][]string // unique sets in first-seen order
	labels      []int      // cluster label per unique set
	medoids     []int      // index into uniq per cluster
	numClusters int
	keyToLabel  map[string]int
}

// clusterSets deduplicates the observed sets, hierarchically clusters the
// unique ones under Jaccard dissimilarity and records per-cluster medoids
// for assigning unseen sets.
func clusterSets(sets [][]string, linkage hcluster.Linkage, cut float64) (*setClusters, error) {
	sc := &setClusters{keyToLabel: make(map[string]int)}
	seen := make(map[string]bool)
	for _, s := range sets {
		k := setKey(s)
		if !seen[k] {
			seen[k] = true
			sc.uniq = append(sc.uniq, s)
		}
	}
	dm, err := hcluster.NewDistMatrix(len(sc.uniq))
	if err != nil {
		return nil, err
	}
	for i := range sc.uniq {
		for j := i + 1; j < len(sc.uniq); j++ {
			dm.Set(i, j, Jaccard(sc.uniq[i], sc.uniq[j]))
		}
	}
	dend, err := hcluster.Cluster(dm, linkage)
	if err != nil {
		return nil, err
	}
	sc.labels = dend.CutDistance(cut)
	for _, l := range sc.labels {
		if l+1 > sc.numClusters {
			sc.numClusters = l + 1
		}
	}
	for i, s := range sc.uniq {
		sc.keyToLabel[setKey(s)] = sc.labels[i]
	}
	// Medoid of each cluster: the member minimising total dissimilarity
	// to its cluster mates.
	sc.medoids = make([]int, sc.numClusters)
	for c := 0; c < sc.numClusters; c++ {
		best, bestCost := -1, -1.0
		for i := range sc.uniq {
			if sc.labels[i] != c {
				continue
			}
			var cost float64
			for j := range sc.uniq {
				if sc.labels[j] == c {
					cost += Jaccard(sc.uniq[i], sc.uniq[j])
				}
			}
			if best == -1 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		sc.medoids[c] = best
	}
	return sc, nil
}

// assignScratch maps the sorted distinct names sitting in the scratch
// to their cluster id: the set key is built in the scratch's byte
// buffer, and the map probe compiles to an allocation-free string-keyed
// lookup; a set the fit never saw goes to its nearest medoid.
func (sc *setClusters) assignScratch(s *Scratch) int {
	s.key = appendSetKey(s.key[:0], s.names)
	if l, ok := sc.keyToLabel[string(s.key)]; ok {
		return l
	}
	return sc.nearestMedoid(s.names)
}

// nearestMedoid maps an unseen sorted set to the cluster whose medoid
// it is least dissimilar to.
func (sc *setClusters) nearestMedoid(s []string) int {
	best, bestD := 0, 2.0
	for c, mi := range sc.medoids {
		if d := Jaccard(s, sc.uniq[mi]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// appendSetKey appends the map key of a sorted name set to dst: every
// name prefixed by its length, so distinct sets get distinct keys
// whatever bytes the names hold.
func appendSetKey(dst []byte, names []string) []byte {
	for _, n := range names {
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
	}
	return dst
}

// setKey returns the map key of a sorted name set.
func setKey(names []string) string { return string(appendSetKey(nil, names)) }
