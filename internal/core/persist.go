package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/callgraph"
	"repro/internal/preprocess"
	"repro/internal/svm"
)

// Bundle format v3 is the one on-disk form of a trained classifier. It
// is little-endian: every integer is a uvarint, every float an IEEE-754
// float64 in 8 bytes, every string a uvarint length and its bytes, and a
// section a uvarint byte length and its bytes.
//
//	bundle      "LEAPS-MODEL" | version 3 | window | statistics section | call-graph section
//	statistics  λ | Platt flag 0 or 1 | Platt A | B (flag 1 only)
//	            library clusters | function clusters
//	            scaler: d | d minima | d maxima
//	            kernel: kind 1 linear, 2 RBF | σ², 3 polynomial | degree | γ | coef0
//	            n | dim | n·dim support-vector coordinates, row-major | n coefficients | bias
//	clusters    s | s sets, each a count and its names | s labels | k | k medoids
//	call graph  BCG edges | MCG edges, each a count and its (caller | callee) pairs, sorted
//
// Equal models encode to equal bytes in every process. The decoder
// checks every count against the bytes left before it allocates. A
// statistical section that does not decode, or whose classifier fails
// Classifier.check, degrades LoadMonitor to the call graph, or makes the
// bundle unusable when the call graph holds no edges; a bundle whose
// header, framing or call-graph section does not decode, or with bytes
// after the call-graph section, is malformed.
const (
	bundleMagic   = "LEAPS-MODEL"
	bundleVersion = 3
)

// Kernel kinds of the statistical section.
const (
	kernelLinear = 1
	kernelRBF    = 2
	kernelPoly   = 3
)

// errBundleFormat is the one error for bytes that are not a v3 bundle,
// such as the gob bundles of earlier builds.
var errBundleFormat = fmt.Errorf("core: not a LEAPS model bundle of format v%d; retrain the model with this build", bundleVersion)

// Save serialises the trained classifier so a later process can run the
// testing phase without retraining. A classifier without a call graph,
// such as the universal one, bundles an empty graph.
func (c *Classifier) Save(w io.Writer) error {
	stats, err := c.appendStats(nil)
	if err != nil {
		return err
	}
	if _, err := w.Write(appendBundle(c.window, stats, appendCallGraph(nil, c.cg))); err != nil {
		return fmt.Errorf("core: writing bundle: %w", err)
	}
	return nil
}

// appendBundle frames a bundle around its two sections.
func appendBundle(window int, stats, cg []byte) []byte {
	b := appendUint(appendUint([]byte(bundleMagic), bundleVersion), window)
	return appendSection(appendSection(b, stats), cg)
}

// appendStats appends the statistical section's contents.
func (c *Classifier) appendStats(b []byte) ([]byte, error) {
	b = appendFloat(b, c.params.Lambda)
	if p := c.platt; p != nil {
		b = appendFloat(appendFloat(appendUint(b, 1), p.A), p.B)
	} else {
		b = appendUint(b, 0)
	}
	libs, fns := c.enc.Clusters()
	b = appendClusters(appendClusters(b, libs), fns)
	lo, hi := c.scaler.Bounds()
	b = appendFloats(appendFloats(appendUint(b, len(lo)), lo), hi)
	switch k := c.model.Kernel().(type) {
	case svm.LinearKernel:
		b = appendUint(b, kernelLinear)
	case svm.RBFKernel:
		b = appendFloat(appendUint(b, kernelRBF), k.Sigma2)
	case svm.PolyKernel:
		b = appendFloat(appendFloat(appendUint(appendUint(b, kernelPoly), k.Degree), k.Gamma), k.Coef0)
	default:
		return nil, fmt.Errorf("core: kernel %T cannot be saved", k)
	}
	sv, dim := c.model.SupportVectors()
	coef := c.model.Coef()
	b = appendFloats(appendUint(appendUint(b, len(coef)), dim), sv)
	return appendFloat(appendFloats(b, coef), c.model.Bias()), nil
}

func appendClusters(b []byte, c *preprocess.Clusters) []byte {
	b = appendUint(b, len(c.Sets))
	for _, set := range c.Sets {
		b = appendUint(b, len(set))
		for _, name := range set {
			b = appendString(b, name)
		}
	}
	for _, l := range c.Labels {
		b = appendUint(b, l)
	}
	b = appendUint(b, len(c.Medoids))
	for _, m := range c.Medoids {
		b = appendUint(b, m)
	}
	return b
}

func appendCallGraph(b []byte, cg *callgraph.Model) []byte {
	var bcg, mcg []callgraph.Edge
	if cg != nil {
		bcg, mcg = cg.Edges()
	}
	for _, edges := range [][]callgraph.Edge{bcg, mcg} {
		b = appendUint(b, len(edges))
		for _, e := range edges {
			b = appendString(appendString(b, e.Caller), e.Callee)
		}
	}
	return b
}

func appendUint(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFloats(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = appendFloat(b, v)
	}
	return b
}

func appendString(b []byte, s string) []byte { return append(appendUint(b, len(s)), s...) }

func appendSection(b, section []byte) []byte { return append(appendUint(b, len(section)), section...) }

// readBundle reads a bundle's header and framing and decodes its call
// graph, returning the window and the undecoded statistical section.
func readBundle(r io.Reader) (window int, stats []byte, cg *callgraph.Model, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("core: reading bundle: %w", err)
	}
	rest, ok := bytes.CutPrefix(data, []byte(bundleMagic))
	if !ok {
		return 0, nil, nil, errBundleFormat
	}
	rd := &reader{b: rest, what: "bundle"}
	if rd.uint() != bundleVersion || rd.err != nil {
		return 0, nil, nil, errBundleFormat
	}
	if window = rd.int(); window < 1 {
		rd.fail("window %d", window)
	}
	stats = rd.section()
	cgr := &reader{b: rd.section(), what: "call-graph section"}
	rd.end()
	if rd.err != nil {
		return 0, nil, nil, rd.err
	}
	bcg, mcg := cgr.edges(), cgr.edges()
	if cgr.end(); cgr.err != nil {
		return 0, nil, nil, cgr.err
	}
	return window, stats, callgraph.NewModel(bcg, mcg), nil
}

// decodeStats rebuilds the statistical classifier from its section and
// checks it; a classifier that decodes but fails the check is an
// *InvalidModelError.
func decodeStats(window int, section []byte) (*Classifier, error) {
	r := &reader{b: section, what: "statistical section"}
	c := &Classifier{window: window, params: svm.Params{Lambda: r.float()}}
	switch platt := r.int(); platt {
	case 0:
	case 1:
		a := r.float()
		c.platt = &svm.PlattScaler{A: a, B: r.float()}
	default:
		r.fail("Platt flag %d", platt)
	}
	libs, fns := r.clusters(), r.clusters()
	d := r.count(16)
	lo := r.floats(d)
	c.scaler = svm.NewScaler(lo, r.floats(d))
	k := r.kernel()
	n, dim := r.count(8), r.int()
	if n > 0 && dim > len(r.b)/8/n {
		r.fail("%d support vectors of dimension %d exceed the %d bytes left", n, dim, len(r.b))
	}
	sv := r.floats(n * dim)
	coef := r.floats(n)
	bias := r.float()
	if r.end(); r.err != nil {
		return nil, r.err
	}
	enc, err := preprocess.NewEncoder(libs, fns)
	if err != nil {
		return nil, fmt.Errorf("core: malformed statistical section: %w", err)
	}
	c.enc, c.model = enc, svm.NewModel(k, sv, dim, coef, bias)
	if err := c.check(); err != nil {
		return nil, &InvalidModelError{Cause: err}
	}
	return c, nil
}

// reader decodes the bundle layout from b. Every read is bounds-checked,
// and the first failure sticks: later reads return zero values, so a
// decoder reads on and checks err once.
type reader struct {
	b    []byte
	what string
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: malformed %s: %s", r.what, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// end fails unless every byte was read.
func (r *reader) end() {
	if len(r.b) > 0 {
		r.fail("%d bytes after its end", len(r.b))
	}
}

func (r *reader) uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a window, label, medoid, dimension or degree.
func (r *reader) int() int {
	v := r.uint()
	if v > math.MaxInt32 {
		r.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads a count of items that take at least size bytes each and
// fails when the bytes left cannot hold them, so no count allocates
// past the input's size.
func (r *reader) count(size int) int {
	v := r.uint()
	if v > uint64(len(r.b)/size) {
		r.fail("count %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

func (r *reader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *reader) floats(n int) []float64 {
	if n > len(r.b)/8 {
		r.fail("%d floats exceed the %d bytes left", n, len(r.b))
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.float()
	}
	return vs
}

func (r *reader) section() []byte {
	n := r.count(1)
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *reader) str() string { return string(r.section()) }

func (r *reader) kernel() svm.Kernel {
	switch kind := r.int(); kind {
	case kernelLinear:
		return svm.LinearKernel{}
	case kernelRBF:
		return svm.RBFKernel{Sigma2: r.float()}
	case kernelPoly:
		deg := r.int()
		gamma := r.float()
		return svm.PolyKernel{Degree: deg, Gamma: gamma, Coef0: r.float()}
	default:
		r.fail("kernel kind %d", kind)
		return nil
	}
}

func (r *reader) clusters() preprocess.Clusters {
	// A set takes at least its name count and its label.
	c := preprocess.Clusters{Sets: make([][]string, r.count(2))}
	for i := range c.Sets {
		c.Sets[i] = make([]string, r.count(1))
		for j := range c.Sets[i] {
			c.Sets[i][j] = r.str()
		}
	}
	c.Labels = make([]int, len(c.Sets))
	for i := range c.Labels {
		c.Labels[i] = r.int()
	}
	c.Medoids = make([]int, r.count(1))
	for i := range c.Medoids {
		c.Medoids[i] = r.int()
	}
	return c
}

func (r *reader) edges() []callgraph.Edge {
	// An edge takes at least its two string lengths.
	edges := make([]callgraph.Edge, r.count(2))
	for i := range edges {
		caller := r.str()
		edges[i] = callgraph.Edge{Caller: caller, Callee: r.str()}
	}
	return edges
}

// check ties the decoded statistical sections together, so that no
// bundle the loader accepts can panic the scorer or score NaN: the scaler
// and every support vector span the 3×Window features of a coalesced
// window, every coefficient, bound and the bias are finite, the kernel
// passes svm's parameter check, and Platt's A and B are finite.
func (c *Classifier) check() error {
	dim := 3 * c.window
	if err := c.scaler.Check(dim); err != nil {
		return err
	}
	if err := c.model.Check(dim); err != nil {
		return err
	}
	if p := c.platt; p != nil && (math.IsNaN(p.A) || math.IsInf(p.A, 0) || math.IsNaN(p.B) || math.IsInf(p.B, 0)) {
		return fmt.Errorf("core: Platt sigmoid A=%v B=%v is not finite", p.A, p.B)
	}
	return nil
}

// InvalidModelError reports a bundle whose statistical sections decode
// but do not form a usable classifier (Classifier.check). LoadMonitor
// degrades past it to the call graph like any other corrupt statistical
// section.
type InvalidModelError struct {
	// Cause names the section and value at fault.
	Cause error
}

func (e *InvalidModelError) Error() string { return "core: invalid model bundle: " + e.Cause.Error() }

func (e *InvalidModelError) Unwrap() error { return e.Cause }

// LoadClassifier reads a classifier previously written by Save. It fails
// when any section is unusable; LoadMonitor is the fault-tolerant entry
// point that degrades to the call-graph baseline instead.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	m, err := LoadMonitor(r)
	if err != nil {
		return nil, err
	}
	if m.clf == nil {
		return nil, m.cause
	}
	return m.clf, nil
}
