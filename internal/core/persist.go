package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/callgraph"
	"repro/internal/preprocess"
	"repro/internal/svm"
)

// classifierFile is the on-disk form of a trained classifier.
type classifierFile struct {
	Magic    string
	Version  int
	Window   int
	Lambda   float64
	Encoder  []byte
	Scaler   []byte
	Model    []byte
	HasPlatt bool
	PlattA   float64
	PlattB   float64
	// CallGraph is the serialized call-graph baseline trained alongside
	// the WSVM (since version 2). It is the degraded-mode fallback: when
	// the statistical sections fail to decode, a Monitor can still run the
	// call-graph matcher. Empty in version-1 files.
	CallGraph []byte
}

const (
	classifierMagic   = "LEAPS-MODEL"
	classifierVersion = 2
)

// Save serialises the trained classifier so a later process can run the
// testing phase without retraining.
func (c *Classifier) Save(w io.Writer) error {
	encB, err := c.enc.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	scB, err := c.scaler.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	mB, err := c.model.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	f := classifierFile{
		Magic:   classifierMagic,
		Version: classifierVersion,
		Window:  c.window,
		Lambda:  c.params.Lambda,
		Encoder: encB,
		Scaler:  scB,
		Model:   mB,
	}
	if c.platt != nil {
		f.HasPlatt = true
		f.PlattA, f.PlattB = c.platt.A, c.platt.B
	}
	if c.cg != nil {
		if f.CallGraph, err = c.cg.MarshalBinary(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := gob.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("core: encoding classifier: %w", err)
	}
	return nil
}

// decodeClassifierFile reads and structurally validates the envelope of a
// classifier file, without touching the per-section payloads.
func decodeClassifierFile(r io.Reader) (classifierFile, error) {
	var f classifierFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return f, fmt.Errorf("core: decoding classifier: %w", err)
	}
	if f.Magic != classifierMagic {
		return f, fmt.Errorf("core: not a classifier file (magic %q)", f.Magic)
	}
	if f.Version < 1 || f.Version > classifierVersion {
		return f, fmt.Errorf("core: unsupported classifier version %d", f.Version)
	}
	if f.Window < 1 {
		return f, fmt.Errorf("core: classifier window %d invalid", f.Window)
	}
	return f, nil
}

// classifier reconstructs the statistical model from the file's sections.
func (f classifierFile) classifier() (*Classifier, error) {
	c := &Classifier{window: f.Window, params: svm.Params{Lambda: f.Lambda}}
	c.enc = new(preprocess.Encoder)
	if err := c.enc.UnmarshalBinary(f.Encoder); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c.scaler = new(svm.Scaler)
	if err := c.scaler.UnmarshalBinary(f.Scaler); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c.model = new(svm.Model)
	if err := c.model.UnmarshalBinary(f.Model); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if f.HasPlatt {
		c.platt = &svm.PlattScaler{A: f.PlattA, B: f.PlattB}
	}
	if err := c.check(); err != nil {
		return nil, &InvalidModelError{Cause: err}
	}
	if cg, err := f.callGraph(); err == nil {
		c.cg = cg
	}
	return c, nil
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

// callGraph reconstructs the embedded call-graph baseline, if present.
func (f classifierFile) callGraph() (*callgraph.Model, error) {
	if len(f.CallGraph) == 0 {
		return nil, fmt.Errorf("core: classifier file carries no call graph")
	}
	cg := new(callgraph.Model)
	if err := cg.UnmarshalBinary(f.CallGraph); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return cg, nil
}

// LoadClassifier reads a classifier previously written by Save. It fails
// when any section is unusable; LoadMonitor is the fault-tolerant entry
// point that degrades to the call-graph baseline instead.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	f, err := decodeClassifierFile(r)
	if err != nil {
		return nil, err
	}
	return f.classifier()
}
