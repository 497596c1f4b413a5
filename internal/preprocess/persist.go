package preprocess

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// encoderSnapshot is the serialisable state of a fitted Encoder.
type encoderSnapshot struct {
	Cfg  Config
	Libs clustersSnapshot
	Fns  clustersSnapshot
}

type clustersSnapshot struct {
	Uniq        [][]string
	Labels      []int
	Medoids     []int
	NumClusters int
}

func snapshotClusters(sc *setClusters) clustersSnapshot {
	return clustersSnapshot{
		Uniq:        sc.uniq,
		Labels:      sc.labels,
		Medoids:     sc.medoids,
		NumClusters: sc.numClusters,
	}
}

func (cs clustersSnapshot) clusters() (*setClusters, error) {
	if len(cs.Uniq) != len(cs.Labels) {
		return nil, fmt.Errorf("preprocess: %d sets with %d labels", len(cs.Uniq), len(cs.Labels))
	}
	if len(cs.Medoids) != cs.NumClusters {
		return nil, fmt.Errorf("preprocess: %d medoids for %d clusters", len(cs.Medoids), cs.NumClusters)
	}
	sc := &setClusters{
		uniq:        cs.Uniq,
		labels:      cs.Labels,
		medoids:     cs.Medoids,
		numClusters: cs.NumClusters,
		keyToLabel:  make(map[string]int, len(cs.Uniq)),
	}
	for i, s := range sc.uniq {
		sc.keyToLabel[setKey(s)] = sc.labels[i]
	}
	for _, m := range sc.medoids {
		if m < 0 || m >= len(sc.uniq) {
			return nil, fmt.Errorf("preprocess: medoid index %d out of range", m)
		}
	}
	return sc, nil
}

// MarshalBinary encodes the fitted encoder for persistence.
func (enc *Encoder) MarshalBinary() ([]byte, error) {
	snap := encoderSnapshot{
		Cfg:  enc.cfg,
		Libs: snapshotClusters(enc.libs),
		Fns:  snapshotClusters(enc.fns),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("preprocess: encoding encoder: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes an encoder produced by MarshalBinary.
func (enc *Encoder) UnmarshalBinary(data []byte) error {
	var snap encoderSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("preprocess: decoding encoder: %w", err)
	}
	libs, err := snap.Libs.clusters()
	if err != nil {
		return err
	}
	fns, err := snap.Fns.clusters()
	if err != nil {
		return err
	}
	enc.cfg = snap.Cfg
	enc.libs = libs
	enc.fns = fns
	return nil
}
