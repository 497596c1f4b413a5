// Package fleet is the multi-replica serving layer: it turns N
// single-process detection servers into one logical fleet.
//
// The package has two halves. The Syncer is a pull-based registry
// replicator: it mirrors content-addressed model entries and the
// current-pointer from a primary registry into a replica's local store
// (hash-verified entry fetch, atomic manifest-last commit, pointer
// mirrored only when its generation advances), so a single Promote on
// the primary converges on every replica and each serve instance
// hot-reloads the new champion. Sync follows a fail-static rule: any
// error leaves the replica serving its last good model — a lagging or
// unreachable primary degrades freshness, never availability.
//
// The Router shards detection sessions across replicas by consistent
// hashing on the session ID over a fixed-seed vnode ring, forwarding the
// serve API unchanged. On ring change (drain or rejoin of a replica) it
// performs checkpoint handoff: the losing replica exports each session's
// checkpoint (the SIGTERM spool format), the gaining replica restores
// it, and the session's verdict stream continues byte-identically — the
// property the deterministic cluster simulator proves with its
// replica-count-invariant verdict checksum.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes. Every member owns
// Vnodes points placed by FNV-1a over a fixed seed, so the layout is a
// pure function of (seed, vnodes, membership) — two routers configured
// alike agree on every placement. A key's owner is the member of the
// first ring point at or clockwise after the key's hash. The zero value
// is not usable; construct with NewRing. Ring is not safe for concurrent
// use; the Router serialises access.
type Ring struct {
	seed   uint64
	vnodes int
	gen    int64
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring hashing with the given seed and virtual
// node count per member (vnodes <= 0 selects 64).
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// FNV-1a 64-bit, folding the ring seed in ahead of the key bytes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (r *Ring) hash(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h ^= (r.seed >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	// Raw FNV-1a gives a key's last byte only one multiply of diffusion,
	// so sequential ids ("s00001", "s00002", …) land adjacent on the ring
	// and all map to the same member. The 64-bit avalanche finalizer
	// (murmur3 fmix64) spreads every input bit across the whole hash.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a member's vnodes and bumps the ring generation. Adding a
// present member is an error (the caller lost track of membership).
func (r *Ring) Add(member string) error {
	if member == "" {
		return fmt.Errorf("fleet: empty ring member id")
	}
	for _, p := range r.points {
		if p.member == member {
			return fmt.Errorf("fleet: member %q already in ring", member)
		}
	}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:   r.hash(member + "#" + strconv.Itoa(v)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	r.gen++
	return nil
}

// Remove deletes a member's vnodes and bumps the ring generation.
func (r *Ring) Remove(member string) error {
	kept := r.points[:0]
	removed := false
	for _, p := range r.points {
		if p.member == member {
			removed = true
			continue
		}
		kept = append(kept, p)
	}
	if !removed {
		return fmt.Errorf("fleet: member %q not in ring", member)
	}
	r.points = kept
	r.gen++
	return nil
}

// Owner returns the member owning a key, reporting false on an empty
// ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := r.hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the last point
	}
	return r.points[i].member, true
}

// Generation counts membership changes monotonically; sessions are
// stamped with the generation that placed them.
func (r *Ring) Generation() int64 { return r.gen }
