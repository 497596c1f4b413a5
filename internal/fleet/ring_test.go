package fleet

import (
	"fmt"
	"testing"
)

func ringWith(t *testing.T, seed uint64, members ...string) *Ring {
	t.Helper()
	r := NewRing(seed, 64)
	for _, m := range members {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%05d", i)
	}
	return out
}

// TestRingDeterminism: the layout is a pure function of (seed, vnodes,
// membership) — two rings built alike agree on every key, and a
// different seed produces a genuinely different layout.
func TestRingDeterminism(t *testing.T) {
	a := ringWith(t, 42, "r0", "r1", "r2")
	b := ringWith(t, 42, "r2", "r0", "r1") // insertion order must not matter
	c := ringWith(t, 43, "r0", "r1", "r2")

	moved := 0
	counts := map[string]int{}
	for _, k := range keys(500) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		oc, _ := c.Owner(k)
		if oa != ob {
			t.Fatalf("same-config rings disagree on %s: %s vs %s", k, oa, ob)
		}
		if oa != oc {
			moved++
		}
		counts[oa]++
	}
	if moved == 0 {
		t.Error("changing the seed moved no keys; seed is not folded into the hash")
	}
	// Spread: each of 3 members should own a material share of 500 keys.
	for m, n := range counts {
		if n < 50 {
			t.Errorf("member %s owns only %d/500 keys; vnode spread is broken", m, n)
		}
	}
}

// TestRingMinimalDisruption: removing a member only reassigns the keys
// it owned; everyone else's keys stay put. This is the property that
// bounds how many sessions a drain has to hand off.
func TestRingMinimalDisruption(t *testing.T) {
	r := ringWith(t, 42, "r0", "r1", "r2")
	before := map[string]string{}
	for _, k := range keys(500) {
		before[k], _ = r.Owner(k)
	}
	if err := r.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	for k, was := range before {
		now, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %s after remove", k)
		}
		if was != "r1" && now != was {
			t.Errorf("key %s moved %s -> %s though %s stayed in the ring", k, was, now, was)
		}
		if was == "r1" && now == "r1" {
			t.Errorf("key %s still owned by removed member", k)
		}
	}
	// Re-adding restores the exact original layout (pure function of
	// membership), which is what lets a rejoin move sessions back.
	if err := r.Add("r1"); err != nil {
		t.Fatal(err)
	}
	for k, was := range before {
		if now, _ := r.Owner(k); now != was {
			t.Errorf("key %s at %s after rejoin, want original owner %s", k, now, was)
		}
	}
}

func TestRingEdges(t *testing.T) {
	r := NewRing(1, 8)
	if _, ok := r.Owner("x"); ok {
		t.Error("empty ring claims an owner")
	}
	if g := r.Generation(); g != 0 {
		t.Errorf("fresh ring generation %d, want 0", g)
	}
	if err := r.Add(""); err == nil {
		t.Error("empty member id accepted")
	}
	if err := r.Add("r0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("r0"); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := r.Remove("nope"); err == nil {
		t.Error("removing an absent member succeeded")
	}
	if g := r.Generation(); g != 1 {
		t.Errorf("generation %d after one add, want 1 (failed ops must not bump)", g)
	}
	if got, ok := r.Owner("any-session"); !ok || got != "r0" {
		t.Errorf("owner %q (ok %v), want the only member r0", got, ok)
	}
}
