package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cannikin/internal/rng"
)

// TestStepGolden pins every timing and measurement of nine steps on Cluster
// B over three epochs — each epoch re-splits the cluster's source, so a
// source left anywhere but its logical position would change the later
// epochs — whatever is prefetched per epoch: nothing, too little, exactly,
// or too much. The hash was taken from the unbuffered serial draws.
func TestStepGolden(t *testing.T) {
	const (
		wantFirst = 0x3fa42ee864c76af8
		wantHash  = "08fa73b123338d4606246ec4dac5aa35673fe1a9016959047331667eb1e437a5"
	)
	for _, ahead := range []struct {
		name  string
		steps int
	}{{"none", 0}, {"too low", 1}, {"exact", 3}, {"too high", 10}} {
		c, err := Preset("b", rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		batches := make([]int, c.N())
		for i := range batches {
			batches[i] = 4 + i
		}
		h := sha256.New()
		var b [8]byte
		put := func(vs ...float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		var first float64
		for e := range 3 {
			c.BeginEpoch(e)
			c.PrefetchSteps(testProfile(), ahead.steps)
			for s := range 3 {
				r, err := c.Step(testProfile(), batches)
				if err != nil {
					t.Fatal(err)
				}
				if e == 0 && s == 0 {
					first = r.Time
				}
				put(r.Time)
				for _, n := range r.PerNode {
					put(n.A, n.P, n.Gamma, n.To, n.Tu, n.ComputeDone, n.Finish)
				}
			}
		}
		if got := math.Float64bits(first); got != wantFirst {
			t.Fatalf("prefetch %s: first step time %#016x, want %#016x", ahead.name, got, uint64(wantFirst))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantHash {
			t.Fatalf("prefetch %s: steps hash %s, want %s", ahead.name, got, wantHash)
		}
	}
}
