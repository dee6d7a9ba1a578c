package data

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"cannikin/internal/rng"
)

func TestSyntheticBlobsShapeAndBalance(t *testing.T) {
	src := rng.New(1)
	ds, err := SyntheticBlobs(300, 6, 3, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 300 || ds.X.Cols() != 6 || ds.Classes != 3 {
		t.Fatalf("dataset shape wrong: len=%d cols=%d classes=%d", ds.Len(), ds.X.Cols(), ds.Classes)
	}
	counts := make([]int, 3)
	for _, l := range ds.Labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d samples, want 100", c, n)
		}
	}
}

func TestSyntheticBlobsSeparable(t *testing.T) {
	// Low-noise blobs must be nearly separable by the nearest-center rule.
	src := rng.New(2)
	ds, err := SyntheticBlobs(400, 4, 4, 0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		row := ds.X.Row(i)
		// Recover the center convention: class c = axis c/2, sign (-1)^c.
		best, bestDist := -1, 1e18
		for c := 0; c < ds.Classes; c++ {
			axis, sign := c/2, 1.0
			if c%2 == 1 {
				sign = -1
			}
			dist := 0.0
			for j, v := range row {
				want := 0.0
				if j == axis {
					want = sign * 2
				}
				dist += (v - want) * (v - want)
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == ds.Labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.98 {
		t.Fatalf("nearest-center accuracy %v < 0.98", acc)
	}
}

func TestSyntheticBlobsValidation(t *testing.T) {
	src := rng.New(3)
	if _, err := SyntheticBlobs(0, 4, 2, 0.5, src); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := SyntheticBlobs(10, 4, 1, 0.5, src); err == nil {
		t.Fatal("1 class accepted")
	}
	if _, err := SyntheticBlobs(10, 2, 9, 0.5, src); err == nil {
		t.Fatal("too many classes for dim accepted")
	}
}

func TestSyntheticBlobsRejectsBadNoise(t *testing.T) {
	for _, noise := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		if _, err := SyntheticBlobs(10, 4, 2, noise, rng.New(3)); !errors.Is(err, ErrBadNoise) {
			t.Fatalf("noise %v: err = %v, want ErrBadNoise", noise, err)
		}
	}
	if _, err := SyntheticBlobs(10, 4, 2, 0, rng.New(3)); err != nil {
		t.Fatalf("zero noise (points on their centers) rejected: %v", err)
	}
}

// TestSyntheticBlobsGolden pins every bit of a dataset large enough that
// its draws are tiled over the kernel pool: the hash was taken from the
// serial per-row Norm loop.
func TestSyntheticBlobsGolden(t *testing.T) {
	ds, err := SyntheticBlobs(1500, 20, 6, 0.8, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range ds.X.Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, l := range ds.Labels {
		h.Write([]byte{byte(l)})
	}
	const want = "1c67b58b6e1fba381af943ccbed2352134e3af508c09ccbc5f42f76bad57a1f5"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("blobs hash %s, want %s", got, want)
	}
}

func TestHeteroLoaderDeliversEachSampleOncePerEpoch(t *testing.T) {
	src := rng.New(4)
	ds, err := SyntheticBlobs(120, 4, 2, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	// Tag each sample by its unique feature vector via a coarse hash of
	// the first coordinate; instead track consumed count per epoch.
	l := NewHeteroLoader(ds, src)
	consumed := 0
	epoch := l.Epoch()
	for l.Epoch() == epoch {
		xs, labels, err := l.NextGlobalBatch([]int{7, 5, 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if xs[i].Rows() != len(labels[i]) {
				t.Fatal("shard rows != labels")
			}
			consumed += xs[i].Rows()
		}
	}
	if consumed != 120 {
		t.Fatalf("epoch consumed %d samples, want 120", consumed)
	}
}

func TestHeteroLoaderUnevenShardSizes(t *testing.T) {
	src := rng.New(5)
	ds, err := SyntheticBlobs(1000, 4, 2, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	l := NewHeteroLoader(ds, src)
	xs, _, err := l.NextGlobalBatch([]int{48, 12, 4})
	if err != nil {
		t.Fatal(err)
	}
	if xs[0].Rows() != 48 || xs[1].Rows() != 12 || xs[2].Rows() != 4 {
		t.Fatalf("shard sizes %d %d %d", xs[0].Rows(), xs[1].Rows(), xs[2].Rows())
	}
}

func TestHeteroLoaderPartialFinalBatch(t *testing.T) {
	src := rng.New(6)
	ds, err := SyntheticBlobs(100, 4, 2, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	l := NewHeteroLoader(ds, src)
	if _, _, err := l.NextGlobalBatch([]int{60, 20}); err != nil {
		t.Fatal(err)
	}
	// 20 remain; ask for 60+20: shards shrink proportionally but stay >= 1.
	xs, _, err := l.NextGlobalBatch([]int{60, 20})
	if err != nil {
		t.Fatal(err)
	}
	got := xs[0].Rows() + xs[1].Rows()
	if got != 20 {
		t.Fatalf("partial batch delivered %d, want 20", got)
	}
	if xs[0].Rows() < 1 || xs[1].Rows() < 1 {
		t.Fatal("a node received an empty shard")
	}
	if l.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 after exhaustion", l.Epoch())
	}
}

func TestHeteroLoaderValidation(t *testing.T) {
	src := rng.New(7)
	ds, err := SyntheticBlobs(10, 4, 2, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	l := NewHeteroLoader(ds, src)
	if _, _, err := l.NextGlobalBatch(nil); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, _, err := l.NextGlobalBatch([]int{3, 0}); err == nil {
		t.Fatal("zero shard accepted")
	}
}

func TestHeteroLoaderReshufflesAcrossEpochs(t *testing.T) {
	src := rng.New(8)
	ds, err := SyntheticBlobs(64, 4, 2, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	l := NewHeteroLoader(ds, src)
	first, _, err := l.NextGlobalBatch([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := l.NextGlobalBatch([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 64 && same; i++ {
		for j := 0; j < 4; j++ {
			if first[0].At(i, j) != second[0].At(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("epochs not reshuffled")
	}
}
