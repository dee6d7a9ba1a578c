// Package data provides synthetic datasets for the real-gradient training
// paths and the HeteroDataLoader — the reproduction of Cannikin's loader
// that feeds *uneven* local mini-batches to heterogeneous nodes according
// to the OptPerf ratios (Section 4.5).
package data

import (
	"errors"
	"fmt"
	"math"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// ErrTooFewSamples reports a dataset with fewer rows than nodes: no global
// batch can give every node a sample. Test with errors.Is.
var ErrTooFewSamples = errors.New("data: fewer samples than nodes")

// ErrBadNoise reports a blob spread that is NaN, infinite or negative: the
// dataset would be garbage, or its labels unlearnable, without any error.
// Test with errors.Is.
var ErrBadNoise = errors.New("data: blob noise must be finite and non-negative")

// Dataset is an in-memory labeled dataset.
type Dataset struct {
	X       *tensor.T
	Labels  []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows() }

// Batch materializes the samples at the given indices.
func (d *Dataset) Batch(indices []int) (*tensor.T, []int) {
	x := tensor.New(len(indices), d.X.Cols())
	labels := make([]int, len(indices))
	for row, idx := range indices {
		copy(x.Row(row), d.X.Row(idx))
		labels[row] = d.Labels[idx]
	}
	return x, labels
}

// SyntheticBlobs generates an n-sample classification dataset of `classes`
// Gaussian blobs in dim dimensions. Class centers sit on scaled coordinate
// directions; noise controls the blob spread (larger = harder).
func SyntheticBlobs(n, dim, classes int, noise float64, src *rng.Source) (*Dataset, error) {
	if n <= 0 || dim <= 0 || classes <= 1 {
		return nil, fmt.Errorf("data: invalid blob parameters n=%d dim=%d classes=%d", n, dim, classes)
	}
	if classes > 2*dim {
		return nil, fmt.Errorf("data: %d classes need dim >= %d", classes, (classes+1)/2)
	}
	if !(noise >= 0) || math.IsInf(noise, 1) { // NaN fails every comparison
		return nil, fmt.Errorf("%w: %v", ErrBadNoise, noise)
	}
	ds := &Dataset{X: tensor.New(n, dim), Labels: make([]int, n), Classes: classes}
	s := src.Split("blobs")
	// One standard draw per element in row-major order. NormalsInto leaves
	// s where a per-element loop would, so the shuffle below draws from the
	// serial position.
	tensor.NormalsInto(ds.X.Data(), s)
	for i := 0; i < n; i++ {
		c := i % classes
		ds.Labels[i] = c
		row := ds.X.Row(i)
		for j, z := range row {
			row[j] = 0 + noise*z // s.Norm(0, noise) to the bit
		}
		// Center: +2 on axis c/2, sign alternating.
		axis := c / 2
		sign := 1.0
		if c%2 == 1 {
			sign = -1
		}
		row[axis] += sign * 2
	}
	// Shuffle sample order.
	s.Shuffle(n, func(i, j int) {
		ri, rj := ds.X.Row(i), ds.X.Row(j)
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
		ds.Labels[i], ds.Labels[j] = ds.Labels[j], ds.Labels[i]
	})
	return ds, nil
}

// HeteroLoader shards a dataset into per-node local mini-batches of
// *different* sizes, as decided by the OptPerf plan. Every sample is
// delivered exactly once per epoch.
type HeteroLoader struct {
	ds     *Dataset
	src    *rng.Source
	perm   []int
	cursor int
	epoch  int
}

// NewHeteroLoader returns a loader over the dataset.
func NewHeteroLoader(ds *Dataset, src *rng.Source) *HeteroLoader {
	l := &HeteroLoader{ds: ds, src: src.Split("heteroloader")}
	l.reshuffle()
	return l
}

func (l *HeteroLoader) reshuffle() {
	l.perm = l.src.Split(fmt.Sprintf("epoch-%d", l.epoch)).Perm(l.ds.Len())
	l.cursor = 0
}

// Remaining returns how many samples are left in the current epoch.
func (l *HeteroLoader) Remaining() int { return l.ds.Len() - l.cursor }

// Epoch returns the current epoch number (starting at 0).
func (l *HeteroLoader) Epoch() int { return l.epoch }

// NextGlobalBatch draws one global batch split into per-node local batches
// of the requested sizes. When fewer samples remain than requested, the
// local batches are scaled down proportionally (the epoch's final partial
// batch); at least one sample per node is kept. It returns io-style
// shard slices aligned with the request.
func (l *HeteroLoader) NextGlobalBatch(localSizes []int) (xs []*tensor.T, labels [][]int, err error) {
	n := len(localSizes)
	if n == 0 {
		return nil, nil, errors.New("data: no local batch sizes")
	}
	want := 0
	for i, b := range localSizes {
		if b <= 0 {
			return nil, nil, fmt.Errorf("data: node %d local batch %d", i, b)
		}
		want += b
	}
	if l.ds.Len() < n {
		return nil, nil, fmt.Errorf("%w: %d samples, %d nodes", ErrTooFewSamples, l.ds.Len(), n)
	}
	if l.Remaining() < n { // cannot give every node a sample: roll epoch
		l.epoch++
		l.reshuffle()
	}
	sizes := append([]int(nil), localSizes...)
	if rem := l.Remaining(); rem < want {
		// Scale shards down proportionally, preserving >= 1 per node.
		total := 0
		for i := range sizes {
			sizes[i] = sizes[i] * rem / want
			if sizes[i] < 1 {
				sizes[i] = 1
			}
			total += sizes[i]
		}
		for i := 0; total > rem && i < len(sizes); i++ {
			for sizes[i] > 1 && total > rem {
				sizes[i]--
				total--
			}
		}
	}
	xs = make([]*tensor.T, n)
	labels = make([][]int, n)
	for i, b := range sizes {
		idx := l.perm[l.cursor : l.cursor+b]
		l.cursor += b
		xs[i], labels[i] = l.ds.Batch(idx)
	}
	if l.Remaining() == 0 {
		l.epoch++
		l.reshuffle()
	}
	return xs, labels, nil
}
