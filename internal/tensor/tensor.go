// Package tensor implements the minimal dense 2-D tensor used by the pure
// Go neural-network engine (internal/nn). Tensors are row-major float64
// matrices shaped (rows x cols); in training, rows index batch samples and
// cols index features.
//
// The hot path runs through destination-passing kernels (kernels.go):
// cache-blocked loops writing into caller-owned storage, large ones cut into
// output-row tiles that the caller and the package's parked helpers claim
// (pool.go). Every row belongs to one tile and keeps the serial summation
// order, so results are bitwise identical at any core count — determinism
// the training goldens depend on.
package tensor

import (
	"fmt"

	"cannikin/internal/rng"
)

// T is a dense row-major matrix.
type T struct {
	rows, cols int
	data       []float64
}

// New returns a zero tensor of the given shape.
func New(rows, cols int) *T {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &T{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// View returns a rows x cols tensor over data itself, not a copy: writes
// through either are seen by both. len(data) must be rows*cols. The view's
// capacity is its length, so Reuse never grows it into memory past data.
func View(rows, cols int, data []float64) *T {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: view of %d elements as %dx%d", len(data), rows, cols))
	}
	return &T{rows: rows, cols: cols, data: data[:len(data):len(data)]}
}

// Randn fills a new tensor with N(0, std) entries from src: bitwise
// src.Norm(0, std) per element in order, the standard draws filled by
// NormalsInto.
func Randn(rows, cols int, std float64, src *rng.Source) *T {
	t := New(rows, cols)
	NormalsInto(t.data, src)
	for i, z := range t.data {
		t.data[i] = 0 + std*z // Norm(0, std) to the bit: 0 + -0 is +0
	}
	return t
}

// Rows returns the row count.
func (t *T) Rows() int { return t.rows }

// Cols returns the column count.
func (t *T) Cols() int { return t.cols }

// At returns the element (i, j).
func (t *T) At(i, j int) float64 { return t.data[i*t.cols+j] }

// Set assigns element (i, j).
func (t *T) Set(i, j int, v float64) { t.data[i*t.cols+j] = v }

// Row returns a mutable view of row i.
func (t *T) Row(i int) []float64 { return t.data[i*t.cols : (i+1)*t.cols] }

// Data returns the underlying flat storage (mutable view).
func (t *T) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *T) Clone() *T {
	c := New(t.rows, t.cols)
	copy(c.data, t.data)
	return c
}

// Zero resets all elements to 0.
func (t *T) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Reuse returns a (rows x cols) tensor backed by t's storage when it has
// the capacity, growing the storage otherwise; pass nil to allocate fresh.
// The element contents are unspecified — callers are expected to overwrite
// them. This is the workspace primitive behind the zero-allocation training
// step: layers size their scratch on first use and every later step of the
// same shape reuses it, while shape changes (a larger evaluation batch, a
// shrunken final partial batch) reslice the same backing array.
func Reuse(t *T, rows, cols int) *T {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if t == nil || cap(t.data) < n {
		return New(rows, cols)
	}
	t.rows, t.cols = rows, cols
	t.data = t.data[:n]
	return t
}

// AddRowVector adds v to every row in place (v length must equal Cols).
func (t *T) AddRowVector(v []float64) *T {
	if len(v) != t.cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < t.rows; i++ {
		row := t.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
	return t
}

// Add adds other element-wise in place and returns t.
func (t *T) Add(other *T) *T {
	t.assertSameShape(other)
	for i := range t.data {
		t.data[i] += other.data[i]
	}
	return t
}

// Sub subtracts other element-wise in place and returns t.
func (t *T) Sub(other *T) *T {
	t.assertSameShape(other)
	for i := range t.data {
		t.data[i] -= other.data[i]
	}
	return t
}

// Scale multiplies every element by s in place and returns t.
func (t *T) Scale(s float64) *T {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// SliceRows returns a copy of rows [from, to).
func (t *T) SliceRows(from, to int) *T {
	if from < 0 || to > t.rows || from >= to {
		panic(fmt.Sprintf("tensor: SliceRows [%d, %d) of %d rows", from, to, t.rows))
	}
	out := New(to-from, t.cols)
	copy(out.data, t.data[from*t.cols:to*t.cols])
	return out
}

func (t *T) assertSameShape(other *T) {
	if t.rows != other.rows || t.cols != other.cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", t.rows, t.cols, other.rows, other.cols))
	}
}
