// Package linalg implements the small dense linear-algebra kernel the
// Cannikin control plane needs: solving the (n+1)-variable OptPerf systems
// of Algorithm 1 and inverting the GNS covariance matrices of Theorem 4.1.
//
// Matrices are row-major dense float64. Sizes are tiny (n = cluster size,
// typically <= 64), so the package favors clarity and numerical robustness
// (partial pivoting) over blocking or SIMD.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a system has no unique solution at working
// precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-valued rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.5g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Solve solves A x = b by Gaussian elimination with partial pivoting.
// A must be square; b must have length A.Rows(). A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != a.rows {
		return nil, fmt.Errorf("linalg: Solve rhs length %d != %d", len(b), a.rows)
	}
	n := a.rows
	// Work on an augmented copy.
	work := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)

	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in col.
		pivot := col
		maxAbs := math.Abs(work.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(work.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			rhs[pivot], rhs[col] = rhs[col], rhs[pivot]
		}
		inv := 1.0 / work.At(col, col)
		for r := col + 1; r < n; r++ {
			f := work.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				work.Set(r, c, work.At(r, c)-f*work.At(col, c))
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= work.At(i, j) * x[j]
		}
		d := work.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// Inverse returns A^-1, or ErrSingular when A is not invertible.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: Inverse requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	inv := NewMatrix(n, n)
	// Solve A x = e_j column by column. Fine at these sizes.
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// SolveSPDWeights solves A x = 1 and normalizes x to sum to one. This is the
// minimum-variance unbiased weight computation of Theorem 4.1:
// w = 1^T A^-1 / (1^T A^-1 1), returned as a vector.
func SolveSPDWeights(a *Matrix) ([]float64, error) {
	n := a.rows
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	x, err := Solve(a, ones)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range x {
		total += v
	}
	if math.Abs(total) < 1e-300 {
		return nil, ErrSingular
	}
	for i := range x {
		x[i] /= total
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
