package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cannikin/internal/rng"
)

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// mulVec returns m·x.
func mulVec(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.rows)
	for i := range y {
		for j := 0; j < m.cols; j++ {
			y[i] += m.At(i, j) * x[j]
		}
	}
	return y
}

// mul returns the matrix product a·b.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

// maxAbsDiff returns max_i |a_i - b_i|.
func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  => x = 2, y = 1.
	a := fromRows([][]float64{{2, 1}, {1, -1}})
	x, err := Solve(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("Solve = %v, want [2 1]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("Solve = %v, want [7 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("Solve singular err = %v, want ErrSingular", err)
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("Solve accepted a non-square matrix")
	}
	if _, err := Solve(fromRows([][]float64{{1, 0}, {0, 1}}), []float64{1}); err == nil || errors.Is(err, ErrSingular) {
		t.Fatal("Solve accepted mismatched rhs length")
	}
}

func TestSolveResidualProperty(t *testing.T) {
	// Random well-conditioned systems: A x = b must reproduce b.
	src := rng.New(101)
	f := func(seedDelta uint8) bool {
		s := src.Split(string(rune(seedDelta)))
		n := 1 + s.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, s.Norm(0, 1))
			}
			// Diagonal dominance keeps conditioning sane.
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = s.Norm(0, 5)
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		got := mulVec(a, x)
		return maxAbsDiff(got, b) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	s := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		n := 1 + s.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, s.Norm(0, 1))
			}
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		prod := mul(a, inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				id := 0.0
				if i == j {
					id = 1
				}
				if math.Abs(prod.At(i, j)-id) > 1e-8 {
					t.Fatalf("n=%d: A*A^-1 deviates at (%d,%d): %v", n, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Inverse(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("Inverse singular err = %v, want ErrSingular", err)
	}
}

func TestSolveSPDWeightsSumToOne(t *testing.T) {
	s := rng.New(33)
	for trial := 0; trial < 20; trial++ {
		n := 2 + s.Intn(8)
		// Build SPD: A = M^T M + n*I.
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, s.Norm(0, 1))
			}
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					a.Set(i, j, a.At(i, j)+m.At(k, i)*m.At(k, j))
				}
			}
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		w, err := SolveSPDWeights(a)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("weights sum = %v, want 1", sum)
		}
	}
}

func TestSolveSPDWeightsMatchesInverseFormula(t *testing.T) {
	a := fromRows([][]float64{
		{4, 1, 0},
		{1, 3, 1},
		{0, 1, 5},
	})
	w, err := SolveSPDWeights(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	// w_j = sum_i inv[i][j] / sum_ij inv[i][j]
	n := a.Rows()
	want := make([]float64, n)
	total := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want[j] += inv.At(i, j)
		}
		total += want[j]
	}
	for j := range want {
		want[j] /= total
	}
	if maxAbsDiff(w, want) > 1e-10 {
		t.Fatalf("weights = %v, want %v", w, want)
	}
}

// TestMulVecAndMul checks the mulVec and mul fixtures the residual and
// round-trip tests above judge Solve and Inverse by.
func TestMulVecAndMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	got := mulVec(a, []float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("mulVec = %v, want [17 39]", got)
	}
	b := fromRows([][]float64{{0, 1}, {1, 0}})
	p := mul(a, b)
	want := fromRows([][]float64{{2, 1}, {4, 3}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != want.At(i, j) {
				t.Fatalf("mul mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}
