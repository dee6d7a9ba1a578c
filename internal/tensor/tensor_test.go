package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"cannikin/internal/rng"
)

func TestNewShape(t *testing.T) {
	a := New(2, 3)
	if a.Rows() != 2 || a.Cols() != 3 {
		t.Fatalf("shape %dx%d", a.Rows(), a.Cols())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape accepted")
		}
	}()
	New(0, 3)
}

func TestFromRowsAndAt(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if a.At(0, 1) != 2 || a.At(1, 0) != 3 {
		t.Fatal("values wrong")
	}
	a.Set(1, 1, 9)
	if a.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged input accepted")
		}
	}()
	FromRows([][]float64{{1}, {2, 3}})
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.MatMul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Fatalf("MatMul wrong at (%d,%d): %v", i, j, c.At(i, j))
			}
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func TestMatMulAssociativeWithTranspose(t *testing.T) {
	// Property: (A B)^T == B^T A^T.
	src := rng.New(5)
	f := func(seed uint8) bool {
		s := src.Split(string(rune(seed)))
		r, k, c := 1+s.Intn(6), 1+s.Intn(6), 1+s.Intn(6)
		a := Randn(r, k, 1, s)
		b := Randn(k, c, 1, s)
		left := a.MatMul(b).Transpose()
		right := b.Transpose().MatMul(a.Transpose())
		for i := 0; i < left.Rows(); i++ {
			for j := 0; j < left.Cols(); j++ {
				if math.Abs(left.At(i, j)-right.At(i, j)) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	a.Add(b)
	if a.At(0, 0) != 11 || a.At(1, 1) != 44 {
		t.Fatal("Add wrong")
	}
	a.Sub(b)
	if a.At(0, 0) != 1 || a.At(1, 1) != 4 {
		t.Fatal("Sub wrong")
	}
	a.Scale(0.5)
	if a.At(0, 1) != 1 {
		t.Fatal("Scale wrong")
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	a.AddRowVector([]float64{10, 100})
	if a.At(0, 0) != 11 || a.At(1, 1) != 104 {
		t.Fatal("AddRowVector wrong")
	}
}

func TestSqNorm(t *testing.T) {
	a := FromRows([][]float64{{3, -4}})
	if a.SqNorm() != 25 {
		t.Fatalf("SqNorm = %v", a.SqNorm())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestZero(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	a.Zero()
	if a.SqNorm() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestSliceRows(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := a.SliceRows(1, 3)
	if b.Rows() != 2 || b.At(0, 0) != 2 || b.At(1, 1) != 3 {
		t.Fatal("SliceRows wrong")
	}
	b.Set(0, 0, 99)
	if a.At(1, 0) != 2 {
		t.Fatal("SliceRows should copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid slice accepted")
		}
	}()
	a.SliceRows(2, 2)
}

func TestRandnMoments(t *testing.T) {
	src := rng.New(7)
	a := Randn(200, 200, 2.0, src)
	n := float64(a.Rows() * a.Cols())
	mean := 0.0
	for _, v := range a.Data() {
		mean += v
	}
	mean /= n
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Randn mean %v", mean)
	}
	variance := a.SqNorm()/n - mean*mean
	if math.Abs(math.Sqrt(variance)-2.0) > 0.05 {
		t.Fatalf("Randn std %v", math.Sqrt(variance))
	}
}

func TestRowIsMutableView(t *testing.T) {
	a := New(2, 2)
	a.Row(1)[0] = 7
	if a.At(1, 0) != 7 {
		t.Fatal("Row is not a view")
	}
}
