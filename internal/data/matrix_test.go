package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSmall returns a deterministic small matrix for property tests.
func randSmall(rng *rand.Rand, maxDim int) *Matrix {
	r := 1 + rng.Intn(maxDim)
	c := 1 + rng.Intn(maxDim)
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewAndAt(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.At(0, 0) != 0 {
		t.Fatal("Set/At mismatch")
	}
	if m.SizeBytes() != 48 {
		t.Fatalf("SizeBytes = %d, want 48", m.SizeBytes())
	}
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad slice length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if !s.IsScalar() || s.ScalarValue() != 3.5 {
		t.Fatal("Scalar roundtrip failed")
	}
}

func TestIdentity(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("I[%d,%d] = %g", r, c, i3.At(r, c))
			}
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a := Rand(5, 5, -1, 1, 1, 42)
	b := Rand(5, 5, -1, 1, 1, 42)
	c := Rand(5, 5, -1, 1, 1, 43)
	if !AllClose(a, b, 0) {
		t.Fatal("same seed should give identical matrices")
	}
	if AllClose(a, c, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestRandSparsity(t *testing.T) {
	m := Rand(100, 100, 1, 2, 0.1, 7)
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	if nnz < 500 || nnz > 1500 {
		t.Fatalf("nnz = %d, want ~1000 for sparsity 0.1", nnz)
	}
}

// Seq returns a column vector [from, from+step, ...] with n entries: a
// fixture of the data tests.
func Seq(from, step float64, n int) *Matrix {
	m := New(n, 1)
	for i := 0; i < n; i++ {
		m.Data[i] = from + float64(i)*step
	}
	return m
}

func TestSeq(t *testing.T) {
	s := Seq(1, 2, 4)
	want := []float64{1, 3, 5, 7}
	for i, v := range want {
		if s.Data[i] != v {
			t.Fatalf("Seq[%d] = %g, want %g", i, s.Data[i], v)
		}
	}
}

func TestSliceAndBind(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := m.Slice(0, 2, 1, 3)
	if s.Rows != 2 || s.Cols != 2 || s.At(1, 0) != 5 {
		t.Fatalf("Slice wrong: %v", s)
	}
	r := RBind(m, m)
	if r.Rows != 4 || r.At(2, 0) != 1 {
		t.Fatalf("RBind wrong: %v", r)
	}
	c := CBind(m, m)
	if c.Cols != 6 || c.At(1, 3) != 4 {
		t.Fatalf("CBind wrong: %v", c)
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Slice(0, 3, 0, 1)
}

func TestDiagRoundTrip(t *testing.T) {
	v := FromSlice(3, 1, []float64{1, 2, 3})
	d := Diag(v)
	if d.Rows != 3 || d.Cols != 3 || d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatalf("Diag(vector) wrong: %v", d)
	}
	back := Diag(d)
	if !AllClose(v, back, 0) {
		t.Fatal("Diag(Diag(v)) != v")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Ones(2, 2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAllCloseNaN(t *testing.T) {
	a := FromSlice(1, 2, []float64{math.NaN(), 1})
	b := FromSlice(1, 2, []float64{math.NaN(), 1})
	if !AllClose(a, b, 0) {
		t.Fatal("NaNs in the same position should compare equal")
	}
	c := FromSlice(1, 2, []float64{0, 1})
	if AllClose(a, c, 0) {
		t.Fatal("NaN vs 0 should differ")
	}
}

// Property: RBind then SliceRows recovers the parts.
func TestRBindSliceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSmall(rng, 4)
		b := New(1+rng.Intn(4), a.Cols)
		for i := range b.Data {
			b.Data[i] = rng.Float64()
		}
		r := RBind(a, b)
		return AllClose(r.SliceRows(0, a.Rows), a, 0) &&
			AllClose(r.SliceRows(a.Rows, a.Rows+b.Rows), b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
