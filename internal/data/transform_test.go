package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func nan() float64 { return math.NaN() }

func TestImputeByMean(t *testing.T) {
	m := FromSlice(3, 2, []float64{1, 10, nan(), 20, 3, nan()})
	out := ImputeByMean(m)
	if out.At(1, 0) != 2 || out.At(2, 1) != 15 {
		t.Fatalf("ImputeByMean = %v", out)
	}
	if CountNaN(out) != 0 {
		t.Fatal("NaNs remain after imputation")
	}
	// Original untouched.
	if CountNaN(m) != 2 {
		t.Fatal("input mutated")
	}
}

func TestImputeByMode(t *testing.T) {
	m := FromSlice(5, 1, []float64{2, 2, 3, nan(), 3})
	out := ImputeByMode(m)
	// Tie between 2 and 3 -> smaller value wins deterministically.
	if out.At(3, 0) != 2 {
		t.Fatalf("mode imputation = %g, want 2 (tie broken low)", out.At(3, 0))
	}
}

func TestOutlierByIQR(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}
	m := FromSlice(10, 1, vals)
	out := OutlierByIQR(m)
	if Max(out) >= 1000 {
		t.Fatalf("outlier not clamped: max = %g", Max(out))
	}
	if out.At(0, 0) != 1 {
		t.Fatalf("inlier modified: %g", out.At(0, 0))
	}
}

func TestStandardize(t *testing.T) {
	m := RandNorm(500, 3, 5, 2, 11)
	s := Standardize(m)
	mu := ColMeans(s)
	va := ColVars(s)
	for j := 0; j < 3; j++ {
		if math.Abs(mu.Data[j]) > 1e-9 {
			t.Fatalf("col %d mean = %g, want 0", j, mu.Data[j])
		}
		if math.Abs(va.Data[j]-1) > 1e-9 {
			t.Fatalf("col %d var = %g, want 1", j, va.Data[j])
		}
	}
}

func TestStandardizeConstantColumn(t *testing.T) {
	m := Fill(4, 1, 7)
	s := Standardize(m)
	if !AllClose(s, Zeros(4, 1), 0) {
		t.Fatalf("constant column should center to zero: %v", s)
	}
}

func TestMinMaxScale(t *testing.T) {
	m := FromSlice(3, 1, []float64{2, 4, 6})
	s := MinMaxScale(m)
	want := FromSlice(3, 1, []float64{0, 0.5, 1})
	if !AllClose(s, want, 1e-12) {
		t.Fatalf("MinMaxScale = %v", s)
	}
}

func TestUnderSampleBalances(t *testing.T) {
	x := Seq(1, 1, 100)
	y := New(100, 1)
	for i := 0; i < 10; i++ {
		y.Data[i] = 1 // 10 positive, 90 negative
	}
	sx, sy := UnderSample(x, y, 42)
	if sx.Rows != 20 || sy.Rows != 20 {
		t.Fatalf("rows = %d, want 20", sx.Rows)
	}
	pos := 0
	for _, v := range sy.Data {
		if v > 0 {
			pos++
		}
	}
	if pos != 10 {
		t.Fatalf("positives = %d, want 10", pos)
	}
	// Deterministic for the same seed.
	sx2, _ := UnderSample(x, y, 42)
	if !AllClose(sx, sx2, 0) {
		t.Fatal("undersample not deterministic")
	}
}

func TestBin(t *testing.T) {
	m := FromSlice(4, 1, []float64{0, 1, 2, 10})
	b := Bin(m, 2)
	want := FromSlice(4, 1, []float64{1, 1, 1, 2})
	if !AllClose(b, want, 0) {
		t.Fatalf("Bin = %v, want %v", b, want)
	}
	if Max(Bin(RandNorm(100, 2, 0, 1, 3), 10)) > 10 {
		t.Fatal("bin code exceeds nBins")
	}
}

func TestBinPreservesNaN(t *testing.T) {
	m := FromSlice(3, 1, []float64{1, nan(), 3})
	b := Bin(m, 4)
	if !math.IsNaN(b.At(1, 0)) {
		t.Fatal("NaN should survive binning")
	}
}

func TestRecode(t *testing.T) {
	m := FromSlice(4, 1, []float64{30, 10, 30, 20})
	r := Recode(m)
	want := FromSlice(4, 1, []float64{3, 1, 3, 2})
	if !AllClose(r, want, 0) {
		t.Fatalf("Recode = %v, want %v", r, want)
	}
}

func TestOneHot(t *testing.T) {
	m := FromSlice(3, 1, []float64{1, 3, 2})
	oh := OneHot(m)
	want := FromSlice(3, 3, []float64{1, 0, 0, 0, 0, 1, 0, 1, 0})
	if !AllClose(oh, want, 0) {
		t.Fatalf("OneHot = %v, want %v", oh, want)
	}
}

func TestOneHotMultiColumn(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 2, 1})
	oh := OneHot(m)
	if oh.Cols != 4 {
		t.Fatalf("OneHot cols = %d, want 4", oh.Cols)
	}
	want := FromSlice(2, 4, []float64{1, 0, 0, 1, 0, 1, 1, 0})
	if !AllClose(oh, want, 0) {
		t.Fatalf("OneHot = %v", oh)
	}
}

func TestReplaceNaN(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, nan(), 3})
	out := ReplaceNaN(m, -1)
	if out.At(0, 1) != -1 || CountNaN(out) != 0 {
		t.Fatalf("ReplaceNaN = %v", out)
	}
}

// Property: recoded codes are dense 1..k and order-preserving.
func TestRecodeProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		m := New(len(vals), 1)
		for i, v := range vals {
			m.Data[i] = float64(v % 8)
		}
		r := Recode(m)
		maxCode := Max(r)
		seen := make(map[float64]bool)
		for _, v := range r.Data {
			if v < 1 || v > maxCode {
				return false
			}
			seen[v] = true
		}
		if len(seen) != int(maxCode) {
			return false // codes must be dense
		}
		// Order preserving: original a<b implies code(a)<code(b).
		for i := range m.Data {
			for j := range m.Data {
				if m.Data[i] < m.Data[j] && r.Data[i] >= r.Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: imputation never changes observed values.
func TestImputePreservesObserved(t *testing.T) {
	f := func(seed int64) bool {
		m := RandNorm(10, 3, 0, 1, seed)
		m.Set(3, 1, nan())
		out := ImputeByMean(m)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if i == 3 && j == 1 {
					continue
				}
				if out.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestColumnTransformsIndependentOfParallelism: ImputeByMode and
// OutlierByIQR shard columns across workers, and each column must come out
// bitwise as the serial loop makes it — NaN-only columns (left NaN by the
// clamp, imputed with 0), columns mixing +0 and -0 (the mode map folds them
// into one key, whichever it met first), heavy ties and outliers — under
// parallelism 2 and 4, on shapes past MinParallelWork.
func TestColumnTransformsIndependentOfParallelism(t *testing.T) {
	build := func(rows, cols int, seed int64) *Matrix {
		r := rand.New(rand.NewSource(seed))
		m := Zeros(rows, cols)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				var v float64
				switch j % 5 {
				case 0: // NaN only
					v = math.NaN()
				case 1: // signed zeros, a few NaNs
					v = math.Copysign(0, float64(r.Intn(2))-0.5)
					if r.Intn(7) == 0 {
						v = math.NaN()
					}
				case 2: // few distinct values, many ties
					v = float64(r.Intn(4))
				default: // spread with outliers and NaNs
					v = r.NormFloat64()
					if r.Intn(20) == 0 {
						v *= 100
					}
					if r.Intn(10) == 0 {
						v = math.NaN()
					}
				}
				m.Set(i, j, v)
			}
		}
		return m
	}
	for _, sh := range []struct{ r, c int }{{2000, 20}, {4096, 7}, {1000, 45}} {
		a := build(sh.r, sh.c, int64(sh.r+sh.c))
		if columnSortWork(a) < MinParallelWork {
			t.Fatalf("%dx%d does not fan out", sh.r, sh.c)
		}
		var mode, iqr *Matrix
		withParallelism(1, func() { mode, iqr = ImputeByMode(a), OutlierByIQR(a) })
		for _, p := range []int{2, 4} {
			withParallelism(p, func() {
				if got := ImputeByMode(a); !bitwiseEqual(mode, got) {
					t.Errorf("%dx%d par=%d: ImputeByMode differs from serial", sh.r, sh.c, p)
				}
				if got := OutlierByIQR(a); !bitwiseEqual(iqr, got) {
					t.Errorf("%dx%d par=%d: OutlierByIQR differs from serial", sh.r, sh.c, p)
				}
			})
		}
	}
}
