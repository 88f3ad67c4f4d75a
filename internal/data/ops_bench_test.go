package data

import (
	"fmt"
	"math"
	"testing"
)

// Benchmarks for the scalar-op and equal-shape binary fast paths. The
// "legacy" variants reproduce the previous implementations (per-cell
// closure through Map, and At/Set index arithmetic with broadcast dispatch
// in binary), so the direct-loop speedup stays measurable in-tree.

func benchMatrices(b *testing.B) (*Matrix, *Matrix) {
	b.Helper()
	prev := Parallelism()
	b.Cleanup(func() { SetParallelism(prev) })
	SetParallelism(1)
	return RandNorm(512, 512, 0, 1, 3), RandNorm(512, 512, 1, 2, 4)
}

// legacyMapScalar is the old AddScalar/MulScalar shape: Map with a closure
// capturing the scalar.
func legacyMapScalar(a *Matrix, f func(float64) float64) *Matrix { return Map(a, f) }

// legacyBinaryEqual is the old equal-shape binary path: per-cell At/Set
// with the broadcast helper, as binary ran before the flat fast path.
func legacyBinaryEqual(a, b *Matrix, f func(x, y float64) float64) *Matrix {
	out := New(a.Rows, a.Cols)
	parallelFor(a.Rows, float64(a.Cells()), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < a.Cols; j++ {
				out.Set(i, j, f(a.At(i, j), broadcastIndex(a, b, i, j)))
			}
		}
	})
	return out
}

func BenchmarkAddScalarLegacy(b *testing.B) {
	m, _ := benchMatrices(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = legacyMapScalar(m, func(x float64) float64 { return x + 1.5 })
	}
}

func BenchmarkAddScalar(b *testing.B) {
	m, _ := benchMatrices(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = AddScalar(m, 1.5)
	}
}

func BenchmarkMulScalarLegacy(b *testing.B) {
	m, _ := benchMatrices(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = legacyMapScalar(m, func(x float64) float64 { return x * 1.5 })
	}
}

func BenchmarkMulScalar(b *testing.B) {
	m, _ := benchMatrices(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MulScalar(m, 1.5)
	}
}

func BenchmarkPowScalarSquareLegacy(b *testing.B) {
	m, _ := benchMatrices(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = legacyMapScalar(m, func(x float64) float64 { return x * x })
	}
}

func BenchmarkPowScalarSquare(b *testing.B) {
	m, _ := benchMatrices(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PowScalar(m, 2)
	}
}

func BenchmarkBinaryEqualShapeLegacy(b *testing.B) {
	m, n := benchMatrices(b)
	add := func(x, y float64) float64 { return x + y }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = legacyBinaryEqual(m, n, add)
	}
}

func BenchmarkBinaryEqualShape(b *testing.B) {
	m, n := benchMatrices(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Add(m, n)
	}
}

// TestScalarFastPathsMatchLegacy pins the fast paths to the legacy
// implementations bitwise, including the broadcast-path equivalence of the
// equal-shape shortcut.
func TestScalarFastPathsMatchLegacy(t *testing.T) {
	m := RandNorm(33, 17, 0, 1, 5)
	n := RandNorm(33, 17, 1, 2, 6)
	pairs := []struct {
		name     string
		got, ref *Matrix
	}{
		{"add-scalar", AddScalar(m, 1.5), legacyMapScalar(m, func(x float64) float64 { return x + 1.5 })},
		{"mul-scalar", MulScalar(m, -2.5), legacyMapScalar(m, func(x float64) float64 { return x * -2.5 })},
		{"pow-square", PowScalar(m, 2), legacyMapScalar(m, func(x float64) float64 { return x * x })},
		{"pow-general", PowScalar(m, 3.5), legacyMapScalar(m, func(x float64) float64 { return math.Pow(x, 3.5) })},
		{"binary-equal", Add(m, n), legacyBinaryEqual(m, n, func(x, y float64) float64 { return x + y })},
	}
	for _, p := range pairs {
		for i := range p.ref.Data {
			if math.Float64bits(p.got.Data[i]) != math.Float64bits(p.ref.Data[i]) {
				t.Errorf("%s: cell %d = %v, want %v", p.name, i, p.got.Data[i], p.ref.Data[i])
				break
			}
		}
	}
}

// Dense-product benchmarks at the gradient-step shapes of the paper's
// Fig. 13(c) pipeline (25600x64 features, 1- and 2-column models). The
// "ref" variants run the reference loops of matmul_kernels_test.go, i.e.
// the kernels as they were before register blocking and, for the
// transposed products, with the transpose materialized.

func benchSkinnyX(b *testing.B) *Matrix {
	b.Helper()
	prev := Parallelism()
	b.Cleanup(func() { SetParallelism(prev) })
	SetParallelism(1)
	return RandNorm(25600, 64, 0, 1, 1)
}

var benchSink *Matrix

func BenchmarkMatMulSkinny(b *testing.B) {
	x := benchSkinnyX(b)
	w1, w2 := RandNorm(64, 1, 0, 1, 2), RandNorm(64, 2, 0, 1, 3)
	v1, v2 := RandNorm(25600, 1, 0, 1, 4), RandNorm(25600, 2, 0, 1, 5)
	cases := []struct {
		name string
		f    func() *Matrix
	}{
		{"Xw", func() *Matrix { return MatMul(x, w1) }},
		{"XW2", func() *Matrix { return MatMul(x, w2) }},
		{"XtV1", func() *Matrix { return MatMulT(x, v1) }},
		{"XtV2", func() *Matrix { return MatMulT(x, v2) }},
		{"Xw-ref", func() *Matrix { return refMatMul(x, w1) }},
		{"XW2-ref", func() *Matrix { return refMatMul(x, w2) }},
		{"XtV1-ref", func() *Matrix { return refMatMul(Transpose(x), v1) }},
		{"XtV2-ref", func() *Matrix { return refMatMul(Transpose(x), v2) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(x.SizeBytes())
			for i := 0; i < b.N; i++ {
				benchSink = c.f()
			}
		})
	}
}

// BenchmarkMatMulT contrasts the fused transposed product with the
// Transpose+MatMul pair it replaces, at a general (non-skinny) width.
func BenchmarkMatMulT(b *testing.B) {
	x := benchSkinnyX(b)
	v := RandNorm(25600, 8, 0, 1, 6)
	b.Run("MatMulT", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = MatMulT(x, v)
		}
	})
	b.Run("Transpose+MatMul", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = MatMul(Transpose(x), v)
		}
	})
}

func BenchmarkTSMM(b *testing.B) {
	x := benchSkinnyX(b)
	b.Run("TSMM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = TSMM(x)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = refTSMM(x)
		}
	})
}

func BenchmarkMatMulSquare(b *testing.B) {
	m, n := benchMatrices(b)
	b.Run("MatMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = MatMul(m, n)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = refMatMul(m, n)
		}
	})
}

// BenchmarkConv2D runs the convolutions of one TLVIS batch (4 images of
// 16x16, "same" padding): AlexNet's 5x5 first layer, the 16-to-32 second
// layer AlexNet and VGG share, VGG's third layer and ResNet's two layers.
// The "ref" variants run the per-pixel gather kept as refConv2D.
func BenchmarkConv2D(b *testing.B) {
	prev := Parallelism()
	b.Cleanup(func() { SetParallelism(prev) })
	SetParallelism(1)
	layers := []struct {
		name               string
		cIn, side, cOut, k int
	}{
		{"alex1", 3, 16, 16, 5},
		{"l2", 16, 8, 32, 3},
		{"vgg3", 32, 4, 64, 3},
		{"res1", 3, 16, 32, 3},
		{"res2", 32, 8, 64, 3},
	}
	for _, l := range layers {
		x := RandNorm(4, l.cIn*l.side*l.side, 0, 1, 8)
		w := RandNorm(l.cOut, l.cIn*l.k*l.k, 0, 0.1, 9)
		flops := int64(2 * 4 * l.cOut * l.side * l.side * l.cIn * l.k * l.k)
		for _, ref := range []bool{false, true} {
			name, conv := l.name, Conv2D
			if ref {
				name, conv = l.name+"/ref", refConv2D
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(flops) // MB/s reads as MFLOP/s
				for i := 0; i < b.N; i++ {
					benchSink = conv(x, w, l.cIn, l.side, l.side, l.k, l.k, 1, l.k/2)
				}
			})
		}
	}
}

// BenchmarkDropout runs an HDROP batch as the pipeline draws it (64 rows of
// 16 hidden units) and a wider one (512 rows of 12 features). The "ref"
// variants seed a fresh 4.9 KB generator per row, which is what the mask is
// defined by.
func BenchmarkDropout(b *testing.B) {
	prev := Parallelism()
	b.Cleanup(func() { SetParallelism(prev) })
	SetParallelism(1)
	for _, sh := range []struct{ r, c int }{{512, 12}, {64, 16}} {
		x := RandNorm(sh.r, sh.c, 0, 1, 7)
		name := fmt.Sprintf("%dx%d", sh.r, sh.c)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Dropout(x, 0.3, int64(i))
			}
		})
		b.Run(name+"/ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = refDropout(x, 0.3, int64(i))
			}
		})
	}
}
