package data

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Reference implementations: the plain serial loops the blocked kernels
// must reproduce bit for bit. They live only here.

// refMatMul is the ikj loop: cell (i,j) takes a[i,k]*b[k,j] in ascending k,
// skipping exact zeros of a.
func refMatMul(a, b *Matrix) *Matrix {
	n := b.Cols
	out := New(a.Rows, n)
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		oi := out.Data[i*n : (i+1)*n]
		for k, av := range ai {
			if av == 0 {
				continue
			}
			bk := b.Data[k*n : (k+1)*n]
			for j, bv := range bk {
				oi[j] += av * bv
			}
		}
	}
	return out
}

// refTSMM is the row-streaming Gram loop with the mirrored lower triangle.
func refTSMM(a *Matrix) *Matrix {
	n := a.Cols
	out := New(n, n)
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			oi := out.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				oi[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			out.Data[i*n+j] = out.Data[j*n+i]
		}
	}
	return out
}

func refMatMulT(a, b *Matrix) *Matrix { return refMatMul(naiveTranspose(a), b) }

// lace zeroes roughly one cell in four of m, so unrolled groups of four hit
// every mix of zero and non-zero left factors.
func lace(m *Matrix, rng *rand.Rand) {
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = 0
		}
	}
}

var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

// poisonOpposite places NaN, +-Inf and -0 in row k of right wherever every
// left factor that multiplies that row is zero: in MatMul that is column k
// of left, in MatMulT row k. A kernel that drops the zero skip turns those
// cells into NaN.
func poisonOpposite(left, right *Matrix, transposed bool, rng *rand.Rand) {
	kk := left.Cols
	if transposed {
		kk = left.Rows
	}
	for k := 0; k < kk; k++ {
		if rng.Intn(3) != 0 {
			continue
		}
		if transposed {
			for i := 0; i < left.Cols; i++ {
				left.Data[k*left.Cols+i] = 0
			}
		} else {
			for i := 0; i < left.Rows; i++ {
				left.Data[i*left.Cols+k] = 0
			}
		}
		for j := 0; j < right.Cols; j++ {
			right.Data[k*right.Cols+j] = specials[rng.Intn(len(specials))]
		}
	}
}

func requireBitwise(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if !bitwiseEqual(got, want) {
		t.Fatalf("%s: not bitwise equal to the reference\n got %v\nwant %v", what, got, want)
	}
}

// kernelShapes covers every blocking tail: rows%4, k%4, each skinny width
// and the general path, 1x1, and empty operands. m is the shared dimension
// of MatMulT (rows of both operands) and the row count of MatMul's left.
var kernelShapes = []struct{ m, k int }{
	{0, 0}, {0, 5}, {5, 0}, {1, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 7}, {6, 9}, {7, 6},
	{8, 8}, {9, 5}, {13, 10}, {16, 11}, {33, 17}, {64, 12},
}

var kernelWidths = []int{0, 1, 2, 3, 4, 5, 8, 17}

// TestBlockedKernelsMatchReference compares MatMul, MatMulT and TSMM bit
// for bit against the reference loops over every tail shape, dense and
// zero-laced left operands, and right operands poisoned opposite the zeros,
// at kernel parallelism 1, 4 and 8 (these shapes stay under MinParallelWork;
// TestBlockedKernelsParallelLarge is the one that fans out).
func TestBlockedKernelsMatchReference(t *testing.T) {
	for _, par := range []int{1, 4, 8} {
		withParallelism(par, func() {
			rng := rand.New(rand.NewSource(int64(par)))
			for _, sh := range kernelShapes {
				for _, n := range kernelWidths {
					for variant := 0; variant < 3; variant++ {
						name := fmt.Sprintf("par%d/%dx%d*%d/v%d", par, sh.m, sh.k, n, variant)
						a := RandNorm(sh.m, sh.k, 0, 1, rng.Int63())
						b := RandNorm(sh.k, n, 0, 1, rng.Int63())
						bt := RandNorm(sh.m, n, 0, 1, rng.Int63())
						at := a.Clone()
						if variant >= 1 {
							lace(a, rng)
							lace(at, rng)
						}
						if variant == 2 {
							poisonOpposite(a, b, false, rng)
							poisonOpposite(at, bt, true, rng)
						}
						requireBitwise(t, name+"/MatMul", MatMul(a, b), refMatMul(a, b))
						requireBitwise(t, name+"/MatMulT", MatMulT(at, bt), refMatMulT(at, bt))
						requireBitwise(t, name+"/MatMulT-vs-Transpose", MatMulT(at, bt), MatMul(Transpose(at), bt))
						if n == kernelWidths[0] {
							requireBitwise(t, name+"/TSMM", TSMM(a), refTSMM(a))
						}
					}
				}
			}
		})
	}
}

// TestBlockedKernelsParallelLarge runs shapes above MinParallelWork, where
// parallelFor really fans out, including the skinny 25600x64 shapes of the
// gradient steps at reduced height.
func TestBlockedKernelsParallelLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	x := RandNorm(2049, 67, 0, 1, 1)
	lace(x, rng)
	sq := RandNorm(131, 131, 0, 1, 2)
	lace(sq, rng)
	want := map[string]*Matrix{}
	for _, par := range []int{1, 4, 8} {
		withParallelism(par, func() {
			check := func(what string, got *Matrix, ref func() *Matrix) {
				t.Helper()
				if want[what] == nil {
					want[what] = ref()
				}
				requireBitwise(t, fmt.Sprintf("par%d/%s", par, what), got, want[what])
			}
			for _, n := range []int{1, 2, 3, 4, 5, 9} {
				w := RandNorm(67, n, 0, 1, int64(n))
				v := RandNorm(2049, n, 0, 1, int64(10+n))
				check(fmt.Sprintf("Xw%d", n), MatMul(x, w), func() *Matrix { return refMatMul(x, w) })
				check(fmt.Sprintf("XtV%d", n), MatMulT(x, v), func() *Matrix { return refMatMulT(x, v) })
			}
			check("square", MatMul(sq, sq), func() *Matrix { return refMatMul(sq, sq) })
			check("tsmm", TSMM(x), func() *Matrix { return refTSMM(x) })
		})
	}
}

// TestBlockedKernelsSpecialValues lets NaN, +-Inf and -0 on the right meet
// non-zero left factors too. Which NaN payload an x86 add returns when both
// operands are NaN depends on operand order, which the compiler may choose
// per loop, so here NaN matches any NaN and everything else is bitwise.
func TestBlockedKernelsSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range kernelWidths[1:] {
		a := RandNorm(11, 9, 0, 1, int64(n))
		lace(a, rng)
		b := RandNorm(9, n, 0, 1, int64(n+1))
		bt := RandNorm(11, n, 0, 1, int64(n+2))
		for _, m := range []*Matrix{b, bt} {
			for i := range m.Data {
				if rng.Intn(5) == 0 {
					m.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		pairs := []struct {
			what      string
			got, want *Matrix
		}{
			{"MatMul", MatMul(a, b), refMatMul(a, b)},
			{"MatMulT", MatMulT(a, bt), refMatMulT(a, bt)},
		}
		for _, p := range pairs {
			for i := range p.want.Data {
				g, w := p.got.Data[i], p.want.Data[i]
				if math.IsNaN(g) && math.IsNaN(w) {
					continue
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s n=%d cell %d = %v, want %v", p.what, n, i, g, w)
				}
			}
		}
	}
}

func TestMatMulTShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched MatMulT did not panic")
		}
	}()
	MatMulT(New(3, 2), New(4, 2))
}
