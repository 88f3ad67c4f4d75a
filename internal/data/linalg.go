package data

import (
	"fmt"
	"math"
)

// MatMul returns a * b, sharded over rows of a: each worker produces a
// disjoint band of output rows. Every output cell accumulates its terms in
// ascending k and skips terms whose left factor is exactly zero, whatever
// kernel serves the shape (matmul_kernels.go), so the result is
// bitwise-identical to the serial ikj loop at every parallelism.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("data: matmul %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	flops := 2 * float64(a.Rows) * float64(a.Cols) * float64(b.Cols)
	parallelFor(a.Rows, flops, func(lo, hi int) {
		switch b.Cols {
		case 1:
			mmRows1(a, b.Data, out.Data, lo, hi)
		case 2:
			mmRows2(a, b.Data, out.Data, lo, hi)
		case 3:
			mmRows3(a, b.Data, out.Data, lo, hi)
		case 4:
			mmRows4(a, b.Data, out.Data, lo, hi)
		default:
			mmRows(a, b, out, lo, hi)
		}
	})
	return out
}

// MatMulT returns a^T * b, bitwise-identical to MatMul(Transpose(a), b),
// without materializing the transpose: the rows of a are streamed once and
// the only buffer allocated is the output. Sharding is over output rows
// (columns of a), like TSMM, so no partial results are merged.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("data: matmulT t(%dx%d) * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	flops := 2 * float64(a.Rows) * float64(a.Cols) * float64(b.Cols)
	parallelFor(a.Cols, flops, func(lo, hi int) {
		switch b.Cols {
		case 1:
			mmtBand1(a, b.Data, out.Data, lo, hi)
		case 2:
			mmtBand2(a, b.Data, out.Data, lo, hi)
		default:
			mmtBand(a, b, out, lo, hi, false)
		}
	})
	return out
}

// transposeBlock is the tile edge for the cache-blocked transpose: 64x64
// float64 tiles (two 32 KB panels) fit comfortably in L1/L2.
const transposeBlock = 64

// Transpose returns a^T using cache-blocked tiles so both the read and the
// write stream touch whole cache lines, sharded over output rows.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	parallelFor(a.Cols, float64(a.Cells()), func(lo, hi int) {
		for jb := lo; jb < hi; jb += transposeBlock {
			jEnd := min(jb+transposeBlock, hi)
			for ib := 0; ib < a.Rows; ib += transposeBlock {
				iEnd := min(ib+transposeBlock, a.Rows)
				for j := jb; j < jEnd; j++ {
					oj := out.Data[j*a.Rows:]
					for i := ib; i < iEnd; i++ {
						oj[i] = a.Data[i*a.Cols+j]
					}
				}
			}
		}
	})
	return out
}

// TSMM returns a^T * a (the self matrix product used by linRegDS) without
// materializing the transpose. Sharding is over output rows (columns of a):
// each worker scans the full input but accumulates only its band of the
// Gram matrix, in the same ascending-row order as the serial loop, keeping
// the result bitwise-identical without a partial-merge step.
func TSMM(a *Matrix) *Matrix {
	n := a.Cols
	out := New(n, n)
	flops := float64(a.Rows) * float64(n) * float64(n)
	parallelFor(n, flops, func(lo, hi int) { mmtBand(a, a, out, lo, hi, true) })
	parallelFor(n, float64(n)*float64(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < i; j++ {
				out.Data[i*n+j] = out.Data[j*n+i]
			}
		}
	})
	return out
}

// Solve solves A x = b for square A. For symmetric positive definite A it
// uses Cholesky; otherwise it falls back to LU with partial pivoting.
func Solve(a, b *Matrix) *Matrix {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("data: solve with non-square A %dx%d", a.Rows, a.Cols))
	}
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("data: solve dim mismatch A %dx%d, b %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if x, ok := solveCholesky(a, b); ok {
		return x
	}
	return solveLU(a, b)
}

// solveCholesky attempts a Cholesky factorization A = L L^T and solves via
// forward/backward substitution. Returns ok=false if A is not SPD.
func solveCholesky(a, b *Matrix) (*Matrix, bool) {
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	// Solve L y = b, then L^T x = y, one right-hand side at a time.
	x := New(n, b.Cols)
	y := make([]float64, n)
	for c := 0; c < b.Cols; c++ {
		for i := 0; i < n; i++ {
			s := b.At(i, c)
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * y[k]
			}
			y[i] = s / l.At(i, i)
		}
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * x.At(k, c)
			}
			x.Set(i, c, s/l.At(i, i))
		}
	}
	return x, true
}

// solveLU solves via LU decomposition with partial pivoting.
func solveLU(a, b *Matrix) *Matrix {
	n := a.Rows
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 {
			panic("data: singular matrix in solve")
		}
		if p != k {
			perm[p], perm[k] = perm[k], perm[p]
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
		}
		piv := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / piv
			lu.Set(i, k, f)
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	x := New(n, b.Cols)
	y := make([]float64, n)
	for c := 0; c < b.Cols; c++ {
		for i := 0; i < n; i++ {
			s := b.At(perm[i], c)
			for k := 0; k < i; k++ {
				s -= lu.At(i, k) * y[k]
			}
			y[i] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= lu.At(i, k) * x.At(k, c)
			}
			x.Set(i, c, s/lu.At(i, i))
		}
	}
	return x
}

// Norm2 returns the Frobenius norm of a.
func Norm2(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// PCA returns the top-k principal component loadings (cols x k) of a,
// computed from the covariance matrix via power iteration with deflation.
// Deterministic given the seed.
func PCA(a *Matrix, k int, seed int64) *Matrix {
	mu := ColMeans(a)
	centered := Sub(a, mu)
	cov := MulScalar(TSMM(centered), 1/float64(a.Rows))
	n := cov.Rows
	if k > n {
		k = n
	}
	comps := New(n, k)
	work := cov.Clone()
	for c := 0; c < k; c++ {
		v := Rand(n, 1, -1, 1, 1, seed+int64(c))
		v = MulScalar(v, 1/Norm2(v))
		var lambda float64
		for it := 0; it < 100; it++ {
			w := MatMul(work, v)
			nw := Norm2(w)
			if nw == 0 {
				break
			}
			v = MulScalar(w, 1/nw)
			lambda = nw
		}
		for i := 0; i < n; i++ {
			comps.Set(i, c, v.Data[i])
		}
		// Deflate: work -= lambda v v^T.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				work.Set(i, j, work.At(i, j)-lambda*v.Data[i]*v.Data[j])
			}
		}
	}
	return comps
}
