// Package data implements the dense linear-algebra and feature-transform
// kernels shared by all simulated backends (CPU, Spark partitions, GPU
// buffers). Matrices are dense, row-major float64; missing values are NaN.
// All randomized operations take explicit seeds so results are reproducible
// and lineage-identified intermediates are exactly recomputable.
//
// Ownership contract: a matrix reachable from more than one owner — through a
// RowView, an RDD partition, a broadcast, a device pointer, a cache entry — is
// immutable, and kernels never write to their arguments. That is what lets
// every hand-off between backends share the buffer instead of copying it;
// callers that need a private buffer to write into take one with Clone, Slice
// or SliceRows.
package data

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialized Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("data: invalid dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps values (length rows*cols) as a matrix without copying.
func FromSlice(rows, cols int, values []float64) *Matrix {
	if len(values) != rows*cols {
		panic(fmt.Sprintf("data: slice len %d != %dx%d", len(values), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: values}
}

// Scalar returns a 1x1 matrix holding v.
func Scalar(v float64) *Matrix { return FromSlice(1, 1, []float64{v}) }

// Zeros returns a rows x cols matrix of zeros.
func Zeros(rows, cols int) *Matrix { return New(rows, cols) }

// Ones returns a rows x cols matrix of ones.
func Ones(rows, cols int) *Matrix { return Fill(rows, cols, 1) }

// Fill returns a rows x cols matrix with every cell set to v.
func Fill(rows, cols int, v float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Rand returns a rows x cols matrix with entries uniform in [min,max) and the
// given fraction of nonzeros (sparsity in (0,1]), generated from seed.
func Rand(rows, cols int, min, max, sparsity float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		if sparsity >= 1 || rng.Float64() < sparsity {
			m.Data[i] = min + rng.Float64()*(max-min)
		}
	}
	return m
}

// RandNorm returns a rows x cols matrix with N(mu, sd) entries from seed.
func RandNorm(rows, cols int, mu, sd float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = mu + sd*rng.NormFloat64()
	}
	return m
}

// Seq returns a column vector [from, from+step, ...] with n entries.
func Seq(from, step float64, n int) *Matrix {
	m := New(n, 1)
	for i := 0; i < n; i++ {
		m.Data[i] = from + float64(i)*step
	}
	return m
}

// At returns the cell (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the cell (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SizeBytes returns the in-memory size of the matrix payload.
func (m *Matrix) SizeBytes() int64 { return int64(m.Rows) * int64(m.Cols) * 8 }

// Cells returns the number of cells.
func (m *Matrix) Cells() int { return m.Rows * m.Cols }

// IsScalar reports whether m is 1x1.
func (m *Matrix) IsScalar() bool { return m.Rows == 1 && m.Cols == 1 }

// ScalarValue returns the single value of a 1x1 matrix.
func (m *Matrix) ScalarValue() float64 {
	if !m.IsScalar() {
		panic(fmt.Sprintf("data: ScalarValue on %dx%d matrix", m.Rows, m.Cols))
	}
	return m.Data[0]
}

// String renders small matrices fully and large ones as a summary.
func (m *Matrix) String() string {
	if m.Cells() <= 36 {
		s := fmt.Sprintf("%dx%d[", m.Rows, m.Cols)
		for i := 0; i < m.Rows; i++ {
			if i > 0 {
				s += "; "
			}
			for j := 0; j < m.Cols; j++ {
				if j > 0 {
					s += " "
				}
				s += fmt.Sprintf("%.4g", m.At(i, j))
			}
		}
		return s + "]"
	}
	return fmt.Sprintf("%dx%d[...%d cells...]", m.Rows, m.Cols, m.Cells())
}

// AllClose reports whether a and b have equal shape and entries within tol,
// treating NaNs in the same position as equal.
func AllClose(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		x, y := a.Data[i], b.Data[i]
		if math.IsNaN(x) || math.IsNaN(y) {
			if math.IsNaN(x) != math.IsNaN(y) {
				return false
			}
			continue
		}
		if math.Abs(x-y) > tol {
			return false
		}
	}
	return true
}

// Slice returns the submatrix of rows [r0,r1) and cols [c0,c1) as a copy.
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("data: slice [%d:%d,%d:%d] out of %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Data[(i-r0)*out.Cols:(i-r0+1)*out.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SliceRows returns rows [r0,r1) as a copy (all columns).
func (m *Matrix) SliceRows(r0, r1 int) *Matrix { return m.Slice(r0, r1, 0, m.Cols) }

// RowView returns rows [r0,r1) without copying: a new header over m's own
// cells, which makes the buffer shared and therefore immutable (see the
// package comment). The slice's capacity ends with the range, so an append
// through the view reallocates instead of reaching the neighbouring rows.
func (m *Matrix) RowView(r0, r1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("data: row view [%d:%d] out of %dx%d", r0, r1, m.Rows, m.Cols))
	}
	return &Matrix{Rows: r1 - r0, Cols: m.Cols, Data: m.Data[r0*m.Cols : r1*m.Cols : r1*m.Cols]}
}

// Col returns column j as an n x 1 copy.
func (m *Matrix) Col(j int) *Matrix { return m.Slice(0, m.Rows, j, j+1) }

// RBind stacks matrices vertically.
func RBind(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("data: RBind of nothing")
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic(fmt.Sprintf("data: RBind col mismatch %d vs %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:], m.Data)
		off += len(m.Data)
	}
	return out
}

// CBind concatenates matrices horizontally.
func CBind(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("data: CBind of nothing")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("data: CBind row mismatch %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		for _, m := range ms {
			copy(out.Data[i*cols+off:i*cols+off+m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
			off += m.Cols
		}
	}
	return out
}

// Diag returns the main diagonal of a square matrix as a column vector, or,
// given a column vector, the diagonal matrix with it on the diagonal.
func Diag(m *Matrix) *Matrix {
	if m.Cols == 1 {
		out := New(m.Rows, m.Rows)
		for i := 0; i < m.Rows; i++ {
			out.Set(i, i, m.Data[i])
		}
		return out
	}
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	out := New(n, 1)
	for i := 0; i < n; i++ {
		out.Data[i] = m.At(i, i)
	}
	return out
}
