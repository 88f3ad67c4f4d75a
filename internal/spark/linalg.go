package spark

import (
	"memphis/internal/costs"
	"memphis/internal/data"
)

// Distributed linear-algebra operators mirroring SystemDS's SP instruction
// set. These are the physical operators the compiler selects for operations
// whose memory estimates exceed the driver's operation memory.

// TSMM computes X^T X as a shuffle-based single-partition aggregate: every
// partition contributes Xi^T Xi, which are summed behind a shuffle boundary.
func TSMM(x *RDD) *RDD {
	n := x.ncols
	shuffle := int64(x.parts) * int64(n) * int64(n) * 8
	flops := func(int) float64 {
		return costs.MatMulFlops(x.nrows, x.ncols, x.ncols)
	}
	return x.AggregateWide(1, n, n, flops, shuffle,
		func(_ int, all []*data.Matrix) *data.Matrix {
			acc := data.Zeros(n, n)
			for _, p := range all {
				acc = data.Add(acc, data.TSMM(p))
			}
			return acc
		})
}

// MapMM computes X * B for a broadcast right operand (map-side multiply,
// the broadcast join analogue): narrow, no shuffle.
func MapMM(x *RDD, b *Broadcast, bName string) *RDD {
	w := b.Value()
	flops := func(part int) float64 {
		lo, hi := rowsOfPart(x.nrows, x.parts, part)
		return costs.MatMulFlops(hi-lo, x.ncols, w.Cols)
	}
	return x.MapPartitions("mapmm("+bName+")", x.nrows, w.Cols, flops,
		[]*Broadcast{b}, func(part int, p *data.Matrix) *data.Matrix {
			return data.MatMul(p, b.Value())
		})
}

// VecMM computes v^T X for a broadcast row vector v^T (1 x nrows): each
// partition multiplies its slice of v^T with its rows, and the partials are
// summed behind a shuffle into a 1 x ncols result.
func VecMM(vT *Broadcast, x *RDD) *RDD {
	n := x.ncols
	flops := func(int) float64 { return costs.MatMulFlops(1, x.nrows, x.ncols) }
	partial := x.MapPartitions("vecmm-map", x.parts, n, flops,
		[]*Broadcast{vT}, func(part int, p *data.Matrix) *data.Matrix {
			lo, hi := rowsOfPart(x.nrows, x.parts, part)
			vSlice := vT.Value().Slice(0, 1, lo, hi)
			return data.MatMul(vSlice, p)
		})
	shuffle := int64(x.parts) * int64(n) * 8
	return partial.AggregateWide(1, 1, n,
		func(int) float64 { return float64(x.parts * n) }, shuffle,
		func(_ int, all []*data.Matrix) *data.Matrix {
			acc := data.Zeros(1, n)
			for _, p := range all {
				acc = data.Add(acc, p)
			}
			return acc
		})
}

// Elementwise applies a cellwise binary op to two co-partitioned RDDs.
func Elementwise(a, b *RDD, op string, f func(x, y *data.Matrix) *data.Matrix) *RDD {
	flops := func(part int) float64 {
		lo, hi := rowsOfPart(a.nrows, a.parts, part)
		return float64((hi - lo) * a.ncols)
	}
	return ZipPartitions(a, b, a.nrows, a.ncols, flops, func(_ int, pa, pb *data.Matrix) *data.Matrix {
		return f(pa, pb)
	})
}

// MapElementwise applies a cellwise op with a broadcast operand (row/col
// vector or scalar) to every partition.
func MapElementwise(a *RDD, b *Broadcast, op string, f func(x, y *data.Matrix) *data.Matrix) *RDD {
	flops := func(part int) float64 {
		lo, hi := rowsOfPart(a.nrows, a.parts, part)
		return float64((hi - lo) * a.ncols)
	}
	var bcs []*Broadcast
	if b != nil {
		bcs = []*Broadcast{b}
	}
	return a.MapPartitions("mapew"+op, a.nrows, a.ncols, flops, bcs,
		func(part int, p *data.Matrix) *data.Matrix {
			if b == nil {
				return f(p, nil)
			}
			bv := b.Value()
			// Column vectors must be sliced to the partition's rows.
			if bv.Cols == 1 && bv.Rows == a.nrows && a.nrows > 1 {
				lo, hi := rowsOfPart(a.nrows, a.parts, part)
				bv = bv.RowView(lo, hi)
			}
			return f(p, bv)
		})
}

// ColAggregate reduces all partitions into a 1 x ncols result (e.g.
// colSums) behind a shuffle.
func ColAggregate(x *RDD, op string, perPart func(p *data.Matrix) *data.Matrix,
	combine func(a, b *data.Matrix) *data.Matrix) *RDD {
	n := x.ncols
	flops := func(part int) float64 {
		lo, hi := rowsOfPart(x.nrows, x.parts, part)
		return float64((hi - lo) * n)
	}
	partial := x.MapPartitions("colagg-map("+op+")", x.parts, n, flops, nil,
		func(_ int, p *data.Matrix) *data.Matrix { return perPart(p) })
	shuffle := int64(x.parts) * int64(n) * 8
	return partial.AggregateWide(1, 1, n,
		func(int) float64 { return float64(x.parts * n) }, shuffle,
		func(_ int, all []*data.Matrix) *data.Matrix {
			acc := all[0]
			for _, p := range all[1:] {
				acc = combine(acc, p)
			}
			return acc
		})
}

// CPMM computes A^T B for two co-partitioned tall matrices (cross-product
// matrix multiply): each partition pair contributes Ai^T Bi, summed behind
// a shuffle. The compiler rewrites mm(t(A), B) over distributed A to this
// operator so the transpose is never materialized.
func CPMM(a, b *RDD) *RDD {
	if a.parts != b.parts {
		panic("spark: CPMM of differently partitioned RDDs")
	}
	m, n := a.ncols, b.ncols
	flops := func(part int) float64 {
		lo, hi := rowsOfPart(a.nrows, a.parts, part)
		return costs.MatMulFlops(m, hi-lo, n)
	}
	partial := ZipPartitions(a, b, a.parts, m*n, flops,
		func(_ int, pa, pb *data.Matrix) *data.Matrix {
			return data.MatMulT(pa, pb)
		})
	shuffle := int64(a.parts) * int64(m) * int64(n) * 8
	return partial.AggregateWide(1, m, n,
		func(int) float64 { return float64(a.parts * m * n) }, shuffle,
		func(_ int, all []*data.Matrix) *data.Matrix {
			acc := data.Zeros(m, n)
			for _, p := range all {
				// Partials arrive as m*n row blocks of one logical m x n sum.
				acc = data.Add(acc, data.FromSlice(m, n, p.Data))
			}
			return acc
		})
}

// LeftMM computes A X for a small broadcast left operand A (m x nrows) and
// a row-partitioned X: each partition contributes A[:, lo:hi] * Xp, summed
// behind a shuffle into an m x ncols result. VecMM is the m=1 special case.
func LeftMM(a *Broadcast, x *RDD) *RDD {
	av := a.Value()
	m, n := av.Rows, x.ncols
	flops := func(part int) float64 {
		lo, hi := rowsOfPart(x.nrows, x.parts, part)
		return costs.MatMulFlops(m, hi-lo, n)
	}
	partial := x.MapPartitions("leftmm-map", x.parts, m*n, flops,
		[]*Broadcast{a}, func(part int, p *data.Matrix) *data.Matrix {
			lo, hi := rowsOfPart(x.nrows, x.parts, part)
			return data.MatMul(a.Value().Slice(0, m, lo, hi), p)
		})
	shuffle := int64(x.parts) * int64(m) * int64(n) * 8
	return partial.AggregateWide(1, m, n,
		func(int) float64 { return float64(x.parts * m * n) }, shuffle,
		func(_ int, all []*data.Matrix) *data.Matrix {
			acc := data.Zeros(m, n)
			for _, p := range all {
				acc = data.Add(acc, data.FromSlice(m, n, p.Data))
			}
			return acc
		})
}
