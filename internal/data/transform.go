package data

import (
	"math"
	"math/rand"
	"sort"
)

// Feature transformations used by the cleaning and input-data-pipeline
// workloads. Missing values are NaN.

// ImputeByMean replaces NaNs in each column with the column mean over
// observed values.
func ImputeByMean(a *Matrix) *Matrix {
	out := a.Clone()
	for j := 0; j < a.Cols; j++ {
		sum, n := 0.0, 0
		for i := 0; i < a.Rows; i++ {
			if v := a.At(i, j); !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		for i := 0; i < a.Rows; i++ {
			if math.IsNaN(out.At(i, j)) {
				out.Set(i, j, mean)
			}
		}
	}
	return out
}

// ImputeByMode replaces NaNs in each column with the most frequent observed
// value (ties broken by smaller value for determinism). Columns are sharded
// across the kernel workers; each column is imputed by one worker running
// the serial code, so the result is bitwise that of the serial loop.
func ImputeByMode(a *Matrix) *Matrix {
	out := a.Clone()
	parallelFor(a.Cols, columnSortWork(a), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			imputeColumnByMode(a, out, j)
		}
	})
	return out
}

// imputeColumnByMode replaces the NaNs of column j of out with the mode of
// a's observed values in that column.
func imputeColumnByMode(a, out *Matrix, j int) {
	counts := make(map[float64]int)
	for i := 0; i < a.Rows; i++ {
		if v := a.At(i, j); !math.IsNaN(v) {
			counts[v]++
		}
	}
	mode, best := 0.0, -1
	keys := make([]float64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	for _, k := range keys {
		if counts[k] > best {
			mode, best = k, counts[k]
		}
	}
	for i := 0; i < a.Rows; i++ {
		if math.IsNaN(out.At(i, j)) {
			out.Set(i, j, mode)
		}
	}
}

// OutlierByIQR clamps each column to [q1-1.5*iqr, q3+1.5*iqr]. Columns are
// sharded across the kernel workers like ImputeByMode's.
func OutlierByIQR(a *Matrix) *Matrix {
	out := a.Clone()
	parallelFor(a.Cols, columnSortWork(a), func(lo, hi int) {
		col := make([]float64, 0, a.Rows)
		for j := lo; j < hi; j++ {
			col = clampColumnByIQR(a, out, j, col)
		}
	})
	return out
}

// clampColumnByIQR clamps column j of out from a's observed values; col is
// scratch, returned for reuse.
func clampColumnByIQR(a, out *Matrix, j int, col []float64) []float64 {
	col = col[:0]
	for i := 0; i < a.Rows; i++ {
		if v := a.At(i, j); !math.IsNaN(v) {
			col = append(col, v)
		}
	}
	if len(col) == 0 {
		return col
	}
	sort.Float64s(col)
	q1 := quantileSorted(col, 0.25)
	q3 := quantileSorted(col, 0.75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	for i := 0; i < a.Rows; i++ {
		v := out.At(i, j)
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			out.Set(i, j, lo)
		} else if v > hi {
			out.Set(i, j, hi)
		}
	}
	return col
}

// columnSortWork estimates a per-column sort over a, cells·log2(rows), as
// the work parallelFor weighs against MinParallelWork.
func columnSortWork(a *Matrix) float64 {
	return float64(a.Cells()) * math.Log2(float64(a.Rows)+1)
}

// quantileSorted interpolates the q-quantile of sorted values.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Standardize scales each column to zero mean and unit variance. Columns
// with zero variance are left centered.
func Standardize(a *Matrix) *Matrix {
	mu := ColMeans(a)
	sd := Sqrt(ColVars(a))
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			d := a.At(i, j) - mu.Data[j]
			if sd.Data[j] > 0 {
				d /= sd.Data[j]
			}
			out.Set(i, j, d)
		}
	}
	return out
}

// MinMaxScale maps each column to [0,1]; constant columns become zero.
func MinMaxScale(a *Matrix) *Matrix {
	lo := ColMins(a)
	hi := ColMaxs(a)
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			r := hi.Data[j] - lo.Data[j]
			if r > 0 {
				out.Set(i, j, (a.At(i, j)-lo.Data[j])/r)
			}
		}
	}
	return out
}

// UnderSample balances a binary-labeled dataset by keeping all minority rows
// and a seeded random subset of the majority rows of equal count. y holds
// labels in {0,1} (or {-1,1}); returns the sampled X and y.
func UnderSample(x, y *Matrix, seed int64) (*Matrix, *Matrix) {
	var pos, neg []int
	for i := 0; i < y.Rows; i++ {
		if y.At(i, 0) > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	minority, majority := pos, neg
	if len(pos) > len(neg) {
		minority, majority = neg, pos
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(majority))
	keep := append([]int(nil), minority...)
	for i := 0; i < len(minority) && i < len(majority); i++ {
		keep = append(keep, majority[perm[i]])
	}
	sort.Ints(keep)
	ox := New(len(keep), x.Cols)
	oy := New(len(keep), 1)
	for r, idx := range keep {
		copy(ox.Data[r*x.Cols:(r+1)*x.Cols], x.Data[idx*x.Cols:(idx+1)*x.Cols])
		oy.Data[r] = y.At(idx, 0)
	}
	return ox, oy
}

// Bin performs equi-width binning of each column into nBins bins, producing
// bin codes 1..nBins (NaNs stay NaN).
func Bin(a *Matrix, nBins int) *Matrix {
	lo := ColMins(a)
	hi := ColMaxs(a)
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			v := a.At(i, j)
			if math.IsNaN(v) {
				out.Set(i, j, math.NaN())
				continue
			}
			r := hi.Data[j] - lo.Data[j]
			b := 1
			if r > 0 {
				b = int((v-lo.Data[j])/r*float64(nBins)) + 1
				if b > nBins {
					b = nBins
				}
			}
			out.Set(i, j, float64(b))
		}
	}
	return out
}

// Recode maps the distinct values of each column to dense codes 1..k in
// ascending value order (deterministic). NaNs stay NaN.
func Recode(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		distinct := make(map[float64]struct{})
		for i := 0; i < a.Rows; i++ {
			if v := a.At(i, j); !math.IsNaN(v) {
				distinct[v] = struct{}{}
			}
		}
		keys := make([]float64, 0, len(distinct))
		for k := range distinct {
			keys = append(keys, k)
		}
		sort.Float64s(keys)
		codes := make(map[float64]float64, len(keys))
		for c, k := range keys {
			codes[k] = float64(c + 1)
		}
		for i := 0; i < a.Rows; i++ {
			v := a.At(i, j)
			if math.IsNaN(v) {
				out.Set(i, j, math.NaN())
			} else {
				out.Set(i, j, codes[v])
			}
		}
	}
	return out
}

// OneHot dummy-codes each column of integer codes 1..k into k indicator
// columns; the per-column domain sizes are taken from the data.
func OneHot(a *Matrix) *Matrix {
	domains := make([]int, a.Cols)
	total := 0
	for j := 0; j < a.Cols; j++ {
		maxC := 0
		for i := 0; i < a.Rows; i++ {
			if v := a.At(i, j); !math.IsNaN(v) && int(v) > maxC {
				maxC = int(v)
			}
		}
		domains[j] = maxC
		total += maxC
	}
	out := New(a.Rows, total)
	for i := 0; i < a.Rows; i++ {
		off := 0
		for j := 0; j < a.Cols; j++ {
			v := a.At(i, j)
			if !math.IsNaN(v) {
				c := int(v)
				if c >= 1 && c <= domains[j] {
					out.Set(i, off+c-1, 1)
				}
			}
			off += domains[j]
		}
	}
	return out
}

// ReplaceNaN substitutes NaNs with v.
func ReplaceNaN(a *Matrix, v float64) *Matrix {
	return Map(a, func(x float64) float64 {
		if math.IsNaN(x) {
			return v
		}
		return x
	})
}

// CountNaN returns the number of NaN cells.
func CountNaN(a *Matrix) int {
	n := 0
	for _, v := range a.Data {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}

// OneHotFixed dummy-codes integer codes 1..domain in every column into a
// fixed domain*cols width, independent of which codes appear in the data
// (needed for batch-wise encoding with shared downstream weights).
func OneHotFixed(a *Matrix, domain int) *Matrix {
	out := New(a.Rows, a.Cols*domain)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			v := a.At(i, j)
			if math.IsNaN(v) {
				continue
			}
			c := int(v)
			if c >= 1 && c <= domain {
				out.Set(i, j*domain+c-1, 1)
			}
		}
	}
	return out
}
