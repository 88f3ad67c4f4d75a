package memctl

import (
	"math"
	"sort"
	"testing"
)

// fixedEntries is a shared candidate set exercising every score term:
// varying hit counts, compute costs, sizes, heights, and access times.
var fixedEntries = []Candidate{
	{Hits: 0, Misses: 1, Jobs: 1, ComputeCost: 0.010, Size: 1 << 20, Height: 1, LastAccess: 0.10},
	{Hits: 3, Misses: 1, Jobs: 2, ComputeCost: 0.002, Size: 4 << 10, Height: 4, LastAccess: 0.90},
	{Hits: 1, Misses: 0, Jobs: 1, ComputeCost: 0.500, Size: 8 << 20, Height: 2, LastAccess: 0.50},
	{Hits: 9, Misses: 2, Jobs: 4, ComputeCost: 0.050, Size: 64 << 10, Height: 8, LastAccess: 0.95},
	{Hits: 0, Misses: 0, Jobs: 0, ComputeCost: 0.0001, Size: 0, Height: 0, LastAccess: 0.01},
	{Hits: 2, Misses: 1, Jobs: 1, ComputeCost: 0.020, Size: 1 << 10, Height: 16, LastAccess: 0.70},
}

// ordering ranks the fixed entries ascending by Score (eviction order:
// lowest score goes first), breaking exact ties by index.
func ordering(w Weights, n Norms) []int {
	idx := make([]int, len(fixedEntries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return Score(fixedEntries[idx[a]], w, n) < Score(fixedEntries[idx[b]], w, n)
	})
	return idx
}

// TestScoreOrderingPinned pins the exact eviction ordering each backend's
// weight preset produces on the fixed entry set. This is the satellite-1
// guard: any change to Score's formula, term order, or normalization that
// alters victim selection for any backend must show up here.
func TestScoreOrderingPinned(t *testing.T) {
	now := 1.0
	cases := []struct {
		name string
		w    Weights
		n    Norms
		want []int
	}{
		// Driver cache hybrid: ratio/maxRatio + recency. Entry 4 (zero
		// size, clamped to one byte) holds the max ratio so it ranks late
		// despite being cold; entry 0 (big, cold, cheap) evicts first.
		{"cp", CPWeights, Norms{MaxRatio: maxRatioOf(false), Now: now}, []int{0, 2, 1, 4, 3, 5}},
		// Spark Eq. (1), unnormalized: pure (r_h+r_m+r_j)·c/s ordering.
		{"spark", SparkWeights, Norms{MaxRatio: 1}, []int{4, 0, 2, 1, 3, 5}},
		// GPU Eq. (2): recency + 1/height + cost. The deep (h=16) cheap
		// entry 5 evicts first; the max-cost entry 2 survives longest.
		{"gpu", GPUWeights, Norms{Now: now, MaxCost: 0.5}, []int{5, 4, 0, 1, 3, 2}},
		// Block manager LRU: recency only — pure access-time order.
		{"lru", LRUWeights, Norms{Now: now}, []int{4, 0, 2, 5, 1, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ordering(tc.w, tc.n)
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ordering = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// maxRatioOf is the CostSize normalizer of the fixed entries: their
// largest Ratio.
func maxRatioOf(eqOne bool) float64 {
	max := 0.0
	for _, c := range fixedEntries {
		if r := Ratio(c, eqOne); r > max {
			max = r
		}
	}
	return max
}

// TestScoreBitExactCP verifies Score with CP weights reproduces the
// historical cpScore formula bit for bit: ratio/maxRatio + last/now with
// left-to-right accumulation.
func TestScoreBitExactCP(t *testing.T) {
	now := 0.734
	maxRatio := maxRatioOf(false)
	for i, c := range fixedEntries {
		s := float64(c.Size)
		if s <= 0 {
			s = 1
		}
		ratio := float64(c.Hits+1) * c.ComputeCost / s
		want := 0.0
		if maxRatio > 0 {
			want += ratio / maxRatio
		}
		if now > 0 {
			want += c.LastAccess / now
		}
		got := Score(c, CPWeights, Norms{MaxRatio: maxRatio, Now: now})
		if got != want {
			t.Fatalf("entry %d: Score=%v historical=%v (diff %g)", i, got, want, got-want)
		}
	}
}

// TestScoreBitExactSpark verifies Spark Eq. (1) with MaxRatio=1 keeps the
// raw unnormalized ratio exactly (x/1 == x in IEEE 754).
func TestScoreBitExactSpark(t *testing.T) {
	for i, c := range fixedEntries {
		s := float64(c.Size)
		if s <= 0 {
			s = 1
		}
		want := float64(c.Hits+c.Misses+c.Jobs) * c.ComputeCost / s
		got := Score(c, SparkWeights, Norms{MaxRatio: 1})
		if got != want {
			t.Fatalf("entry %d: Score=%v Eq.(1)=%v", i, got, want)
		}
	}
}

// TestScoreBitExactGPU verifies Score with GPU weights reproduces the
// historical manager score: ta + 1/h + c with the same guards.
func TestScoreBitExactGPU(t *testing.T) {
	now := 0.123
	maxCost := 0.5
	for i, c := range fixedEntries {
		ta := 0.0
		if now > 0 {
			ta = c.LastAccess / now
		}
		h := float64(c.Height)
		if h < 1 {
			h = 1
		}
		cc := 0.0
		if maxCost > 0 {
			cc = c.ComputeCost / maxCost
		}
		want := ta + 1/h + cc
		got := Score(c, GPUWeights, Norms{Now: now, MaxCost: maxCost})
		if got != want {
			t.Fatalf("entry %d: Score=%v historical=%v", i, got, want)
		}
	}
}

// TestScoreZeroGuards pins the degenerate-norm behavior the historical
// evictors relied on: no normalizer → term disabled, not NaN/Inf.
func TestScoreZeroGuards(t *testing.T) {
	c := Candidate{Hits: 1, ComputeCost: 0.1, Size: 100, Height: 2, LastAccess: 0.5}
	if got := Score(c, CPWeights, Norms{}); got != 0 {
		t.Fatalf("all-zero norms: got %v, want 0", got)
	}
	if got := Score(c, GPUWeights, Norms{}); got != 0.5 {
		t.Fatalf("GPU with zero now/maxCost keeps only 1/h: got %v, want 0.5", got)
	}
	if got := Score(Candidate{}, GPUWeights, Norms{Now: 1, MaxCost: 1}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero candidate must stay finite, got %v", got)
	}
}

// TestRatioZeroSizeClamp pins the one-byte clamp for zero-sized objects.
func TestRatioZeroSizeClamp(t *testing.T) {
	c := Candidate{Hits: 1, ComputeCost: 0.25, Size: 0}
	if got, want := Ratio(c, false), 2*0.25; got != want {
		t.Fatalf("Ratio=%v want %v", got, want)
	}
}
