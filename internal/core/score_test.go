package core

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// scoreEntries is a fixed candidate set exercising every score input:
// varying hit counts, compute costs, sizes and access times. The GPU
// manager's tests pin Eq. (2) on the same six objects.
var scoreEntries = []Entry{
	{Hits: 0, Misses: 1, Jobs: 1, ComputeCost: 0.010, Size: 1 << 20, Height: 1, LastAccess: 0.10},
	{Hits: 3, Misses: 1, Jobs: 2, ComputeCost: 0.002, Size: 4 << 10, Height: 4, LastAccess: 0.90},
	{Hits: 1, Misses: 0, Jobs: 1, ComputeCost: 0.500, Size: 8 << 20, Height: 2, LastAccess: 0.50},
	{Hits: 9, Misses: 2, Jobs: 4, ComputeCost: 0.050, Size: 64 << 10, Height: 8, LastAccess: 0.95},
	{Hits: 0, Misses: 0, Jobs: 0, ComputeCost: 0.0001, Size: 0, Height: 0, LastAccess: 0.01},
	{Hits: 2, Misses: 1, Jobs: 1, ComputeCost: 0.020, Size: 1 << 10, Height: 16, LastAccess: 0.70},
}

// scoreOrder ranks the fixed entries ascending by score (eviction order:
// lowest score goes first), breaking exact ties by index.
func scoreOrder(score func(e *Entry) float64) []int {
	idx := make([]int, len(scoreEntries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return score(&scoreEntries[idx[a]]) < score(&scoreEntries[idx[b]])
	})
	return idx
}

// TestScoreOrderingPinned pins the eviction order each driver-side pool's
// score gives the fixed entries: any change to a formula, its term order
// or its normalization that moves a victim shows here.
func TestScoreOrderingPinned(t *testing.T) {
	maxRatio := 0.0
	for i := range scoreEntries {
		maxRatio = math.Max(maxRatio, cpRatio(&scoreEntries[i]))
	}
	cases := []struct {
		name  string
		score func(e *Entry) float64
		want  []int
	}{
		// Driver cache hybrid: ratio/maxRatio + recency. Entry 4 (zero
		// size, clamped to one byte) holds the max ratio so it ranks late
		// despite being cold; entry 0 (big, cold, cheap) evicts first.
		{"cp", func(e *Entry) float64 { return cpScore(cpRatio(e), e.LastAccess, maxRatio, 1) }, []int{0, 2, 1, 4, 3, 5}},
		// Spark Eq. (1), unnormalized: pure (r_h+r_m+r_j)·c/s ordering.
		{"spark", sparkScore, []int{4, 0, 2, 1, 3, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := scoreOrder(tc.score); !slices.Equal(got, tc.want) {
				t.Fatalf("ordering = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestScoreZeroGuards pins the degenerate normalizers: with no maximum
// ratio and no clock the CP score drops both terms and reads 0, not NaN.
func TestScoreZeroGuards(t *testing.T) {
	e := &Entry{Hits: 1, ComputeCost: 0.1, Size: 100, Height: 2, LastAccess: 0.5}
	if got := cpScore(cpRatio(e), e.LastAccess, 0, 0); got != 0 {
		t.Fatalf("all-zero normalizers: got %v, want 0", got)
	}
}

// TestRatioZeroSizeClamp pins the one-byte clamp for zero-sized objects in
// both driver-side formulas.
func TestRatioZeroSizeClamp(t *testing.T) {
	e := &Entry{Hits: 1, Misses: 2, Jobs: 1, ComputeCost: 0.25, Size: 0}
	if got, want := cpRatio(e), 2*0.25; got != want {
		t.Fatalf("cpRatio = %v, want %v", got, want)
	}
	if got, want := sparkScore(e), 4*0.25; got != want {
		t.Fatalf("sparkScore = %v, want %v", got, want)
	}
}
