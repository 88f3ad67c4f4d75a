package main

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"memphis"
	"memphis/internal/dml"
)

// TestParseReuse: every documented mode resolves to its own value, and a
// misspelt one is refused with the valid modes listed instead of running
// with reuse off.
func TestParseReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want memphis.Reuse
	}{
		{"full", memphis.ReuseFull},
		{"fine", memphis.ReuseFine},
		{"local", memphis.ReuseLocal},
		{"coarse", memphis.ReuseCoarse},
		{"off", memphis.ReuseOff},
	} {
		if got, err := parseReuse(tc.name); err != nil || got != tc.want {
			t.Errorf("parseReuse(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, bad := range []string{"ful", "", "FULL", "none"} {
		_, err := parseReuse(bad)
		if err == nil {
			t.Errorf("parseReuse(%q) accepted an unknown mode", bad)
		} else if !strings.Contains(err.Error(), "full|fine|local|coarse|off") {
			t.Errorf("parseReuse(%q): %v does not list the valid modes", bad, err)
		}
	}
}

// runRidge runs examples/scripts/ridge.dml under the options
// `memphis-run [-plan] -membudget 16384` builds.
func runRidge(t *testing.T, planner bool) *memphis.Session {
	t.Helper()
	src, err := os.ReadFile("../../examples/scripts/ridge.dml")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := dml.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	s := memphis.New(memphis.Options{
		Reuse:         memphis.ReuseFull,
		MemoryPlanner: planner,
		MemoryBudgets: memphis.MemoryBudgets{CP: 16384},
	})
	t.Cleanup(func() { s.Close() })
	if err := s.Run(prog); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRidgeCacheFlipsPinned pins the one shipped run where the planner's
// cache flips fire: ridge.dml at a 16 KB CP budget. Each plan's peak is the
// sum of its operands' bytes, and a flip fires only where that sum exceeds
// the budget, so a change to the sum moves the flips and the figures here.
// The planner-off run at the same budget is the baseline the flips beat.
func TestRidgeCacheFlipsPinned(t *testing.T) {
	for _, tc := range []struct {
		planner     bool
		vtime       string
		hits, evict int64
	}{
		{true, "0.000618492", 1, 18},
		{false, "0.000690492", 1, 21},
	} {
		s := runRidge(t, tc.planner)
		st, cs := s.Stats(), s.CacheStats()
		if vt := fmt.Sprintf("%.6g", s.VirtualTime()); vt != tc.vtime ||
			st.Instructions != 55 || cs.HitsCP != tc.hits || cs.EvictionsCP != tc.evict {
			t.Errorf("planner=%t: %s virtual s, %d instructions, %d CP hits, %d evictions; want %s, 55, %d, %d",
				tc.planner, vt, st.Instructions, cs.HitsCP, cs.EvictionsCP, tc.vtime, tc.hits, tc.evict)
		}
		if !tc.planner {
			if n := len(s.PlanReports()); n != 0 {
				t.Errorf("planner off reported %d plans", n)
			}
			continue
		}
		// Each eviction counts once, in its innermost planned stream:
		// plan 2 is beta's body, which plan 1's loop body calls.
		want := []struct {
			peak    int64
			noCache []string
			evict   int64
		}{
			{560256, []string{"X", "_t1", "_t2", "y"}, 0},
			{576032, []string{"_t1", "_t2", "_t3"}, 0},
			{1056904, []string{"_t2"}, 18},
			{8, nil, 0},
		}
		reports := s.PlanReports()
		if len(reports) != len(want) {
			t.Fatalf("%d plans, want %d", len(reports), len(want))
		}
		var evicted int64
		for i, r := range reports {
			evicted += r.Evictions
			if r.PeakBytes != want[i].peak || !reflect.DeepEqual(r.NoCache, want[i].noCache) || r.Evictions != want[i].evict {
				t.Errorf("plan %d: peak %d, no_cache %v, %d evictions; want %d, %v, %d",
					i, r.PeakBytes, r.NoCache, r.Evictions, want[i].peak, want[i].noCache, want[i].evict)
			}
		}
		if evicted > cs.EvictionsCP {
			t.Errorf("plan rows claim %d evictions, the run made %d", evicted, cs.EvictionsCP)
		}
		// A report's flip list is the caller's own: editing it changes
		// neither a later report nor the plan's flips.
		reports[2].NoCache[0] = "edited"
		if got := s.PlanReports()[2].NoCache; !reflect.DeepEqual(got, []string{"_t2"}) {
			t.Errorf("after editing a report, plan 2 no_cache %v, want [_t2]", got)
		}
	}
}
