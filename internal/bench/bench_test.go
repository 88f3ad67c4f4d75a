package bench

import (
	"strconv"
	"strings"
	"testing"

	"memphis/internal/workloads"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation section must be
	// registered exactly once.
	want := []string{"table2", "fig2c", "fig2d", "fig11a", "fig11b",
		"fig12a", "fig12b", "table3", "fig13a", "fig13b", "fig13c",
		"fig14a", "fig14b", "fig14c", "fig14d", "ablation"}
	seen := make(map[string]bool)
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Quick == nil || e.Desc == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("experiment %q missing", id)
		}
	}
	if _, err := Find("fig13a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("Find must reject unknown ids")
	}
	if len(Registry()) != len(want) {
		t.Fatalf("Registry() = %d experiments, want %d", len(Registry()), len(want))
	}
}

// timeOf extracts the Time[s] cell of the row matching the system name and
// optional param prefix.
func timeOf(tb *Table, param, system string) float64 {
	for _, r := range tb.Rows {
		if (param == "" || r[0] == param) && r[1] == system {
			v, err := strconv.ParseFloat(r[2], 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

func TestFig2dShape(t *testing.T) {
	tb := Fig2d(20, 128, 1000)
	var compute, alloc, copyOut float64
	for _, r := range tb.Rows {
		v, _ := strconv.ParseFloat(r[1], 64)
		switch r[0] {
		case "compute":
			compute = v
		case "alloc+free":
			alloc = v
		case "copy (D2H)":
			copyOut = v
		}
	}
	// Paper: alloc/free 4.6x, copy 9x of compute; the calibrated model
	// must land in the right regime.
	if alloc < 3*compute || alloc > 8*compute {
		t.Fatalf("alloc/compute = %.1f, want ~4.6", alloc/compute)
	}
	if copyOut < 4*compute || copyOut > 12*compute {
		t.Fatalf("copy/compute = %.1f, want ~9 regime", copyOut/compute)
	}
}

func TestFig2cEagerSlowest(t *testing.T) {
	tb := Fig2c(200, 0.5)
	cell := func(name string) float64 {
		for _, r := range tb.Rows {
			if r[0] == name {
				v, _ := strconv.ParseFloat(r[1], 64)
				return v
			}
		}
		return -1
	}
	none := cell("none")
	eager := cell("eager")
	mph := cell("memphis")
	if eager < 4*none {
		t.Fatalf("eager (%g) must be several times slower than none (%g)", eager, none)
	}
	if mph >= none {
		t.Fatalf("memphis (%g) must beat no caching (%g)", mph, none)
	}
}

func TestFig13bSuperlinearBase(t *testing.T) {
	tb := Fig13b(2000, 40, 8, []int{5, 15})
	base4, base12 := timeOf(tb, "5", "Base"), timeOf(tb, "15", "Base")
	mph12 := timeOf(tb, "15", "MPH")
	// Base re-executes all previous iterations: tripling iterations must
	// grow time far more than 3x.
	if base12 < 4*base4 {
		t.Fatalf("Base not superlinear: %g -> %g", base4, base12)
	}
	if mph12 >= base12 {
		t.Fatal("MPH must beat Base at higher iteration counts")
	}
}

func TestSystemPresetsDistinct(t *testing.T) {
	env := DefaultEnv()
	env.OpMemBudget = 4 << 20
	build := func() *workloads.Workload {
		return workloads.HCV(32000, 48, 2, []float64{0.1, 1, 10}, 7)
	}
	baseT, baseCtx, err := Base.Run(env, build)
	if err != nil {
		t.Fatal(err)
	}
	if baseCtx.Cache.Stats.Probes != 0 {
		t.Fatal("Base must not probe")
	}
	asyncT, _, err := BaseA.Run(env, build)
	if err != nil {
		t.Fatal(err)
	}
	if asyncT >= baseT {
		t.Fatalf("Base-A (%g) must beat Base (%g) via concurrent jobs", asyncT, baseT)
	}
	mphT, mphCtx, err := MPH.Run(env, build)
	if err != nil {
		t.Fatal(err)
	}
	if mphT >= asyncT {
		t.Fatalf("MPH (%g) must beat Base-A (%g)", mphT, asyncT)
	}
	if mphCtx.Stats.ActionReuses == 0 {
		t.Fatal("MPH must reuse Spark actions in HCV")
	}
}

func TestTableString(t *testing.T) {
	tb := Table3()
	s := tb.String()
	if !strings.Contains(s, "PNMF") || !strings.Contains(s, "table3") {
		t.Fatalf("table rendering broken:\n%s", s)
	}
}
