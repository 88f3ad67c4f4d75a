package workloads

import (
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/runtime"
	"memphis/internal/spark"
)

// plannerCtx builds a full-MEMPHIS CP/Spark context like tightCtx, with the
// compile-time memory planner, which plans under cpBudget, when planner is set.
func plannerCtx(cpBudget, opMem int64, plan *faults.Plan, planner bool) *runtime.Context {
	comp := compiler.DefaultConfig()
	comp.OpMemBudget = opMem
	comp.Async = true
	comp.MaxParallelize = true
	comp.CheckpointInjection = true
	cache := core.DefaultConfig()
	cache.CPBudget = cpBudget
	return runtime.New(runtime.Config{
		Mode:          runtime.ReuseMemphis,
		Compiler:      comp,
		Cache:         cache,
		Spark:         spark.DefaultConfig(),
		Faults:        plan,
		MemoryPlanner: planner,
	})
}

// plannerCases are the workloads the planner must bound: each runs under a
// driver cache budget at most half its natural (unbounded) peak.
var plannerCases = []struct {
	name  string
	out   string
	opMem int64
	build func() *Workload
}{
	{"hcv", "best", 2 << 20, func() *Workload { return HCV(800, 16, 2, []float64{0.1, 1, 0.1}, 7) }},
	{"l2svm", "acc", 1 << 30, func() *Workload { return L2SVMMicro(4000, 48, 3, []float64{0.1, 1, 10}, 37) }},
	{"pnmf", "obj", 8 << 10, func() *Workload { return PNMF(400, 30, 4, 4, 11) }},
}

// TestPlannerBoundsPeakBitwise: with the budget clamped to half the natural
// peak, the planned run produces a bitwise-identical result and the planner
// runs. The measured cache peak stays under the budget too, but that check
// shows nothing about the planner: the driver cache never exceeds its own
// budget, planner on or off.
func TestPlannerBoundsPeakBitwise(t *testing.T) {
	for _, tc := range plannerCases {
		t.Run(tc.name, func(t *testing.T) {
			// Natural (unbounded) run: reference checksum and peak.
			ctx := plannerCtx(1<<30, tc.opMem, nil, false)
			vtime0, sum0, _ := runPinned(t, ctx, tc.build(), tc.out)
			natural := ctx.Cache.CPPeak()
			ctx.Close()
			if natural == 0 {
				t.Fatalf("natural run cached nothing")
			}
			budget := natural / 2

			ctx = plannerCtx(budget, tc.opMem, nil, true)
			vtime1, sum1, cs := runPinned(t, ctx, tc.build(), tc.out)
			peak := ctx.Cache.CPPeak()
			planBlocks := ctx.Stats.PlanBlocks
			ctx.Close()

			t.Logf("natural=%d budget=%d peak=%d evict=%d planBlocks=%d vtime %s->%s",
				natural, budget, peak, cs.EvictionsCP, planBlocks, vtime0, vtime1)
			if sum1 != sum0 {
				t.Errorf("planned checksum %#x, want %#x (bitwise identity broken)", sum1, sum0)
			}
			if peak > budget {
				t.Errorf("measured cache peak %d exceeds budget %d", peak, budget)
			}
			if planBlocks == 0 {
				t.Errorf("planner never ran")
			}
		})
	}
}

// TestPlannerHintsReduceEvictions compares planner-on and planner-off under
// the same half-peak budget: on these three cases the planned run evicts no
// more than the unplanned baseline. The drop is the cache flips' doing (hcv
// goes from 3 evictions to 0; l2svm and pnmf read the same either way), and
// it is a property of the cases, not of the planner.
func TestPlannerHintsReduceEvictions(t *testing.T) {
	for _, tc := range plannerCases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := plannerCtx(1<<30, tc.opMem, nil, false)
			_, sum0, _ := runPinned(t, ctx, tc.build(), tc.out)
			budget := ctx.Cache.CPPeak() / 2
			ctx.Close()

			ctx = plannerCtx(budget, tc.opMem, nil, false)
			_, sumOff, csOff := runPinned(t, ctx, tc.build(), tc.out)
			ctx.Close()

			ctx = plannerCtx(budget, tc.opMem, nil, true)
			_, sumOn, csOn := runPinned(t, ctx, tc.build(), tc.out)
			ctx.Close()

			t.Logf("budget=%d evictOff=%d evictOn=%d", budget, csOff.EvictionsCP, csOn.EvictionsCP)
			if sumOff != sum0 || sumOn != sum0 {
				t.Errorf("checksums diverged: off %#x on %#x want %#x", sumOff, sumOn, sum0)
			}
			if csOn.EvictionsCP > csOff.EvictionsCP {
				t.Errorf("planner-on evicted more than planner-off: %d > %d", csOn.EvictionsCP, csOff.EvictionsCP)
			}
		})
	}
}

// TestPlannerUnderInjectedEvictions is the interaction property test:
// compiler.InjectEvictions (applied by runPinned) under the planner's cache
// flips — the ladder workload's planned run stays
// bitwise-identical across kernel parallelism 1/4/8 and replays identically
// under the chaos fault plan.
func TestPlannerUnderInjectedEvictions(t *testing.T) {
	prev := data.Parallelism()
	defer data.SetParallelism(prev)

	var planBlocks int64
	run := func(plan *faults.Plan) (string, uint64, core.Stats) {
		ctx := plannerCtx(16<<10, 8<<10, plan, true)
		defer ctx.Close()
		vt, sum, cs := runPinned(t, ctx, PNMF(400, 30, 4, 4, 11), "obj")
		planBlocks = ctx.Stats.PlanBlocks
		return vt, sum, cs
	}

	data.SetParallelism(1)
	vt1, sum1, cs1 := run(nil)
	if planBlocks == 0 {
		t.Fatalf("no planned stream executed; the interaction is not exercised")
	}
	for _, par := range []int{4, 8} {
		data.SetParallelism(par)
		vt, sum, cs := run(nil)
		if vt != vt1 || sum != sum1 || cs != cs1 {
			t.Errorf("parallelism %d diverged: vtime %s (want %s) checksum %#x (want %#x)",
				par, vt, vt1, sum, sum1)
		}
	}
	data.SetParallelism(1)
	cvt1, csum1, ccs1 := run(faults.Default(1234))
	cvt2, csum2, ccs2 := run(faults.Default(1234))
	if cvt1 != cvt2 || csum1 != csum2 || ccs1 != ccs2 {
		t.Errorf("chaos replay with planner not bitwise identical: vtime %s vs %s, checksum %#x vs %#x",
			cvt1, cvt2, csum1, csum2)
	}
	if csum1 != sum1 {
		t.Errorf("chaos result checksum %#x differs from fault-free %#x", csum1, sum1)
	}
}
