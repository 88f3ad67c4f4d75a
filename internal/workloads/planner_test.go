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

// TestPlannerBoundsPeakBitwise is the planner's core acceptance: with the
// budget clamped to half the natural peak, the planned run must produce a
// bitwise-identical result and keep the measured cache peak under the
// budget.
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
			planBlocks, earlyFrees := ctx.Stats.PlanBlocks, ctx.Stats.EarlyFrees
			ctx.Close()

			t.Logf("natural=%d budget=%d peak=%d evict=%d planBlocks=%d earlyFrees=%d vtime %s->%s",
				natural, budget, peak, cs.EvictionsCP, planBlocks, earlyFrees, vtime0, vtime1)
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
// the same tight budget: lifetime-grouped victim selection plus early frees
// must not evict more than the unplanned baseline, and the planner must
// actually engage (planned blocks, and early frees on at least one case).
func TestPlannerHintsReduceEvictions(t *testing.T) {
	var anyFrees int64
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
			anyFrees += ctx.Stats.EarlyFrees
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
	if anyFrees == 0 {
		t.Errorf("no early frees across any planner case")
	}
}

// TestPlannerFreesUnderInjectedEvictions is the interaction property test:
// compiler.InjectEvictions (applied by runPinned) plus planner-inserted
// early frees must never double-free or use a freed value — the ladder
// workload's planned run stays bitwise-identical across kernel parallelism
// 1/4/8 and replays identically under the chaos fault plan.
func TestPlannerFreesUnderInjectedEvictions(t *testing.T) {
	prev := data.Parallelism()
	defer data.SetParallelism(prev)

	run := func(plan *faults.Plan) (string, uint64, core.Stats, int64) {
		ctx := plannerCtx(16<<10, 8<<10, plan, true)
		defer ctx.Close()
		w := PNMF(400, 30, 4, 4, 11)
		vt, sum, cs := runPinned(t, ctx, w, "obj")
		return vt, sum, cs, ctx.Stats.EarlyFrees
	}

	data.SetParallelism(1)
	vt1, sum1, cs1, frees1 := run(nil)
	if frees1 == 0 {
		t.Fatalf("planner inserted no early frees; the interaction is not exercised")
	}
	for _, par := range []int{4, 8} {
		data.SetParallelism(par)
		vt, sum, cs, frees := run(nil)
		if vt != vt1 || sum != sum1 || cs != cs1 || frees != frees1 {
			t.Errorf("parallelism %d diverged: vtime %s (want %s) checksum %#x (want %#x) frees %d (want %d)",
				par, vt, vt1, sum, sum1, frees, frees1)
		}
	}
	data.SetParallelism(1)
	cvt1, csum1, ccs1, cfrees1 := run(faults.Default(1234))
	cvt2, csum2, ccs2, cfrees2 := run(faults.Default(1234))
	if cvt1 != cvt2 || csum1 != csum2 || ccs1 != ccs2 || cfrees1 != cfrees2 {
		t.Errorf("chaos replay with planner not bitwise identical: vtime %s vs %s, checksum %#x vs %#x",
			cvt1, cvt2, csum1, csum2)
	}
	if csum1 != sum1 {
		t.Errorf("chaos result checksum %#x differs from fault-free %#x", csum1, sum1)
	}
}
