package bench

import (
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/workloads"
)

// TestPlannerCostsTLVisNoTime runs TLVIS under MPH in the environment the
// benchmark's pipe-multibackend workload gives it (Fig. 14(d): a device the
// three models cannot share; the seed is the one the benchmark derives for
// it at seed 1), with the memory planner on at the 5 MB driver-cache budget
// and at 1 MB. The planner must cost no virtual time against the planner-off
// run and leave the ranking bitwise equal. A planner that frees block
// temporaries mid-block hands their device pointers back early; here that
// invalidated 41 more GPU cache entries and cost 14.7 % (0.034602125
// against 0.030173155 s).
func TestPlannerCostsTLVisNoTime(t *testing.T) {
	const imgs, side = 16, 16
	env := DefaultEnv()
	env.OpMemBudget = 1 << 30
	env.GPUMinCells = 64
	env.GPUCapacity = int64(imgs*side*side*3*8) * 16
	run := func(cpBudget int64, planner bool) (float64, uint64) {
		e := env
		e.CPBudget = cpBudget
		ctx := MPH.NewContext(e)
		defer ctx.Close()
		ctx.Conf.MemoryPlanner = planner
		w := workloads.TLVis(imgs, 4, side, side, 1717211821)
		compiler.AutoTune(w.Prog)
		compiler.InjectLoopCheckpoints(w.Prog)
		compiler.InjectEvictions(w.Prog)
		secs, err := w.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return secs, ctx.Var("rank").M.Checksum()
	}
	for _, budget := range []int64{5 << 20, 1 << 20} {
		offT, offSum := run(budget, false)
		onT, onSum := run(budget, true)
		if onSum != offSum {
			t.Errorf("CP budget %d: planner-on rank checksum %#x, planner-off %#x", budget, onSum, offSum)
		}
		if onT > offT {
			t.Errorf("CP budget %d: planner-on virtual time %.9f s exceeds planner-off %.9f s", budget, onT, offT)
		}
	}
}
