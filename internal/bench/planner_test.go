package bench

import (
	"fmt"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/workloads"
)

// TestPlannerCostsPipelinesNoTime runs benchmark pipelines under MPH in the
// environments the benchmark gives them (benchmark/wl_pipe.go; the TLVIS and
// HCV seeds are the ones it derives for them at seed 1), with the memory
// planner on and off at tight driver-cache budgets. On every row the planner
// must cost no virtual time against the planner-off run and leave the output
// bitwise equal. Two planner decisions failed this and were deleted. Early
// frees of block temporaries handed TLVIS's device pointers back mid-block,
// invalidating 41 more GPU cache entries and costing 14.7 % at 5 MB and 1 MB
// (0.034602125 against 0.030173155 s). Lifetime-grouped victim selection,
// dead objects first and soon-reused ones last, made HBAND at 1 MB evict 748
// entries instead of 558 (0.024470586 against 0.019329060 s).
func TestPlannerCostsPipelinesNoTime(t *testing.T) {
	const imgs, side = 16, 16
	tlvis := DefaultEnv()
	tlvis.OpMemBudget = 1 << 30
	tlvis.GPUMinCells = 64
	tlvis.GPUCapacity = int64(imgs*side*side*3*8) * 16
	hband := DefaultEnv()
	hband.OpMemBudget = 16 << 20
	hband.GPUCapacity = 0
	hcv := DefaultEnv()
	hcv.OpMemBudget = 4 << 20
	hcv.GPUCapacity = 0
	regs := []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30}
	buildTLVis := func() *workloads.Workload { return workloads.TLVis(imgs, 4, side, side, 1717211821) }
	for _, tc := range []struct {
		name     string
		env      Env
		cpBudget int64
		out      string
		build    func() *workloads.Workload
	}{
		{"tlvis", tlvis, 5 << 20, "rank", buildTLVis},
		{"tlvis", tlvis, 1 << 20, "rank", buildTLVis},
		{"hband", hband, 1 << 20, "ensScore", func() *workloads.Workload { return workloads.HBand(32000, 64, 3, 4, 3, 50, 10) }},
		{"hcv", hcv, 256 << 10, "best", func() *workloads.Workload { return workloads.HCV(32000, 48, 3, regs, 1125810992) }},
	} {
		t.Run(fmt.Sprintf("%s/%dKB", tc.name, tc.cpBudget>>10), func(t *testing.T) {
			run := func(planner bool) (float64, uint64) {
				e := tc.env
				e.CPBudget = tc.cpBudget
				ctx := MPH.NewContext(e)
				defer ctx.Close()
				ctx.Conf.MemoryPlanner = planner
				w := tc.build()
				compiler.AutoTune(w.Prog)
				compiler.InjectLoopCheckpoints(w.Prog)
				compiler.InjectEvictions(w.Prog)
				secs, err := w.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return secs, ctx.Var(tc.out).M.Checksum()
			}
			offT, offSum := run(false)
			onT, onSum := run(true)
			if onSum != offSum {
				t.Errorf("planner-on %s checksum %#x, planner-off %#x", tc.out, onSum, offSum)
			}
			if onT > offT {
				t.Errorf("planner-on virtual time %.9f s exceeds planner-off %.9f s", onT, offT)
			}
		})
	}
}
