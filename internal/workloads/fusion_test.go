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

// fusedCtx builds a full-MEMPHIS context with the elementwise fusion pass
// and the buffer arena enabled (plus the memory planner, so planner free
// points feed the arena), mirroring tightCtx otherwise.
func fusedCtx(cpBudget, opMem int64, plan *faults.Plan) *runtime.Context {
	comp := compiler.DefaultConfig()
	comp.OpMemBudget = opMem
	comp.Async = true
	comp.MaxParallelize = true
	comp.CheckpointInjection = true
	comp.Fusion = true
	cache := core.DefaultConfig()
	cache.CPBudget = cpBudget
	return runtime.New(runtime.Config{
		Mode:          runtime.ReuseMemphis,
		Compiler:      comp,
		Cache:         cache,
		Spark:         spark.DefaultConfig(),
		Faults:        plan,
		MemoryPlanner: true,
		Arena:         true,
	})
}

// TestFusedWorkloadEquivalence checks the representative pinned workloads
// end to end: with fusion and the arena on, every workload's output
// checksum equals the plain pipeline's, at kernel parallelism 1, 4, and 8.
// (Virtual times legitimately differ — fused chains interpret once and
// skip intermediate cache traffic — so only outputs are compared.)
func TestFusedWorkloadEquivalence(t *testing.T) {
	prev := data.Parallelism()
	defer data.SetParallelism(prev)

	cases := []struct {
		name  string
		out   string
		opMem int64
		build func() *Workload
	}{
		{"hcv", "best", 2 << 20, func() *Workload { return HCV(800, 16, 2, []float64{0.1, 1, 0.1}, 7) }},
		{"l2svm", "acc", 1 << 30, func() *Workload { return L2SVMMicro(4000, 48, 3, []float64{0.1, 1, 10}, 37) }},
		{"pnmf", "obj", 8 << 10, func() *Workload { return PNMF(400, 30, 4, 4, 11) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data.SetParallelism(1)
			ctx := tightCtx(16<<20, 0, false, tc.opMem, nil)
			_, plainSum, _ := runPinned(t, ctx, tc.build(), tc.out)
			ctx.Close()

			var fusedSum uint64
			for i, par := range []int{1, 4, 8} {
				data.SetParallelism(par)
				fctx := fusedCtx(16<<20, tc.opMem, nil)
				_, sum, _ := runPinned(t, fctx, tc.build(), tc.out)
				fctx.Close()
				if sum != plainSum {
					t.Errorf("parallelism %d: fused checksum %#x != plain %#x", par, sum, plainSum)
				}
				if i == 0 {
					fusedSum = sum
				} else if sum != fusedSum {
					t.Errorf("parallelism %d: fused checksum %#x != parallelism-1 fused %#x", par, sum, fusedSum)
				}
			}
		})
	}
}

// TestFusedChaosReplay replays PNMF under the chaos fault plan with fusion
// and the arena on: two runs with the same seed must be bitwise identical
// (virtual time, checksum, counters), and recovery must preserve the
// fault-free result.
func TestFusedChaosReplay(t *testing.T) {
	run := func(plan *faults.Plan) (string, uint64, core.Stats) {
		ctx := fusedCtx(32<<10, 8<<10, plan)
		defer ctx.Close()
		return runPinned(t, ctx, PNMF(400, 30, 4, 4, 11), "obj")
	}
	_, cleanSum, _ := run(nil)
	v1, s1, c1 := run(faults.Default(1234))
	v2, s2, c2 := run(faults.Default(1234))
	if v1 != v2 || s1 != s2 || c1 != c2 {
		t.Errorf("chaos replay not bitwise identical: vtime %s vs %s, checksum %#x vs %#x, stats %+v vs %+v",
			v1, v2, s1, s2, c1, c2)
	}
	if s1 != cleanSum {
		t.Errorf("chaos result checksum %#x differs from fault-free %#x", s1, cleanSum)
	}
}
