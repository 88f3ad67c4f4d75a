package runtime_test

import (
	"testing"

	"memphis/internal/memplan"
	"memphis/internal/runtime"
	"memphis/internal/workloads"
)

// TestPlannerNeverRaisesPeak: the planner's rewrites only end residencies
// early and flip cache decisions, so no block's planned peak exceeds the
// peak of the stream the compiler emitted. The runs are the tree's tight
// planned runs: ridge.dml and HBAND under a 16 KB driver cache, and the
// workloads package's planner cases at half their natural cache peak.
func TestPlannerNeverRaisesPeak(t *testing.T) {
	conf := func(planner bool, cpBudget, opMem int64) runtime.Config {
		c := keyConfig(planner)
		c.Compiler.GPUEnabled, c.GPUCapacity = false, 0
		c.Compiler.OpMemBudget = opMem
		c.Cache.CPBudget = cpBudget
		return c
	}
	check := func(t *testing.T, c runtime.Config, run func(*runtime.Context) error) {
		t.Helper()
		ctx := runtime.New(c)
		defer ctx.Close()
		if err := run(ctx); err != nil {
			t.Fatal(err)
		}
		streams := runtime.CompiledStreams(ctx)
		if len(streams) == 0 {
			t.Fatal("the session compiled nothing")
		}
		for _, cb := range streams {
			if cb.Plan == nil {
				t.Fatal("a block compiled without a plan")
			}
			if compiled := memplan.Analyze(cb.Insts).Peak; cb.Plan.Peak > compiled {
				t.Errorf("planned peak %d B exceeds the compiled stream's %d B (%d -> %d instructions)",
					cb.Plan.Peak, compiled, len(cb.Insts), len(cb.Planned))
			}
		}
	}
	workload := func(w *workloads.Workload) func(*runtime.Context) error {
		return func(ctx *runtime.Context) error { _, err := w.Run(ctx); return err }
	}

	t.Run("ridge.dml", func(t *testing.T) {
		p := parseScript(t, "../../examples/scripts/ridge.dml", nil)
		check(t, conf(true, 16<<10, 7<<20), func(ctx *runtime.Context) error { return ctx.RunProgram(p) })
	})
	t.Run("hband", func(t *testing.T) {
		check(t, conf(true, 16<<10, 16<<20), workload(workloads.HBand(1500, 16, 3, 4, 3, 50, 13)))
	})
	for _, tc := range []struct {
		name  string
		opMem int64
		build func() *workloads.Workload
	}{
		{"hcv", 2 << 20, func() *workloads.Workload { return workloads.HCV(800, 16, 2, []float64{0.1, 1, 0.1}, 7) }},
		{"l2svm", 1 << 30, func() *workloads.Workload { return workloads.L2SVMMicro(4000, 48, 3, []float64{0.1, 1, 10}, 37) }},
		{"pnmf", 8 << 10, func() *workloads.Workload { return workloads.PNMF(400, 30, 4, 4, 11) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := runtime.New(conf(false, 1<<30, tc.opMem))
			if err := workload(tc.build())(ctx); err != nil {
				t.Fatal(err)
			}
			natural := ctx.Cache.CPPeak()
			ctx.Close()
			check(t, conf(true, natural/2, tc.opMem), workload(tc.build()))
		})
	}
}
