package runtime

import (
	"errors"
	"testing"

	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/ir"
	"memphis/internal/spark"
)

// faultedConfig returns the multi-backend test config with a fault plan.
func faultedConfig(mode ReuseMode, plan *faults.Plan) Config {
	conf := testConfig(mode)
	conf.Faults = plan
	return conf
}

// TestStageAbortSurfacesAsError: a task that exhausts its attempts unwinds
// as ErrStageAbort and RunProgram converts the panic into an error instead
// of crashing.
func TestStageAbortSurfacesAsError(t *testing.T) {
	conf := faultedConfig(ReuseNone, &faults.Plan{Seed: 1, Sites: map[faults.Site]faults.Trigger{
		faults.SparkTask: {Nth: []int64{1}, Attempts: 4},
	}})
	conf.Compiler.OpMemBudget = 1 << 10 // force Spark placement
	ctx := New(conf)
	defer ctx.Close()
	ctx.BindHost("X", data.RandNorm(60, 6, 2, 1, 31))
	p := ir.NewProgram()
	// Sum is an action: the Spark job (and the injected task failures) run
	// inside RunProgram rather than at a later fetch.
	p.Main = []ir.Block{ir.BB(ir.Assign("out", ir.Sum(ir.TSMM(ir.Var("X")))))}
	err := ctx.RunProgram(p)
	if err == nil {
		t.Fatal("RunProgram must fail when a stage aborts")
	}
	if !errors.Is(err, spark.ErrStageAbort) {
		t.Fatalf("err = %v, want ErrStageAbort", err)
	}
	// The context survives the abort: a fresh (uninjected) run succeeds.
	if err := ctx.RunProgram(p); err != nil {
		t.Fatalf("post-abort run failed: %v", err)
	}
}

// TestStageAbortInCallLeavesCallerScope: a stage that aborts inside a
// function call unwinds the call as its return would have: the caller's
// scope is current again, no frame and no call depth are left over, the
// callee's scope holds no binding, and the session runs the program again.
func TestStageAbortInCallLeavesCallerScope(t *testing.T) {
	conf := faultedConfig(ReuseNone, &faults.Plan{Seed: 1, Sites: map[faults.Site]faults.Trigger{
		faults.SparkTask: {Nth: []int64{1}, Attempts: 4},
	}})
	conf.Compiler.OpMemBudget = 1 << 10 // force Spark placement
	ctx := New(conf)
	defer ctx.Close()
	ctx.BindHost("X", data.RandNorm(60, 6, 2, 1, 31))
	p := ir.NewProgram()
	p.Define(&ir.Function{
		Name: "f", Params: []string{"A"}, Returns: []string{"s"},
		Body: []ir.Block{ir.BB(
			ir.Assign("G", ir.TSMM(ir.Var("A"))),
			ir.Assign("s", ir.Sum(ir.Var("G"))),
		)},
	})
	p.Main = []ir.Block{ir.BB(ir.Call("f", []string{"out"}, ir.Var("X")))}
	if err := ctx.RunProgram(p); !errors.Is(err, spark.ErrStageAbort) {
		t.Fatalf("err = %v, want ErrStageAbort", err)
	}
	if ctx.depth != 0 || ctx.layout != nil || len(ctx.frame) != 0 || len(ctx.frames) != 0 {
		t.Fatalf("after the abort: depth %d, layout %v, %d frame cells, %d stacked", ctx.depth, ctx.layout, len(ctx.frame), len(ctx.frames))
	}
	if ctx.Var("X") == nil || ctx.Var("A") != nil {
		t.Fatal("the caller's scope is not current after the abort")
	}
	for name, c := range ctx.scopes[0] {
		if c.v != nil || c.li != nil {
			t.Fatalf("the aborted call's scope keeps %q bound", name)
		}
	}
	if err := ctx.RunProgram(p); err != nil || ctx.Var("out") == nil {
		t.Fatalf("post-abort run: %v, out bound %t", err, ctx.Var("out") != nil)
	}
}

// TestFaultedRunMatchesFaultFree: at default probabilities every fault is
// absorbed by a recovery path — results are bitwise-identical to a
// fault-free run, and the faulted run replays deterministically.
func TestFaultedRunMatchesFaultFree(t *testing.T) {
	regs := []float64{1e-3, 1e-2, 1e-1}
	run := func(plan *faults.Plan) (*data.Matrix, float64, Stats) {
		conf := faultedConfig(ReuseMemphis, plan)
		conf.Compiler.OpMemBudget = 1 << 12 // mixed CP/Spark placement
		ctx := New(conf)
		defer ctx.Close()
		bindLinRegInputs(ctx, 96, 8)
		if err := ctx.RunProgram(linRegProgram(regs)); err != nil {
			t.Fatalf("faulted run must complete via retries/fallbacks: %v", err)
		}
		out := ctx.ensureHost(ctx.Var("beta")).Clone()
		return out, ctx.Clock.Now(), ctx.Stats
	}
	clean, cleanT, _ := run(nil)
	// A high-probability plan guarantees several faults fire on a workload
	// this small; every one must still be absorbed.
	plan := faults.Default(1234)
	plan.Sites[faults.GPUAlloc] = faults.Trigger{Probability: 0.5}
	plan.Sites[faults.SparkTask] = faults.Trigger{Probability: 0.3}
	faulted, t1, s1 := run(plan)
	replay, t2, s2 := run(plan)
	if !data.AllClose(clean, faulted, 0) || !data.AllClose(faulted, replay, 0) {
		t.Fatal("faulted result differs from fault-free result")
	}
	if t1 != t2 || s1 != s2 {
		t.Fatalf("fault replay diverged: %v/%v vs %v/%v", t1, s1, t2, s2)
	}
	if t1 < cleanT {
		t.Fatal("absorbed faults cannot make the run faster than fault-free")
	}
}

// TestInjectorCountersExposed: the context exposes its injector so callers
// (the serving layer's report) can aggregate per-site failure counts.
func TestInjectorCountersExposed(t *testing.T) {
	ctx := New(faultedConfig(ReuseMemphis, faults.Default(7)))
	defer ctx.Close()
	if ctx.Inj == nil {
		t.Fatal("Config.Faults must install an injector on the context")
	}
	bindLinRegInputs(ctx, 64, 8)
	if err := ctx.RunProgram(linRegProgram([]float64{0.01, 0.1})); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range ctx.Inj.Counts() {
		total += n
	}
	if total != ctx.Inj.Injected() {
		t.Fatalf("Counts sum %d != Injected %d", total, ctx.Inj.Injected())
	}
}

// TestNoFaultPlanNoInjector: without Config.Faults nothing is installed and
// behaviour is byte-for-byte the pre-fault-layer baseline.
func TestNoFaultPlanNoInjector(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	if ctx.Inj != nil {
		t.Fatal("no plan must mean no injector")
	}
}
