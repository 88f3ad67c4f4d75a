package runtime

import (
	"fmt"
	"strings"
	"testing"

	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/ir"
)

func TestUndefinedFunctionError(t *testing.T) {
	ctx := New(testConfig(ReuseNone))
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(ir.Call("nope", []string{"r"}, ir.Lit(1)))}
	err := ctx.RunProgram(p)
	if err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Fatalf("err = %v", err)
	}
}

func TestCallArityErrors(t *testing.T) {
	p := ir.NewProgram()
	p.Define(&ir.Function{
		Name: "f", Params: []string{"a", "b"}, Returns: []string{"r"},
		Deterministic: true,
		Body:          []ir.Block{ir.BB(ir.Assign("r", ir.Add(ir.Var("a"), ir.Var("b"))))},
	})
	p.Main = []ir.Block{ir.BB(ir.Call("f", []string{"r"}, ir.Lit(1)))}
	ctx := New(testConfig(ReuseNone))
	if err := ctx.RunProgram(p); err == nil || !strings.Contains(err.Error(), "expects 2 args") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingReturnError(t *testing.T) {
	p := ir.NewProgram()
	p.Define(&ir.Function{
		Name: "f", Params: []string{"a"}, Returns: []string{"missing"},
		Deterministic: true,
		Body:          []ir.Block{ir.BB(ir.Assign("other", ir.Var("a")))},
	})
	p.Main = []ir.Block{ir.BB(ir.Call("f", []string{"r"}, ir.Lit(1)))}
	ctx := New(testConfig(ReuseNone))
	if err := ctx.RunProgram(p); err == nil || !strings.Contains(err.Error(), "did not assign return") {
		t.Fatalf("err = %v", err)
	}
}

func TestUndefinedVariableError(t *testing.T) {
	ctx := New(testConfig(ReuseNone))
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(ir.Assign("y", ir.Exp(ir.Var("ghost"))))}
	// Unknown variables default to 1x1 shapes at compile time but fail at
	// execution with a clear message.
	if err := ctx.RunProgram(p); err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("err = %v", err)
	}
}

// TestGPUReferenceIntegrity: after a GPU-heavy program finishes and all
// variables are rebound, no pointer may be leaked in the live list beyond
// the variables that still reference device values.
func TestGPUReferenceIntegrity(t *testing.T) {
	conf := testConfig(ReuseMemphisFine)
	conf.Compiler.GPUEnabled = true
	conf.Compiler.GPUMinCells = 16
	ctx := New(conf)
	ctx.BindHost("X", data.RandNorm(32, 16, 0, 1, 3))
	ctx.BindHost("W", data.RandNorm(16, 16, 0, 0.1, 4))
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.ForRange("i", 4, ir.BB(
		ir.Assign("h", ir.ReLU(ir.MatMul(ir.Var("X"), ir.Var("W")))),
		ir.Assign("h", ir.Sigmoid(ir.MatMul(ir.Var("h"), ir.Var("W")))),
		ir.Assign("s", ir.Sum(ir.Var("h"))),
	))}
	if err := ctx.RunProgram(p); err != nil {
		t.Fatal(err)
	}
	// Live pointers must be exactly those referenced by named variables
	// (plus cache-held entries sit in the free list, not live).
	named := 0
	for _, name := range []string{"X", "W", "h", "s"} {
		if v := ctx.Var(name); v != nil && v.HasGPU() {
			named += v.GPU.RefCount
		}
	}
	if got := ctx.GM.LiveCount(); got > named {
		t.Fatalf("leaked live pointers: live=%d, named refs=%d", got, named)
	}
}

func TestRecomputeMissingInput(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	ctx.BindHost("X", data.Ones(4, 4))
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(ir.Assign("g", ir.TSMM(ir.Var("X"))))}
	if err := ctx.RunProgram(p); err != nil {
		t.Fatal(err)
	}
	li := ctx.LMap.Get("g")
	// A fresh context without X bound cannot recompute.
	ctx2 := New(testConfig(ReuseNone))
	if _, err := Recompute(ctx2, li); err == nil ||
		!strings.Contains(err.Error(), "needs input") {
		t.Fatalf("err = %v", err)
	}
}

func TestRecomputeRejectsOpaqueFunctionItems(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	ctx.BindHost("X", data.Ones(4, 4))
	p := ir.NewProgram()
	p.Define(&ir.Function{
		Name: "f", Params: []string{"a"}, Returns: []string{"r"},
		Deterministic: true,
		Body:          []ir.Block{ir.BB(ir.Assign("r", ir.TSMM(ir.Var("a"))))},
	})
	p.Main = []ir.Block{ir.BB(ir.Call("f", []string{"g"}, ir.Var("X")))}
	if err := ctx.RunProgram(p); err != nil {
		t.Fatal(err)
	}
	// The bound lineage is the fine-grained alias, which recomputes fine.
	li := ctx.LMap.Get("g")
	ctx2 := New(testConfig(ReuseNone))
	ctx2.BindHost("X", data.Ones(4, 4))
	if _, err := Recompute(ctx2, li); err != nil {
		t.Fatalf("alias lineage must recompute: %v", err)
	}
}

// TestBadLiteralErrorsAtExecution: a literal operand that does not parse is
// parsed once, when its stream is prepared, and still fails only when it is
// evaluated, with the message an evaluation-time %g scan gives.
func TestBadLiteralErrorsAtExecution(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	ctx.BindHost("x", data.RandNorm(2, 2, 0, 1, 1))
	var f float64
	_, scanErr := fmt.Sscanf("abc", "%g", &f)
	if scanErr == nil {
		t.Fatal("scanning abc as a float succeeded")
	}
	want := fmt.Sprintf("runtime: bad literal %q: %v", "#abc", scanErr)
	err := ctx.Execute(inst(core.BackendCP, "+", "s", 2, 2, "x", "#abc"))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
}
