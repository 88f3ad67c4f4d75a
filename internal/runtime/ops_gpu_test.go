package runtime

import (
	"testing"

	"memphis/internal/data"
	"memphis/internal/ir"
)

// runGPUOp executes a single-op program with and without the GPU backend
// and checks the results match: a device placement must compute the value
// its lineage item names on CP.
func runGPUOp(t *testing.T, build func(x *ir.Node) *ir.Node, m *data.Matrix) {
	t.Helper()
	results := make([]*data.Matrix, 2)
	for i, gpuOn := range []bool{false, true} {
		conf := testConfig(ReuseNone)
		conf.Compiler.GPUEnabled = gpuOn
		conf.Compiler.GPUMinCells = 16
		ctx := New(conf)
		ctx.BindHost("X", m)
		p := ir.NewProgram()
		p.Main = []ir.Block{ir.BB(ir.Assign("out", build(ir.Var("X"))))}
		if err := ctx.RunProgram(p); err != nil {
			t.Fatalf("gpu=%v: %v", gpuOn, err)
		}
		if gpuOn && ctx.Stats.GPUInsts == 0 {
			t.Fatal("no GPU instructions placed")
		}
		results[i] = ctx.ensureHost(ctx.Var("out"))
	}
	if !data.AllClose(results[0], results[1], 1e-9) {
		t.Fatalf("GPU result differs from CPU:\n cpu %v\n gpu %v", results[0], results[1])
	}
}

func TestGPUOperatorsMatchLocal(t *testing.T) {
	x := data.RandNorm(16, 16, 0, 1, 51)
	cases := map[string]func(x *ir.Node) *ir.Node{
		"mm":      func(x *ir.Node) *ir.Node { return ir.MatMul(x, x) },
		"tsmm":    func(x *ir.Node) *ir.Node { return ir.TSMM(ir.ReLU(ir.MatMul(x, x))) },
		"t":       func(x *ir.Node) *ir.Node { return ir.T(ir.MatMul(x, x)) },
		"relu":    func(x *ir.Node) *ir.Node { return ir.ReLU(ir.MatMul(x, x)) },
		"sigmoid": func(x *ir.Node) *ir.Node { return ir.Sigmoid(ir.MatMul(x, x)) },
		"softmax": func(x *ir.Node) *ir.Node { return ir.Softmax(ir.MatMul(x, x)) },
		"exp":     func(x *ir.Node) *ir.Node { return ir.Exp(ir.MatMul(x, x)) },
		"add":     func(x *ir.Node) *ir.Node { return ir.Add(ir.MatMul(x, x), x) },
		"mul-lit": func(x *ir.Node) *ir.Node { return ir.Mul(ir.MatMul(x, x), ir.Lit(0.5)) },
		"dropout": func(x *ir.Node) *ir.Node { return ir.Dropout(ir.MatMul(x, x), 0.3, 7) },
		"rowSums": func(x *ir.Node) *ir.Node { return ir.RowSums(ir.MatMul(x, x)) },
		"colSums": func(x *ir.Node) *ir.Node { return ir.ColSums(ir.MatMul(x, x)) },
		"sum":     func(x *ir.Node) *ir.Node { return ir.Sum(ir.MatMul(x, x)) },
		"sub":     func(x *ir.Node) *ir.Node { return ir.Sub(ir.MatMul(x, x), x) },
		"div":     func(x *ir.Node) *ir.Node { return ir.Div(ir.MatMul(x, x), ir.Lit(4)) },
		"min":     func(x *ir.Node) *ir.Node { return ir.Min(ir.MatMul(x, x), x) },
		"max":     func(x *ir.Node) *ir.Node { return ir.Max(ir.MatMul(x, x), x) },
		"abs":     func(x *ir.Node) *ir.Node { return ir.Abs(ir.MatMul(x, x)) },
		"sqrt":    func(x *ir.Node) *ir.Node { return ir.Sqrt(ir.Abs(ir.MatMul(x, x))) },
		"log":     func(x *ir.Node) *ir.Node { return ir.Log(ir.Abs(ir.MatMul(x, x))) },
		"pow":     func(x *ir.Node) *ir.Node { return ir.Pow(ir.MatMul(x, x), 3) },
		// CLEAN transforms the features and keeps the trailing label.
		"scale-skipLast": func(x *ir.Node) *ir.Node {
			return ir.Scale(ir.Sigmoid(ir.MatMul(x, x))).WithAttr("skipLast", "1")
		},
		"minmax-skipLast": func(x *ir.Node) *ir.Node {
			return ir.MinMax(ir.Sigmoid(ir.MatMul(x, x))).WithAttr("skipLast", "1")
		},
	}
	for name, build := range cases {
		build := build
		t.Run(name, func(t *testing.T) { runGPUOp(t, build, x) })
	}
}

func TestGPUConvPoolMatchLocal(t *testing.T) {
	// 4 images of 2x6x6, one conv + pool chain.
	imgs := data.RandNorm(4, 2*6*6, 0, 1, 53)
	conf := testConfig(ReuseNone)
	conf.Compiler.GPUEnabled = true
	conf.Compiler.GPUMinCells = 16
	for _, gpuOn := range []bool{false, true} {
		conf.Compiler.GPUEnabled = gpuOn
		ctx := New(conf)
		ctx.BindHost("X", imgs)
		ctx.BindHost("W", data.RandNorm(4, 2*3*3, 0, 0.2, 54))
		p := ir.NewProgram()
		p.Main = []ir.Block{ir.BB(
			ir.Assign("c", ir.ReLU(ir.Conv2D(ir.Var("X"), ir.Var("W"), 2, 6, 6, 3, 3, 1, 1))),
			ir.Assign("pool", ir.MaxPool(ir.Var("c"), 4, 6, 6, 2, 2, 2)),
			ir.Assign("out", ir.Sum(ir.Var("pool"))),
		)}
		if err := ctx.RunProgram(p); err != nil {
			t.Fatal(err)
		}
		got := ctx.ensureHost(ctx.Var("out")).ScalarValue()
		want := data.Sum(data.MaxPool(data.ReLU(data.Conv2D(imgs,
			data.RandNorm(4, 2*3*3, 0, 0.2, 54), 2, 6, 6, 3, 3, 1, 1)), 4, 6, 6, 2, 2, 2))
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("gpu=%v: out = %g, want %g", gpuOn, got, want)
		}
	}
}

func TestGPUDropoutVarMatchesLocal(t *testing.T) {
	x := data.RandNorm(16, 16, 0, 1, 55)
	for _, gpuOn := range []bool{false, true} {
		conf := testConfig(ReuseNone)
		conf.Compiler.GPUEnabled = gpuOn
		conf.Compiler.GPUMinCells = 16
		ctx := New(conf)
		ctx.BindHost("X", x)
		p := ir.NewProgram()
		p.Main = []ir.Block{
			ir.For("rate", []float64{0.25}, ir.BB(
				ir.Assign("h", ir.DropoutVar(ir.MatMul(ir.Var("X"), ir.Var("X")), ir.Var("rate"), 9)),
				ir.Assign("out", ir.Sum(ir.Var("h"))),
			)),
		}
		if err := ctx.RunProgram(p); err != nil {
			t.Fatal(err)
		}
		want := data.Sum(data.Dropout(data.MatMul(x, x), 0.25, 9))
		got := ctx.ensureHost(ctx.Var("out")).ScalarValue()
		if got != want {
			t.Fatalf("gpu=%v: %g != %g", gpuOn, got, want)
		}
	}
}
