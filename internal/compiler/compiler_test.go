package compiler

import (
	"strings"
	"testing"

	"memphis/internal/core"
	"memphis/internal/ir"
)

func shapes(kv ...interface{}) map[string]ir.Shape {
	env := make(map[string]ir.Shape)
	for i := 0; i < len(kv); i += 2 {
		env[kv[i].(string)] = kv[i+1].(ir.Shape)
	}
	return env
}

func ops(insts []Instruction) []string {
	var out []string
	for _, in := range insts {
		out = append(out, in.Op)
	}
	return out
}

func findOp(insts []Instruction, op string) *Instruction {
	for i := range insts {
		if insts[i].Op == op {
			return &insts[i]
		}
	}
	return nil
}

func TestCompileSimpleBlock(t *testing.T) {
	bb := ir.BB(
		ir.Assign("b", ir.Add(ir.Var("a"), ir.Lit(1))),
		ir.Assign("c", ir.MatMul(ir.Var("b"), ir.Var("b"))),
	)
	insts := CompileBlock(bb, shapes("a", ir.Shape{Rows: 4, Cols: 4}), DefaultConfig())
	if len(insts) != 2 {
		t.Fatalf("insts = %v", ops(insts))
	}
	if insts[0].Op != "+" || insts[0].Output() != "b" {
		t.Fatalf("first inst = %s", insts[0].String())
	}
	if insts[1].Op != "mm" || insts[1].Inputs[0] != "b" || insts[1].Output() != "c" {
		t.Fatalf("second inst = %s", insts[1].String())
	}
	if insts[0].Backend != core.BackendCP {
		t.Fatal("small op must be CP")
	}
}

func TestLiteralOperandInline(t *testing.T) {
	bb := ir.BB(ir.Assign("b", ir.Add(ir.Var("a"), ir.Lit(2.5))))
	insts := CompileBlock(bb, shapes("a", ir.Shape{Rows: 2, Cols: 2}), DefaultConfig())
	if !IsLiteral(insts[0].Inputs[1]) || LiteralValue(insts[0].Inputs[1]) != "2.5" {
		t.Fatalf("literal operand = %q", insts[0].Inputs[1])
	}
}

func TestLocalCSE(t *testing.T) {
	// colMeans(X) appears twice; must compile once.
	bb := ir.BB(
		ir.Assign("a", ir.Sub(ir.Var("X"), ir.ColMeans(ir.Var("X")))),
		ir.Assign("b", ir.Div(ir.Var("a"), ir.ColMeans(ir.Var("X")))),
	)
	insts := CompileBlock(bb, shapes("X", ir.Shape{Rows: 10, Cols: 3}), DefaultConfig())
	n := 0
	for _, in := range insts {
		if in.Op == "colMeans" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("colMeans compiled %d times, want 1 (CSE)", n)
	}
}

func TestTSMMPeephole(t *testing.T) {
	bb := ir.BB(ir.Assign("g", ir.MatMul(ir.T(ir.Var("X")), ir.Var("X"))))
	insts := CompileBlock(bb, shapes("X", ir.Shape{Rows: 100, Cols: 4}), DefaultConfig())
	if findOp(insts, "tsmm") == nil {
		t.Fatalf("expected tsmm rewrite, got %v", ops(insts))
	}
	if findOp(insts, "t") != nil {
		t.Fatal("transpose should be eliminated")
	}
}

func TestCPMMPeephole(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	env := shapes(
		"W", ir.Shape{Rows: 10000, Cols: 10},
		"M", ir.Shape{Rows: 10000, Cols: 20},
	)
	bb := ir.BB(ir.Assign("g", ir.MatMul(ir.T(ir.Var("W")), ir.Var("M"))))
	insts := CompileBlock(bb, env, conf)
	cp := findOp(insts, "cpmm")
	if cp == nil {
		t.Fatalf("expected cpmm, got %v", ops(insts))
	}
	if cp.Backend != core.BackendSpark {
		t.Fatal("cpmm over large inputs must be Spark-placed")
	}
	if cp.Shape != (ir.Shape{Rows: 10, Cols: 20}) {
		t.Fatalf("cpmm shape = %+v", cp.Shape)
	}
}

func TestSparkPlacementBySize(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10 // 1KB
	env := shapes("X", ir.Shape{Rows: 1000, Cols: 100})
	bb := ir.BB(ir.Assign("g", ir.TSMM(ir.Var("X"))))
	insts := CompileBlock(bb, env, conf)
	if insts[0].Backend != core.BackendSpark {
		t.Fatalf("large tsmm placed on %v", insts[0].Backend)
	}
	// Small input stays local.
	insts = CompileBlock(bb, shapes("X", ir.Shape{Rows: 10, Cols: 2}), conf)
	if insts[0].Backend != core.BackendCP {
		t.Fatal("small tsmm must be CP")
	}
}

func TestGPUPlacementAndLocality(t *testing.T) {
	conf := DefaultConfig()
	conf.GPUEnabled = true
	conf.GPUMinCells = 100
	env := shapes(
		"X", ir.Shape{Rows: 64, Cols: 64},
		"W", ir.Shape{Rows: 64, Cols: 64},
	)
	bb := ir.BB(ir.Assign("h", ir.Add(ir.ReLU(ir.MatMul(ir.Var("X"), ir.Var("W"))), ir.Lit(1))))
	insts := CompileBlock(bb, env, conf)
	mm := findOp(insts, "mm")
	relu := findOp(insts, "relu")
	add := findOp(insts, "+")
	if mm.Backend != core.BackendGPU {
		t.Fatal("dense mm must be GPU")
	}
	if relu.Backend != core.BackendGPU {
		t.Fatal("relu must follow its input to the GPU (locality)")
	}
	if add.Backend != core.BackendGPU {
		t.Fatal("elementwise op on a GPU input must stay on GPU")
	}
}

func TestGPUMinCellsGate(t *testing.T) {
	conf := DefaultConfig()
	conf.GPUEnabled = true
	conf.GPUMinCells = 1 << 20
	bb := ir.BB(ir.Assign("h", ir.MatMul(ir.Var("X"), ir.Var("W"))))
	insts := CompileBlock(bb, shapes("X", ir.Shape{Rows: 8, Cols: 8}, "W", ir.Shape{Rows: 8, Cols: 8}), conf)
	if insts[0].Backend != core.BackendCP {
		t.Fatal("tiny mm must not start a GPU chain")
	}
}

func TestPrefetchInsertion(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	conf.Async = true
	env := shapes("X", ir.Shape{Rows: 1000, Cols: 100})
	// tsmm is Spark; solve is CP and consumes it -> prefetch after tsmm.
	bb := ir.BB(
		ir.Assign("g", ir.TSMM(ir.Var("X"))),
		ir.Assign("s", ir.Solve(ir.Var("g"), ir.Var("y"))),
	)
	insts := CompileBlock(bb, env, conf)
	pf := findOp(insts, "prefetch")
	if pf == nil {
		t.Fatalf("expected prefetch, got %v", ops(insts))
	}
	if pf.Kind != KindPrefetch || pf.Inputs[0] != "g" {
		t.Fatalf("prefetch = %s", pf.String())
	}
	// Prefetch must directly follow the tsmm.
	for i, in := range insts {
		if in.Op == "tsmm" {
			if insts[i+1].Kind != KindPrefetch {
				t.Fatal("prefetch must follow the remote chain root")
			}
		}
	}
}

func TestNoPrefetchMidChain(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	conf.Async = true
	env := shapes("X", ir.Shape{Rows: 1000, Cols: 100})
	// exp(X) feeds tsmm (both Spark): no prefetch after exp.
	bb := ir.BB(
		ir.Assign("e", ir.Exp(ir.Var("X"))),
		ir.Assign("g", ir.TSMM(ir.Var("e"))),
		ir.Assign("s", ir.Sum(ir.Var("g"))),
	)
	insts := CompileBlock(bb, env, conf)
	for i, in := range insts {
		if in.Op == "exp" && i+1 < len(insts) && insts[i+1].Kind == KindPrefetch {
			t.Fatal("prefetch inserted mid-chain")
		}
	}
}

func TestBroadcastInsertion(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 12
	conf.Async = true
	env := shapes(
		"X", ir.Shape{Rows: 10000, Cols: 100},
		"y", ir.Shape{Rows: 10000, Cols: 1},
	)
	// t(y) is small/local, feeds a distributed mm -> async broadcast.
	bb := ir.BB(ir.Assign("b", ir.MatMul(ir.T(ir.Var("y")), ir.Var("X"))))
	_ = env["y"]
	// t(y) shape is 1x10000 = 80KB > 4KB budget... use smaller y.
	env["y"] = ir.Shape{Rows: 100, Cols: 1}
	env["X"] = ir.Shape{Rows: 100, Cols: 10000}
	insts := CompileBlock(bb, env, conf)
	if findOp(insts, "broadcast") == nil {
		t.Fatalf("expected broadcast, got %v", ops(insts))
	}
}

func TestCheckpointInjectionSharedSparkOp(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	conf.CheckpointInjection = true
	env := shapes("X", ir.Shape{Rows: 5000, Cols: 100})
	// exp(X) is consumed by two Spark ops -> checkpoint after exp.
	bb := ir.BB(
		ir.Assign("e", ir.Exp(ir.Var("X"))),
		ir.Assign("a", ir.TSMM(ir.Var("e"))),
		ir.Assign("b", ir.ColSums(ir.Var("e"))),
	)
	insts := CompileBlock(bb, env, conf)
	cp := findOp(insts, "chkpoint")
	if cp == nil || cp.Kind != KindCheckpoint {
		t.Fatalf("expected checkpoint, got %v", ops(insts))
	}
}

func TestMaxParallelizeOrdersRemoteFirst(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	conf.MaxParallelize = true
	env := shapes("X", ir.Shape{Rows: 5000, Cols: 100}, "a", ir.Shape{Rows: 4, Cols: 4})
	bb := ir.BB(
		ir.Assign("loc", ir.Add(ir.Var("a"), ir.Lit(1))), // local
		ir.Assign("g", ir.TSMM(ir.Var("X"))),             // short Spark chain
		ir.Assign("h", ir.ColSums(ir.Exp(ir.Var("X")))),  // longer Spark chain
	)
	insts := CompileBlock(bb, env, conf)
	idx := map[string]int{}
	for i, in := range insts {
		idx[in.Op] = i
	}
	// Longest remote chain first, then shorter, locals last.
	if !(idx["exp"] < idx["tsmm"] && idx["tsmm"] < idx["+"]) {
		t.Fatalf("order = %v", ops(insts))
	}
}

func TestMaxParallelizeRespectsCallBarrier(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	conf.MaxParallelize = true
	env := shapes("X", ir.Shape{Rows: 5000, Cols: 100})
	bb := &ir.BasicBlock{Stmts: []ir.Stmt{
		ir.Assign("a", ir.Sum(ir.Var("z"))),
		ir.Call("f", []string{"r"}, ir.Var("a")),
		ir.Assign("g", ir.TSMM(ir.Var("X"))),
	}}
	insts := CompileBlock(bb, env, conf)
	callIdx, tsmmIdx, sumIdx := -1, -1, -1
	for i, in := range insts {
		switch in.Op {
		case "call":
			callIdx = i
		case "tsmm":
			tsmmIdx = i
		case "sum":
			sumIdx = i
		}
	}
	if !(sumIdx < callIdx && callIdx < tsmmIdx) {
		t.Fatalf("call barrier violated: %v", ops(insts))
	}
}

func TestRepeatedAssignmentLastBindingWins(t *testing.T) {
	bb := ir.BB(
		ir.Assign("x", ir.Lit(1)),
		ir.Assign("y", ir.Add(ir.Var("x"), ir.Lit(1))),
		ir.Assign("x", ir.Add(ir.Var("x"), ir.Lit(2))),
	)
	insts := CompileBlock(bb, shapes(), DefaultConfig())
	// The final instruction writing x must be the second add.
	var last *Instruction
	for i := range insts {
		if len(insts[i].Outputs) == 1 && insts[i].Outputs[0] == "x" {
			last = &insts[i]
		}
	}
	if last == nil || last.Op == "lit" {
		t.Fatalf("rebinding lost: %v", ops(insts))
	}
}

func TestAutoTuneDelayFactors(t *testing.T) {
	// Figure-10-like structure: a loop whose block 1 is fully
	// loop-dependent and block 2 is loop-independent.
	dep := ir.BB(ir.Assign("Xi", ir.Mul(ir.Var("X"), ir.Var("i"))))
	indep := ir.BB(
		ir.Assign("c", ir.ImputeMean(ir.Var("X"))),
		ir.Assign("d", ir.OutlierIQR(ir.Var("c"))),
	)
	prog := ir.NewProgram()
	prog.Main = []ir.Block{ir.ForRange("i", 4, dep, indep)}
	AutoTune(prog)
	if dep.DelayFactor != 4 {
		t.Fatalf("loop-dependent block delay = %d, want 4", dep.DelayFactor)
	}
	if indep.DelayFactor != 1 {
		t.Fatalf("loop-independent block delay = %d, want 1", indep.DelayFactor)
	}
	if indep.StorageLevel != "MEMORY_AND_DISK" || dep.StorageLevel != "MEMORY" {
		t.Fatalf("storage levels = %q / %q", indep.StorageLevel, dep.StorageLevel)
	}
}

func TestAutoTunePartialDependence(t *testing.T) {
	mixed := ir.BB(
		ir.Assign("a", ir.ImputeMean(ir.Var("X"))),
		ir.Assign("b", ir.Scale(ir.Var("a"))),
		ir.Assign("c", ir.Mul(ir.Var("b"), ir.Var("lambda"))),
	)
	prog := ir.NewProgram()
	prog.Main = []ir.Block{ir.For("lambda", []float64{0.1, 1}, mixed)}
	AutoTune(prog)
	if mixed.DelayFactor != 2 {
		t.Fatalf("partially dependent block delay = %d, want 2", mixed.DelayFactor)
	}
}

func TestInjectLoopCheckpoints(t *testing.T) {
	body := ir.BB(
		ir.Assign("W", ir.Mul(ir.Var("W"), ir.Var("G"))),
		ir.Assign("G", ir.Add(ir.Var("G"), ir.Lit(1))),
	)
	prog := ir.NewProgram()
	loop := ir.ForRange("i", 3, body)
	prog.Main = []ir.Block{loop}
	InjectLoopCheckpoints(prog)
	last, ok := loop.Body[len(loop.Body)-1].(*ir.BasicBlock)
	if !ok {
		t.Fatal("expected appended checkpoint block")
	}
	var vars []string
	for _, st := range last.Stmts {
		if st.Expr.Op != "chkpoint" {
			t.Fatalf("expected chkpoint stmt, got %s", st.Expr.Op)
		}
		vars = append(vars, st.Targets[0])
	}
	if len(vars) != 2 || vars[0] != "G" || vars[1] != "W" {
		t.Fatalf("checkpointed vars = %v", vars)
	}
}

func TestInjectEvictionsOnPatternShift(t *testing.T) {
	mkLoop := func(kh int) *ir.ForBlock {
		return ir.ForRange("i", 2, ir.BB(
			ir.Assign("c", ir.Conv2D(ir.Var("X"), ir.Var("W"), 3, 8, 8, kh, kh, 1, 0)),
		))
	}
	prog := ir.NewProgram()
	prog.Main = []ir.Block{mkLoop(3), mkLoop(5)}
	InjectEvictions(prog)
	if len(prog.Main) != 3 {
		t.Fatalf("blocks = %d, want 3 (evict between loops)", len(prog.Main))
	}
	if _, ok := prog.Main[1].(*ir.EvictBlock); !ok {
		t.Fatal("expected EvictBlock between differing loops")
	}
	// Identical patterns must NOT trigger eviction.
	prog2 := ir.NewProgram()
	prog2.Main = []ir.Block{mkLoop(3), mkLoop(3)}
	InjectEvictions(prog2)
	if len(prog2.Main) != 2 {
		t.Fatal("identical access patterns must not inject eviction")
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{Op: "mm", Inputs: []string{"a", "b"}, Outputs: []string{"c"},
		Backend: core.BackendGPU}
	if !strings.Contains(in.String(), "GPU mm c <- a,b") {
		t.Fatalf("String() = %q", in.String())
	}
}

func TestMaxParallelizeEmitsChainsBeforeConsumers(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	conf.MaxParallelize = true
	conf.Async = true
	env := shapes(
		"X", ir.Shape{Rows: 1000, Cols: 100},
		"y", ir.Shape{Rows: 1000, Cols: 1},
	)
	// One statement containing two independent Spark chains feeding a
	// local solve: both chains (and their prefetches) must be emitted
	// before the first local consumer, so the jobs overlap (Algorithm 2).
	bb := ir.BB(ir.Assign("beta", ir.Solve(
		ir.Add(ir.TSMM(ir.Var("X")), ir.Lit(0.1)),
		ir.T(ir.MatMul(ir.T(ir.Var("y")), ir.Var("X"))),
	)))
	insts := CompileBlock(bb, env, conf)
	firstLocalConsumer, lastPrefetch := -1, -1
	for i, in := range insts {
		switch {
		case in.Kind == KindPrefetch:
			lastPrefetch = i
		case in.Kind == KindOp && in.Backend == core.BackendCP &&
			in.Op != "assign" && firstLocalConsumer < 0:
			// t(y) is a local producer feeding Spark; skip producers whose
			// output is consumed by Spark ops.
			if in.Op == "t" && i < lastPrefetch {
				continue
			}
			firstLocalConsumer = i
		}
	}
	if lastPrefetch < 0 {
		t.Fatalf("no prefetch inserted: %v", ops(insts))
	}
	nSpark := 0
	for _, in := range insts {
		if in.Kind == KindOp && in.Backend == core.BackendSpark {
			nSpark++
		}
	}
	if nSpark < 2 {
		t.Fatalf("expected two Spark chains, got %d: %v", nSpark, ops(insts))
	}
	// Both prefetches must appear before the solve.
	solveIdx := -1
	nPrefetchBeforeSolve := 0
	for i, in := range insts {
		if in.Op == "solve" {
			solveIdx = i
		}
	}
	for i, in := range insts {
		if in.Kind == KindPrefetch && i < solveIdx {
			nPrefetchBeforeSolve++
		}
	}
	if nPrefetchBeforeSolve < 2 {
		t.Fatalf("prefetches not hoisted before solve: %v", ops(insts))
	}
}

func TestEmitRemoteChainsRespectsWAR(t *testing.T) {
	conf := DefaultConfig()
	conf.OpMemBudget = 1 << 10
	conf.MaxParallelize = true
	env := shapes("W", ir.Shape{Rows: 2000, Cols: 10})
	// Reads old cw (leaf), then rewrites cw from the updated W: the
	// reader must execute before the writer despite the writer rooting a
	// longer remote chain.
	bb := ir.BB(
		ir.Assign("H", ir.Add(ir.Var("cw"), ir.Lit(1))),
		ir.Assign("W", ir.Exp(ir.Var("W"))),
		ir.Assign("cw", ir.ColSums(ir.Var("W"))),
	)
	insts := CompileBlock(bb, env, conf)
	readerIdx, writerIdx := -1, -1
	for i, in := range insts {
		if in.Op == "+" {
			readerIdx = i
		}
		if len(in.Outputs) == 1 && in.Outputs[0] == "cw" {
			writerIdx = i
		}
	}
	if readerIdx < 0 || writerIdx < 0 {
		t.Fatalf("missing instructions: %v", ops(insts))
	}
	if writerIdx < readerIdx {
		t.Fatalf("WAR violated: cw written at %d before read at %d\n%v",
			writerIdx, readerIdx, ops(insts))
	}
}

func TestDefaultConfigDerivedFromCostModel(t *testing.T) {
	// Every pinned baseline was compiled under these two thresholds.
	conf := DefaultConfig()
	if conf.OpMemBudget != 1<<20 {
		t.Fatalf("OpMemBudget = %d, want %d", conf.OpMemBudget, 1<<20)
	}
	if conf.GPUMinCells != 4096 {
		t.Fatalf("GPUMinCells = %d, want 4096", conf.GPUMinCells)
	}
}

// TestKindString: every instruction kind prints its own name.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindOp: "op", KindPrefetch: "prefetch",
		KindBroadcast: "broadcast", KindCheckpoint: "chkpoint", KindFree: "free"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
