package runtime

import (
	"math"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/ir"
	"memphis/internal/lineage"
)

// Deferred-transpose coverage: a CP `t` binds a value without a buffer, a
// CP `mm` reads its source directly, and every other consumer gets the
// built transpose through ensureHost.

// inst builds a single-output instruction placed on the given backend, the
// way the compiler would have emitted it.
func inst(backend core.Backend, op, out string, rows, cols int, ins ...string) *compiler.Instruction {
	return &compiler.Instruction{
		Kind: compiler.KindOp, Op: op, Inputs: ins, Outputs: []string{out},
		Backend: backend, Shape: ir.Shape{Rows: rows, Cols: cols},
		Flops: float64(rows * cols),
	}
}

func mustExec(t *testing.T, ctx *Context, in *compiler.Instruction) {
	t.Helper()
	if err := ctx.Execute(in); err != nil {
		t.Fatalf("%s: %v", in, err)
	}
}

func wantBitwise(t *testing.T, what string, got, want *data.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: cell %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

func deferred(v *Value) bool { return v.M == nil && v.tSrc != nil }

// TestDeferredTransposeMatMulConsumers: two CP matmuls read a `t` that is
// too large for the driver cache. Both products are bitwise what
// MatMul(Transpose(x), .) gives, every instruction is still put-accounted,
// and the transpose is never built. A non-matmul consumer then builds it.
func TestDeferredTransposeMatMulConsumers(t *testing.T) {
	conf := testConfig(ReuseMemphis)
	conf.Cache.CPBudget = 1 << 10 // t(x) is 48 KB: accounted, never stored
	ctx := New(conf)
	defer ctx.Close()
	x := data.RandNorm(200, 30, 0, 1, 1)
	v1 := data.RandNorm(200, 1, 0, 1, 2)
	v5 := data.RandNorm(200, 5, 0, 1, 3)
	ctx.BindHost("x", x)
	ctx.BindHost("v1", v1)
	ctx.BindHost("v5", v5)

	mustExec(t, ctx, inst(core.BackendCP, "t", "xt", 30, 200, "x"))
	xt := ctx.Var("xt")
	if !deferred(xt) || xt.Rows != 30 || xt.Cols != 200 || xt.SizeBytes() != x.SizeBytes() {
		t.Fatalf("t did not bind a deferred 30x200 value: %+v", xt)
	}
	mustExec(t, ctx, inst(core.BackendCP, "mm", "g1", 30, 1, "xt", "v1"))
	mustExec(t, ctx, inst(core.BackendCP, "mm", "g5", 30, 5, "xt", "v5"))
	ref := data.Transpose(x)
	wantBitwise(t, "g1", ctx.ensureHost(ctx.Var("g1")), data.MatMul(ref, v1))
	wantBitwise(t, "g5", ctx.ensureHost(ctx.Var("g5")), data.MatMul(ref, v5))
	if !deferred(xt) {
		t.Fatal("matmul consumers built the transpose")
	}
	if cs := ctx.Cache.Stats; cs.Puts != 3 || cs.Probes != 3 {
		t.Fatalf("puts/probes = %d/%d, want 3/3 (deferred t must stay accounted)", cs.Puts, cs.Probes)
	}
	if ctx.Stats.CPInsts != 3 {
		t.Fatalf("CPInsts = %d, want 3", ctx.Stats.CPInsts)
	}

	// Elementwise consumer: wants host data, so the value is built once.
	mustExec(t, ctx, inst(core.BackendCP, "+", "s", 30, 200, "xt", "#1"))
	if deferred(xt) || xt.M == nil {
		t.Fatal("elementwise consumer did not materialize the transpose")
	}
	wantBitwise(t, "xt", xt.M, ref)
	wantBitwise(t, "s", ctx.ensureHost(ctx.Var("s")), data.AddScalar(ref, 1))
	// A later matmul uses the built buffer and agrees with the fused path.
	mustExec(t, ctx, inst(core.BackendCP, "mm", "g1b", 30, 1, "xt", "v1"))
	wantBitwise(t, "g1b", ctx.ensureHost(ctx.Var("g1b")), data.MatMul(ref, v1))
}

// TestDeferredTransposeSparkAndGPUConsumers: a CP `t` feeding a Spark and
// a GPU instruction is uploaded as the built transpose.
func TestDeferredTransposeSparkAndGPUConsumers(t *testing.T) {
	conf := testConfig(ReuseNone)
	ctx := New(conf)
	defer ctx.Close()
	x := data.RandNorm(8, 96, 0, 1, 4)
	w := data.RandNorm(8, 3, 0, 1, 5)
	ctx.BindHost("x", x)
	ctx.BindHost("w", w)
	ref := data.MatMul(data.Transpose(x), w)

	mustExec(t, ctx, inst(core.BackendCP, "t", "xt", 96, 8, "x"))
	if !deferred(ctx.Var("xt")) {
		t.Fatal("t not deferred")
	}
	mustExec(t, ctx, inst(core.BackendSpark, "mm", "gs", 96, 3, "xt", "w"))
	if ctx.Stats.SPInsts != 1 || ctx.Var("xt").RDD == nil {
		t.Fatal("matmul did not run distributed over the transposed operand")
	}
	if got := ctx.ensureHost(ctx.Var("gs")); !data.AllClose(got, ref, 1e-12) {
		t.Fatalf("spark mm over deferred t: got %v want %v", got, ref)
	}

	mustExec(t, ctx, inst(core.BackendCP, "t", "xt2", 96, 8, "x"))
	mustExec(t, ctx, inst(core.BackendGPU, "mm", "gg", 96, 3, "xt2", "w"))
	if ctx.Stats.GPUInsts != 1 || ctx.Stats.GPUFallbacks != 0 || !ctx.Var("xt2").HasGPU() {
		t.Fatal("matmul did not run on the device over the transposed operand")
	}
	wantBitwise(t, "gpu mm over deferred t", ctx.ensureHost(ctx.Var("gg")), ref)
}

// TestDeferredTransposeCachedAndHit: a `t` that fits the driver cache is
// built for the put, stored, and a second execution with the same lineage
// hits it.
func TestDeferredTransposeCachedAndHit(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	x := data.RandNorm(40, 7, 0, 1, 6)
	ctx.BindHost("x", x)
	mustExec(t, ctx, inst(core.BackendCP, "t", "a", 7, 40, "x"))
	a := ctx.Var("a")
	if deferred(a) {
		t.Fatal("a stored put must materialize the value")
	}
	e := ctx.Cache.Lookup(a.Lin)
	if e == nil || e.Status != core.StatusCached || e.Matrix != a.M || e.Size != x.SizeBytes() {
		t.Fatalf("t result not stored in the driver cache: %+v", e)
	}
	if ctx.Cache.CPUsed() != x.SizeBytes() {
		t.Fatalf("CPUsed = %d, want %d", ctx.Cache.CPUsed(), x.SizeBytes())
	}
	mustExec(t, ctx, inst(core.BackendCP, "t", "b", 7, 40, "x"))
	if ctx.Stats.Reused != 1 || ctx.Cache.Stats.HitsCP != 1 || ctx.Stats.CPInsts != 1 {
		t.Fatalf("second t did not hit: reused=%d hits=%d cpInsts=%d",
			ctx.Stats.Reused, ctx.Cache.Stats.HitsCP, ctx.Stats.CPInsts)
	}
	wantBitwise(t, "hit value", ctx.ensureHost(ctx.Var("b")), data.Transpose(x))
}

// TestDeferredTransposeDelayedPut: under a delay factor the first put only
// leaves a placeholder, so nothing is built; the repetition that reaches
// the target stores the built matrix.
func TestDeferredTransposeDelayedPut(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	ctx.delayFactor = 2
	x := data.RandNorm(40, 7, 0, 1, 6)
	ctx.BindHost("x", x)
	mustExec(t, ctx, inst(core.BackendCP, "t", "a", 7, 40, "x"))
	if !deferred(ctx.Var("a")) || ctx.Cache.Stats.Placeholders != 1 {
		t.Fatalf("placeholder put built the transpose (placeholders=%d)", ctx.Cache.Stats.Placeholders)
	}
	mustExec(t, ctx, inst(core.BackendCP, "t", "b", 7, 40, "x"))
	if deferred(ctx.Var("b")) || ctx.Cache.Stats.DelayedStores != 1 {
		t.Fatalf("delayed store did not build and keep the transpose (delayedStores=%d)", ctx.Cache.Stats.DelayedStores)
	}
	wantBitwise(t, "stored", ctx.Cache.Lookup(ctx.Var("b").Lin).Matrix, data.Transpose(x))
}

// recordingShared is a SharedCache that misses every probe and keeps what
// is published.
type recordingShared struct{ published map[string]*data.Matrix }

func (r *recordingShared) Probe(string, *lineage.Item, uint64) (*data.Matrix, float64, float64, bool) {
	return nil, 0, 0, false
}

func (r *recordingShared) Publish(_ string, it *lineage.Item, _ uint64, m *data.Matrix, _ float64) (float64, bool) {
	r.published[it.Opcode()] = m
	return 0, true
}

// TestDeferredTransposeSharedPublish: offering a `t` result to the shared
// level hands over the built matrix, also when the local cache is too small
// to keep it.
func TestDeferredTransposeSharedPublish(t *testing.T) {
	conf := testConfig(ReuseMemphis)
	conf.Cache.CPBudget = 1 << 10
	ctx := New(conf)
	defer ctx.Close()
	sh := &recordingShared{published: map[string]*data.Matrix{}}
	ctx.AttachShared(sh, "tenant")
	x := data.RandNorm(64, 9, 0, 1, 7)
	ctx.BindHost("x", x)
	mustExec(t, ctx, inst(core.BackendCP, "t", "xt", 9, 64, "x"))
	got := sh.published["t"]
	if got == nil {
		t.Fatal("t result was not published")
	}
	wantBitwise(t, "published t", got, data.Transpose(x))
	if ctx.Stats.SharedPuts != 1 {
		t.Fatalf("SharedPuts = %d, want 1", ctx.Stats.SharedPuts)
	}
}

// TestRecomputeThroughDeferredValue: the serialized lineage of a gradient
// computed through a deferred transpose recomputes, in a fresh context, to
// the same bits — both for the product and for the transpose itself.
func TestRecomputeThroughDeferredValue(t *testing.T) {
	x := data.RandNorm(120, 11, 0, 1, 8)
	y := data.RandNorm(120, 2, 0, 1, 9)
	prog := ir.NewProgram()
	prog.Main = []ir.Block{ir.BB(
		ir.Assign("xt", ir.T(ir.Var("X"))),
		ir.Assign("g", ir.MatMul(ir.Var("xt"), ir.Var("y"))),
	)}
	conf := testConfig(ReuseMemphis)
	conf.Compiler.OpMemBudget = 1 << 30
	conf.Cache.CPBudget = 1 << 10
	ctx := New(conf)
	defer ctx.Close()
	ctx.BindHost("X", x)
	ctx.BindHost("y", y)
	if err := ctx.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if !deferred(ctx.Var("xt")) {
		t.Fatal("program did not leave xt deferred")
	}
	g := ctx.ensureHost(ctx.Var("g"))
	wantBitwise(t, "g", g, data.MatMul(data.Transpose(x), y))
	for _, name := range []string{"g", "xt"} {
		log := lineage.Serialize(ctx.LMap.Get(name))
		root, err := lineage.Deserialize(log)
		if err != nil {
			t.Fatal(err)
		}
		ctx2 := New(conf)
		ctx2.BindHost("X", x)
		ctx2.BindHost("y", y)
		got, err := Recompute(ctx2, root)
		if err != nil {
			t.Fatalf("recompute %s: %v", name, err)
		}
		wantBitwise(t, "recomputed "+name, got, ctx.ensureHost(ctx.Var(name)))
		ctx2.Close()
	}
}
