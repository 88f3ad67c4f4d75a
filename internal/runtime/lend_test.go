package runtime

import (
	"fmt"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/ir"
	"memphis/internal/lineage"
)

// lendStream is one prepared stream over a bound 64x8 X and 64x8 Y: CP
// G = t(X) %*% X (0) and G = t(Y) %*% Y (1), H = G (2), and Spark rowSums
// of H (3) and of G (4).
func lendStream(ctx *Context) []compiler.Instruction {
	ctx.BindHost("X", data.RandNorm(64, 8, 0, 1, 1))
	ctx.BindHost("Y", data.RandNorm(64, 8, 0, 1, 2))
	tsmm := func(in string) compiler.Instruction {
		return compiler.Instruction{
			Kind: compiler.KindOp, Op: "tsmm", Inputs: []string{in}, Outputs: []string{"G"},
			Shape: ir.Shape{Rows: 8, Cols: 8}, InShapes: []ir.Shape{{Rows: 64, Cols: 8}}, Flops: 4096,
		}
	}
	rowSums := func(in, out string) compiler.Instruction {
		return compiler.Instruction{
			Kind: compiler.KindOp, Op: "rowSums", Inputs: []string{in}, Outputs: []string{out},
			Shape: ir.Shape{Rows: 8, Cols: 1}, InShapes: []ir.Shape{{Rows: 8, Cols: 8}}, Flops: 64,
			Backend: core.BackendSpark,
		}
	}
	stream := []compiler.Instruction{
		tsmm("X"), tsmm("Y"),
		{Kind: compiler.KindOp, Op: "assign", Inputs: []string{"G"}, Outputs: []string{"H"},
			Shape: ir.Shape{Rows: 8, Cols: 8}, InShapes: []ir.Shape{{Rows: 8, Cols: 8}}},
		rowSums("H", "S"), rowSums("G", "T"),
	}
	compiler.Prepare(stream)
	return stream
}

// run executes the stream's instructions at the given positions in one
// frame.
func runAt(t *testing.T, ctx *Context, stream []compiler.Instruction, at ...int) {
	t.Helper()
	for _, i := range at {
		if err := ctx.Execute(&stream[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLentHitKeepsItsRDD: a CP hit assigned to a second name and
// parallelized through it shares its RDD with the first name, as the one
// Value every hit used to get was shared. When the first name rebinds to a
// later hit of the same entry, the second name keeps the RDD and a Spark op
// through it parallelizes nothing, while one through the first name
// parallelizes the new hit again. The Spark counters and the virtual time
// are those of the runtime that allocated a Value per hit.
func TestLentHitKeepsItsRDD(t *testing.T) {
	ctx := New(testConfig(ReuseLIMA))
	defer ctx.Close()
	stream := lendStream(ctx)
	frame := ctx.enterFrame(stream[0].Layout())
	defer ctx.leaveFrame(frame)
	runAt(t, ctx, stream, 0, 0) // a miss, then a hit bound in place
	if ctx.Stats.Reused != 1 {
		t.Fatalf("%d hits, want 1", ctx.Stats.Reused)
	}
	runAt(t, ctx, stream, 2, 3)
	g, h := ctx.LMap.value("G"), ctx.LMap.value("H")
	if g != h || h.RDD == nil {
		t.Fatal("H = G must bind the value G binds, and rowSums(H) must give it an RDD")
	}
	rdd := h.RDD
	runAt(t, ctx, stream, 0) // G rebinds to a second hit of the same entry
	g, h = ctx.LMap.value("G"), ctx.LMap.value("H")
	if g == h || h.RDD != rdd || g.RDD != nil || g.M != h.M {
		t.Fatal("G's second hit must be a value of its own, H must keep its RDD")
	}
	runAt(t, ctx, stream, 3)
	if h.RDD != rdd {
		t.Fatal("rowSums(H) parallelized H again")
	}
	runAt(t, ctx, stream, 4)
	if g.RDD == nil || g.RDD == rdd {
		t.Fatal("rowSums(G) must parallelize G's second hit")
	}
	s, u := ctx.ensureHost(ctx.LMap.value("S")), ctx.ensureHost(ctx.LMap.value("T"))
	if !data.AllClose(s, u, 0) || !data.AllClose(s, data.RowSums(data.TSMM(ctx.Host("X"))), 1e-12) {
		t.Fatal("rowSums through H and through G differ from the local kernel")
	}
	// Pinned from the runtime before hits were bound in place.
	got := fmt.Sprintf("vtime=%.9g spark=%+v reused=%d sp=%d", ctx.Clock.Now(), ctx.SC.Stats, ctx.Stats.Reused, ctx.Stats.SPInsts)
	const want = "vtime=0.202690119 spark={Jobs:2 Stages:2 Tasks:32 PartitionsComputed:32 CacheHits:0 DiskReads:0 DiskSpills:0 PartitionsEvicted:0 ShuffleBytes:0 ShuffleFileReuses:0 CollectBytes:128 BroadcastBytes:0 TaskRetries:0 FetchFailures:0 SpillErrors:0 ExecutorsLost:0 BlocksLost:0} reused=2 sp=3"
	if got != want {
		t.Fatalf("counters\n%s\nwant\n%s", got, want)
	}
}

// TestVarKeepsItsMatrix: the Value Context.Var returns for a hit bound in
// place is lent, so it keeps the hit's matrix after the name rebinds to a
// later hit, and the cell keeps no matrix it no longer binds.
func TestVarKeepsItsMatrix(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	stream := lendStream(ctx)
	frame := ctx.enterFrame(stream[0].Layout())
	defer ctx.leaveFrame(frame)
	runAt(t, ctx, stream, 0, 1, 0) // two misses, then a hit of the first
	v := ctx.Var("G")
	gx := v.M
	if !data.AllClose(gx, data.TSMM(ctx.Host("X")), 1e-12) {
		t.Fatal("G is not t(X) %*% X")
	}
	runAt(t, ctx, stream, 1) // a hit of the second
	if ctx.Stats.Reused != 2 {
		t.Fatalf("%d hits, want 2", ctx.Stats.Reused)
	}
	if v.M != gx || v.Rows != 8 || !data.AllClose(ctx.Host("G"), data.TSMM(ctx.Host("Y")), 1e-12) {
		t.Fatal("the lent value changed when G rebound")
	}
	if ctx.Var("G") == v {
		t.Fatal("G still binds the lent value after rebinding")
	}
	// Neither a lent value nor an unbound name leaves a matrix in the cell.
	c := ctx.LMap.lookup("G")
	if c.v == &c.own || c.own.M != nil {
		t.Fatal("Var left the lent value in the cell's own storage")
	}
	runAt(t, ctx, stream, 0)
	if c.v != &c.own {
		t.Fatal("a hit is not bound in place")
	}
	ctx.removeVar("G")
	if c.own.M != nil {
		t.Fatal("an unbound cell keeps its hit's matrix")
	}
}

// callScript calls a four-output function whose first output is itself a
// hit of the main block's first instruction, from a loop that reads the
// previous iteration's output of an identity call on the loop scalar.
const callScript = `
X = rand(32, 8, -1, 1, 1, 3)
G = t(X) %*% X
f = function(A) -> (B, C, D, E) {
    B = t(A) %*% A
    C = A
    D = sum(A)
    E = A * 2
}
id = function(a) -> (b) {
    b = a
}
[P, Q, R, S] = f(X)
o = 0
acc = 0
for (i in [1, 2, 3]) {
    acc = acc + o
    [o] = id(i)
}
`

// TestCallHitBindsKeysInPlace: a warm deterministic call with callStack
// outputs binds each output's recorded alias (else its cached key) and
// allocates nothing. Values crossing the call boundary are lent: a callee
// return that is a hit bound in the callee's scope, and a loop scalar
// passed as an argument and returned as is, keep their values after the
// callee scope is torn down and the loop variable rebinds.
func TestCallHitBindsKeysInPlace(t *testing.T) {
	prog, err := dml.Parse(callScript)
	if err != nil {
		t.Fatal(err)
	}
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	for run := 0; run < 2; run++ {
		if err := ctx.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		x := ctx.Host("X")
		want := map[string]*data.Matrix{
			"P": data.TSMM(x), "Q": x, "R": data.Scalar(data.Sum(x)), "S": data.MulScalar(x, 2),
			"acc": data.Scalar(3), "o": data.Scalar(3),
		}
		for name, m := range want {
			if got := ctx.Host(name); got == nil || !data.AllClose(got, m, 1e-12) {
				t.Fatalf("run %d: %s = %v, want %v", run, name, got, m)
			}
		}
	}
	if ctx.Stats.FuncReuses == 0 {
		t.Fatal("the second run reused no call")
	}
	cb := ctx.compiledBlock(prog.Main[0].(*ir.BasicBlock))
	call := -1
	for i := range cb.Insts {
		if cb.Insts[i].Op == "call" && cb.Insts[i].Attr("fn") == "f" {
			call = i
		}
	}
	if call < 0 || len(cb.Insts[call].Outputs) != callStack {
		t.Fatalf("no %d-output call to f in the main block", callStack)
	}
	frame := ctx.enterFrame(cb.layout)
	defer ctx.leaveFrame(frame)
	reuses := ctx.Stats.FuncReuses
	allocs := testing.AllocsPerRun(100, func() {
		if err := ctx.execute(&cb.Insts[call]); err != nil {
			t.Fatal(err)
		}
	})
	if ctx.Stats.FuncReuses-reuses != 101 {
		t.Fatalf("%d of 101 warm calls reused", ctx.Stats.FuncReuses-reuses)
	}
	if allocs != 0 {
		t.Fatalf("a warm %d-output call allocates %v objects, want 0", callStack, allocs)
	}
	x := ctx.LMap.Get("X")
	for i, ret := range []string{"B", "C", "D", "E"} {
		name := cb.Insts[call].Outputs[i]
		e := ctx.Cache.Lookup(lineage.NewItem("fnout", "f#"+ret, x))
		if e == nil {
			t.Fatalf("no cache entry for f's output %s", ret)
		}
		want := e.Alias
		if want == nil {
			want = e.Key
		}
		if ctx.LMap.Get(name) != want {
			t.Fatalf("%s does not bind the cached alias or key of f's output %s", name, ret)
		}
	}
}
