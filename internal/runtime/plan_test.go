package runtime

import (
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/ir"
	"memphis/internal/memplan"
)

// TestStreamSigDistinguishesAttrs guards against report-row aliasing: two
// streams identical except for Attrs (e.g. two slices of the same input with
// different bounds) must not share a signature, or the second stream's runs
// would be reported under the first one's plan and instruction listing.
func TestStreamSigDistinguishesAttrs(t *testing.T) {
	mk := func(r0, r1 string) []compiler.Instruction {
		return []compiler.Instruction{{
			Kind: compiler.KindOp, Op: "slice",
			Inputs: []string{"X"}, Outputs: []string{"Y"},
			Attrs:    map[string]string{"r0": r0, "r1": r1, "c0": "0", "c1": "-1"},
			Backend:  core.BackendCP,
			Shape:    ir.Shape{Rows: 100, Cols: 8},
			InShapes: []ir.Shape{{Rows: 200, Cols: 8}},
		}}
	}
	if streamSig(mk("0", "100")) == streamSig(mk("100", "200")) {
		t.Fatalf("streams differing only in attrs share a signature")
	}
	if streamSig(mk("0", "100")) != streamSig(mk("0", "100")) {
		t.Fatalf("identical streams produced different signatures")
	}
}

// TestPlannerDistinguishesSliceBlocks executes the aliasing scenario end to
// end: two blocks whose compiled streams are identical — same op, operands,
// output name, and shapes — except for the slice attrs. The session's
// compile cache persists on the context across programs, so each block must
// still run its own stream; a block-key collision would replay the first
// block's slice bounds for the second.
func TestPlannerDistinguishesSliceBlocks(t *testing.T) {
	cfg := testConfig(ReuseNone)
	cfg.MemPlan = &memplan.Config{Budget: 1 << 20}
	ctx := New(cfg)
	defer ctx.Close()
	ctx.BindHost("X", data.FromSlice(6, 1, []float64{1, 2, 3, 4, 5, 6}))

	run := func(r0, r1 int) float64 {
		prog := ir.NewProgram()
		prog.Main = []ir.Block{
			ir.BB(ir.Assign("s", ir.Sum(ir.Slice(ir.Var("X"), r0, r1, 0, -1)))),
		}
		if err := ctx.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		return ctx.ensureHost(ctx.Var("s")).ScalarValue()
	}
	if got := run(0, 3); got != 6 {
		t.Errorf("sum(X[0:3]) = %g, want 6", got)
	}
	if got := run(3, 6); got != 15 {
		t.Errorf("sum(X[3:6]) = %g, want 15 (a key collision replays the first block's slice)", got)
	}
}
