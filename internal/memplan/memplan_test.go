package memplan

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/ir"
)

func op(opcode string, out string, outShape ir.Shape, ins []string, inShapes []ir.Shape) compiler.Instruction {
	return compiler.Instruction{
		Kind: compiler.KindOp, Op: opcode,
		Inputs: ins, Outputs: []string{out},
		Backend: core.BackendCP, Shape: outShape, InShapes: inShapes,
	}
}

func sh(r, c int) ir.Shape { return ir.Shape{Rows: r, Cols: c} }

// stream is X(live-in) -> _t0 -> _t1 -> Y, with X re-read at the end.
func testStream() []compiler.Instruction {
	return []compiler.Instruction{
		op("tsmm", "_t0", sh(4, 4), []string{"X"}, []ir.Shape{sh(100, 4)}),
		op("exp", "_t1", sh(4, 4), []string{"_t0"}, []ir.Shape{sh(4, 4)}),
		op("mm", "Y", sh(100, 4), []string{"X", "_t1"}, []ir.Shape{sh(100, 4), sh(4, 4)}),
	}
}

func TestAnalyzeLiveness(t *testing.T) {
	p := Analyze(testStream())
	if p.Insts != 3 {
		t.Fatalf("Insts = %d, want 3", p.Insts)
	}
	want := map[string]Interval{
		"X":   {Name: "X", Def: -1, First: 0, Last: 2, Bytes: 100 * 4 * 8, Uses: 2},
		"_t0": {Name: "_t0", Def: 0, First: 0, Last: 1, Bytes: 4 * 4 * 8, Temp: true, Uses: 1},
		"_t1": {Name: "_t1", Def: 1, First: 1, Last: 2, Bytes: 4 * 4 * 8, Temp: true, Uses: 1},
		"Y":   {Name: "Y", Def: 2, First: 2, Last: 2, Bytes: 100 * 4 * 8, Uses: 0},
	}
	if len(p.Intervals) != len(want) {
		t.Fatalf("got %d intervals, want %d: %+v", len(p.Intervals), len(want), p.Intervals)
	}
	for _, iv := range p.Intervals {
		if w, ok := want[iv.Name]; !ok || iv != w {
			t.Errorf("interval %+v, want %+v", iv, w)
		}
	}
	// Peak: X + _t0 + _t1 + Y, all resident until block end.
	if p.Peak != 6656 {
		t.Errorf("Peak = %d, want 6656", p.Peak)
	}
}

// marshal renders a plan for byte comparison: every field in a fixed
// order, so two equal plans give equal bytes.
func marshal(p *Plan) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "insts=%d peak=%d budget=%d\n", p.Insts, p.Peak, p.Budget)
	for _, iv := range p.Intervals {
		fmt.Fprintf(&b, "iv %s def=%d first=%d last=%d bytes=%d temp=%t uses=%d\n",
			iv.Name, iv.Def, iv.First, iv.Last, iv.Bytes, iv.Temp, iv.Uses)
	}
	for _, n := range p.NoCache {
		fmt.Fprintf(&b, "nocache %s\n", n)
	}
	return []byte(b.String())
}

// TestApplyDeterministic: planning is a pure function of (stream, config) —
// two passes yield byte-identical plans.
func TestApplyDeterministic(t *testing.T) {
	cfg := Config{Budget: 4000}
	p1, p2 := Apply(testStream(), cfg), Apply(testStream(), cfg)
	if !bytes.Equal(marshal(p1), marshal(p2)) {
		t.Errorf("plans differ:\n%s\nvs\n%s", marshal(p1), marshal(p2))
	}
}

// TestApplyGating: cache flips fire only over budget, and then only on CP
// outputs larger than half the budget; a zero budget yields pure analysis.
func TestApplyGating(t *testing.T) {
	if p := Apply(testStream(), Config{Budget: 1 << 30}); len(p.NoCache) != 0 {
		t.Errorf("under-budget stream gained nocache=%v", p.NoCache)
	}
	// 4000 B is under the 6656 B peak, and only Y (3200 B) exceeds half of it.
	p := Apply(testStream(), Config{Budget: 4000})
	if len(p.NoCache) != 1 || p.NoCache[0] != "Y" || !p.SkipCache("Y") || p.SkipCache("_t0") {
		t.Errorf("over-budget nocache = %v, want [Y]", p.NoCache)
	}
	if p := Apply(testStream(), Config{Budget: 0}); len(p.NoCache) != 0 || p.Budget != 0 {
		t.Errorf("zero-budget plan flipped nocache=%v (budget %d)", p.NoCache, p.Budget)
	}
}
