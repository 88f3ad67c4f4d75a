package memplan

import (
	"bytes"
	"fmt"
	"slices"
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

// TestAnalyzeLiveness pins the sum's rules: each distinct operand counts
// once, at the largest size it appears with; literal inputs, rebinding
// prefetches and broadcasts, and "_" outputs add nothing.
func TestAnalyzeLiveness(t *testing.T) {
	// Peak: X + _t0 + _t1 + Y, all resident until block end.
	if p := Analyze(testStream()); p.Peak != 6656 {
		t.Errorf("Peak = %d, want 6656", p.Peak)
	}
	rebind := func(kind compiler.Kind) compiler.Instruction {
		return compiler.Instruction{
			Kind: kind, Inputs: []string{"X"}, Outputs: []string{"X"},
			Shape: sh(1000, 1000), InShapes: []ir.Shape{sh(100, 4)},
		}
	}
	for _, tc := range []struct {
		name  string
		extra compiler.Instruction
		peak  int64
	}{
		{"smaller re-read", op("exp", "W", sh(1, 1), []string{"X"}, []ir.Shape{sh(10, 4)}), 6656 + 8},
		{"larger re-read", op("exp", "W", sh(1, 1), []string{"X"}, []ir.Shape{sh(200, 4)}), 6656 + 3200 + 8},
		{"literal input", op("+", "_t0", sh(4, 4), []string{"_t0", "#2"}, []ir.Shape{sh(4, 4), sh(1000, 1000)}), 6656},
		{"prefetch", rebind(compiler.KindPrefetch), 6656},
		{"broadcast", rebind(compiler.KindBroadcast), 6656},
		{"_ output", op("exp", "_", sh(1000, 1000), []string{"Y"}, []ir.Shape{sh(100, 4)}), 6656},
	} {
		if p := Analyze(append(testStream(), tc.extra)); p.Peak != tc.peak {
			t.Errorf("%s: Peak = %d, want %d", tc.name, p.Peak, tc.peak)
		}
	}
}

// marshal renders a plan for byte comparison: every field in a fixed
// order, so two equal plans give equal bytes.
func marshal(p *Plan) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "peak=%d budget=%d\n", p.Peak, p.Budget)
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
	// Y assigned twice is flipped once.
	twice := append(testStream(), testStream()[2])
	if p := Apply(twice, Config{Budget: 4000}); !slices.Equal(p.NoCache, []string{"Y"}) || !p.SkipCache("Y") {
		t.Errorf("twice-assigned nocache = %v, want [Y]", p.NoCache)
	}
	if p := Apply(testStream(), Config{Budget: 0}); len(p.NoCache) != 0 || p.Budget != 0 {
		t.Errorf("zero-budget plan flipped nocache=%v (budget %d)", p.NoCache, p.Budget)
	}
}
