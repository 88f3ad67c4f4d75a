package compiler

import (
	"fmt"
	"slices"
	"testing"

	"memphis/internal/lineage"
)

// TestPrepareLayout: Prepare lists a stream's distinct names once, in
// first-use order; every operand and output slot names its operand or
// output, a literal has slot -1, the lineage prefix is lineage.Prefix of
// the opcode and data, and only a call's literal arguments carry a lineage
// leaf.
func TestPrepareLayout(t *testing.T) {
	var insts []Instruction
	var want []string
	use := func(name string) {
		if !slices.Contains(want, name) {
			want = append(want, name)
		}
	}
	for i := 0; i < 60; i++ {
		in, out := fmt.Sprintf("v%d", i%37), fmt.Sprintf("_t%d", i)
		inst := Instruction{Kind: KindOp, Op: "+", Inputs: []string{in, "#2", "X"}, Outputs: []string{out}}
		if i%5 == 0 {
			inst.Op, inst.Attrs = "call", map[string]string{"fn": "f"}
		}
		use(in)
		use("X")
		use(out)
		insts = append(insts, inst)
	}
	layout := Prepare(insts)
	if !slices.Equal(layout.Names, want) {
		t.Fatalf("layout %v, want %v", layout.Names, want)
	}
	for i := range insts {
		in := &insts[i]
		if in.Layout() != layout {
			t.Fatalf("%s: layout of another stream", in)
		}
		for k, name := range in.Inputs {
			s := in.Slot(k)
			switch {
			case IsLiteral(name) && s != -1, !IsLiteral(name) && layout.Names[s] != name:
				t.Fatalf("%s: input %d (%q) in slot %d", in, k, name, s)
			}
			if leaf := in.prep.lits[k].leaf; IsLiteral(name) && (leaf != nil) != (in.Op == "call") {
				t.Fatalf("%s: literal %d leaf %v", in, k, leaf)
			} else if leaf != nil && (leaf.Opcode() != "lit" || leaf.Data() != LiteralValue(name)) {
				t.Fatalf("%s: literal leaf %s %q", in, leaf.Opcode(), leaf.Data())
			}
		}
		if layout.Names[in.OutSlot(0)] != in.Outputs[0] {
			t.Fatalf("%s: output in slot of %q", in, layout.Names[in.OutSlot(0)])
		}
		if in.LineagePrefix() != lineage.Prefix(in.Op, in.LineageData()) {
			t.Fatalf("%s: prefix differs from lineage.Prefix", in)
		}
	}
}
