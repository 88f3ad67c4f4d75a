package memplan

import (
	"bytes"
	"strconv"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/ir"
	"memphis/internal/memctl"
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
		"X":   {Name: "X", Def: -1, First: 0, Last: 2, End: 2, Bytes: 100 * 4 * 8, Uses: 2},
		"_t0": {Name: "_t0", Def: 0, First: 0, Last: 1, End: 2, Bytes: 4 * 4 * 8, Temp: true, Uses: 1},
		"_t1": {Name: "_t1", Def: 1, First: 1, Last: 2, End: 2, Bytes: 4 * 4 * 8, Temp: true, Uses: 1},
		"Y":   {Name: "Y", Def: 2, First: 2, Last: 2, End: 2, Bytes: 100 * 4 * 8, Uses: 0},
	}
	if len(p.Intervals) != len(want) {
		t.Fatalf("got %d intervals, want %d: %+v", len(p.Intervals), len(want), p.Intervals)
	}
	for _, iv := range p.Intervals {
		if w, ok := want[iv.Name]; !ok || iv != w {
			t.Errorf("interval %+v, want %+v", iv, w)
		}
	}
	// Profile: pos0 = X+_t0, pos1 = +_t1, pos2 = +Y (everything resident).
	wantProfile := []int64{3328, 3456, 6656}
	for i, v := range p.Profile {
		if v != wantProfile[i] {
			t.Errorf("Profile[%d] = %d, want %d", i, v, wantProfile[i])
		}
	}
	if p.Peak != 6656 || p.PeakAt != 2 {
		t.Errorf("Peak = %d@%d, want 6656@2", p.Peak, p.PeakAt)
	}
}

func TestLifetimeAt(t *testing.T) {
	p := Analyze(testStream())
	if l := p.LifetimeAt("_t0", 1, 8); l != memctl.LifeDead {
		t.Errorf("_t0 after last use = %v, want dead", l)
	}
	if l := p.LifetimeAt("_t0", 0, 8); l != memctl.LifeSoon {
		t.Errorf("_t0 before reuse = %v, want soon", l)
	}
	if l := p.LifetimeAt("X", 2, 8); l != memctl.LifeUnknown {
		t.Errorf("live-in X after last use = %v, want unknown (non-temps escape)", l)
	}
	if l := p.LifetimeAt("X", 0, 1); l != memctl.LifeUnknown {
		t.Errorf("X with next use beyond window = %v, want unknown", l)
	}
}

// TestApplyDeterministic: planning is a pure function of (stream, config) —
// two passes yield byte-identical plans and identical rewritten streams.
func TestApplyDeterministic(t *testing.T) {
	cfg := Config{Budget: 4000}
	r1, p1 := Apply(testStream(), cfg)
	r2, p2 := Apply(testStream(), cfg)
	if !bytes.Equal(p1.Marshal(), p2.Marshal()) {
		t.Errorf("plans differ:\n%s\nvs\n%s", p1.Marshal(), p2.Marshal())
	}
	if len(r1) != len(r2) {
		t.Fatalf("rewritten streams differ in length: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].String() != r2[i].String() {
			t.Errorf("inst %d differs: %s vs %s", i, r1[i].String(), r2[i].String())
		}
	}
}

// TestApplyInsertsFrees: temps gain a free at their last use, residency
// ends early, and the profile's tail shrinks accordingly. Budget 6500 is
// below the 6656-byte peak but above twice the largest output, so frees
// fire without triggering a matmul split.
func TestApplyInsertsFrees(t *testing.T) {
	rewritten, p := Apply(testStream(), Config{Budget: 6500})
	if p.Frees != 2 {
		t.Fatalf("Frees = %d, want 2 (stream: %v)", p.Frees, rewritten)
	}
	var frees []string
	for i := range rewritten {
		if rewritten[i].Kind == compiler.KindFree {
			frees = append(frees, rewritten[i].Inputs[0])
		}
	}
	if len(frees) != 2 || frees[0] != "_t0" || frees[1] != "_t1" {
		t.Errorf("freed %v, want [_t0 _t1]", frees)
	}
	if err := VerifyStream(rewritten); err != nil {
		t.Errorf("rewritten stream invalid: %v", err)
	}
	// The final profile must be no worse than the unplanned peak anywhere.
	unplanned := Analyze(testStream())
	if p.Peak > unplanned.Peak {
		t.Errorf("planned peak %d exceeds unplanned %d", p.Peak, unplanned.Peak)
	}
}

// TestApplyGating: splits and cache flips fire only over budget (frees
// fire under any positive budget), and a zero budget yields pure analysis
// with the stream untouched.
func TestApplyGating(t *testing.T) {
	rewritten, p := Apply(testStream(), Config{Budget: 1 << 30})
	if p.Splits != 0 || len(p.NoCache) != 0 {
		t.Errorf("under-budget stream gained splits=%d nocache=%v", p.Splits, p.NoCache)
	}
	if p.Frees != 2 {
		t.Errorf("under-budget frees = %d, want 2 (dead temps always freed)", p.Frees)
	}
	rewritten, p = Apply(testStream(), Config{Budget: 0})
	if len(rewritten) != 3 || p.Frees != 0 || p.Splits != 0 || len(p.NoCache) != 0 {
		t.Errorf("zero-budget stream was rewritten: %d insts, frees=%d splits=%d nocache=%v",
			len(rewritten), p.Frees, p.Splits, p.NoCache)
	}
}

// TestSplitOversizedMatmul: a CP mm whose output exceeds half the budget is
// lowered to a slice/mm/rbind row-panel chain producing the same name.
func TestSplitOversizedMatmul(t *testing.T) {
	insts := []compiler.Instruction{
		op("mm", "_t0", sh(1000, 100), []string{"A", "B"}, []ir.Shape{sh(1000, 50), sh(50, 100)}),
		op("sum", "s", sh(1, 1), []string{"_t0"}, []ir.Shape{sh(1000, 100)}),
	}
	budget := int64(200 * 1024) // out = 800000 bytes > budget/2
	rewritten, p := Apply(insts, Config{Budget: budget})
	if p.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", p.Splits)
	}
	if err := VerifyStream(rewritten); err != nil {
		t.Fatalf("split stream invalid: %v", err)
	}
	var mms, slices, rbinds int
	defined := map[string]bool{}
	for i := range rewritten {
		switch rewritten[i].Op {
		case "mm":
			mms++
		case "slice":
			slices++
		case "rbind":
			rbinds++
		}
		if rewritten[i].Kind == compiler.KindOp {
			defined[rewritten[i].Output()] = true
		}
	}
	if !defined["_t0"] {
		t.Errorf("split chain never defines the original output _t0")
	}
	if mms != slices || rbinds != mms-1 || mms < 2 {
		t.Errorf("panel structure wrong: %d slices, %d mms, %d rbinds", slices, mms, rbinds)
	}
	// Row coverage: slice attrs partition [0, 1000).
	next := 0
	for i := range rewritten {
		if rewritten[i].Op != "slice" {
			continue
		}
		if got := rewritten[i].Attr("r0"); got != strconv.Itoa(next) {
			t.Errorf("slice starts at %s, want %d", got, next)
		}
		r1, err := strconv.Atoi(rewritten[i].Attr("r1"))
		if err != nil {
			t.Fatalf("bad r1: %v", err)
		}
		next = r1
	}
	if next != 1000 {
		t.Errorf("panels cover rows [0,%d), want [0,1000)", next)
	}
}

func TestVerifyStreamNegatives(t *testing.T) {
	free := func(name string) compiler.Instruction {
		return compiler.Instruction{Kind: compiler.KindFree, Op: "free",
			Inputs: []string{name}, Outputs: []string{"_"}, Backend: core.BackendCP}
	}
	base := testStream()
	cases := map[string][]compiler.Instruction{
		"use after free":    {base[0], free("_t0"), base[1]},
		"double free":       {base[0], free("_t0"), free("_t0")},
		"free undefined":    {free("_tghost")},
		"redefine freed":    {base[0], free("_t0"), base[0]},
		"free with 2 names": {base[0], {Kind: compiler.KindFree, Op: "free", Inputs: []string{"_t0", "_t0"}, Outputs: []string{"_"}, Backend: core.BackendCP}},
	}
	for name, insts := range cases {
		if err := VerifyStream(insts); err == nil {
			t.Errorf("%s: VerifyStream accepted an invalid stream", name)
		}
	}
	if err := VerifyStream(base); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
}
