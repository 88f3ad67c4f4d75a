package ir

import (
	"testing"
	"testing/quick"
)

func TestNodeAttrs(t *testing.T) {
	n := NewNode("x").WithAttr("k", "7").WithAttr("f", "2.5")
	if n.Attr("k") != "7" || n.Attr("missing") != "" {
		t.Fatal("Attr wrong")
	}
	if n.AttrInt("k", 0) != 7 || n.AttrInt("missing", 3) != 3 || n.AttrInt("f", 9) != 9 {
		t.Fatal("AttrInt wrong")
	}
}

func TestConstructorsCarryParameters(t *testing.T) {
	r := Rand(3, 4, -1, 2, 0.5, 99)
	if r.AttrInt("rows", 0) != 3 || r.AttrInt("cols", 0) != 4 ||
		r.Attr("sparsity") != "0.5" || r.Attr("seed") != "99" {
		t.Fatalf("Rand attrs = %v", r.Attrs)
	}
	c := Conv2D(Var("x"), Var("w"), 3, 8, 8, 5, 5, 2, 1)
	if c.AttrInt("cin", 0) != 3 || c.AttrInt("stride", 0) != 2 || c.AttrInt("pad", 0) != 1 {
		t.Fatalf("Conv2D attrs = %v", c.Attrs)
	}
	d := Dropout(Var("x"), 0.3, 7)
	if d.Attr("p") != "0.3" || d.Attr("seed") != "7" {
		t.Fatalf("Dropout attrs = %v", d.Attrs)
	}
}

func TestProgramDefineRejectsDuplicates(t *testing.T) {
	p := NewProgram()
	p.Define(&Function{Name: "f", Returns: []string{"r"}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate function")
		}
	}()
	p.Define(&Function{Name: "f", Returns: []string{"r"}})
}

func TestWalkVisitsNestedBlocks(t *testing.T) {
	inner := BB(Assign("a", Lit(1)))
	loop := ForRange("i", 2, inner)
	cond := If(Lt(Var("a"), Lit(3)), []Block{BB(Assign("b", Lit(2)))}, []Block{loop})
	var n int
	Walk([]Block{cond}, func(Block) { n++ })
	if n != 4 { // if, then-bb, else-for, inner-bb
		t.Fatalf("visited %d blocks, want 4", n)
	}
}

func TestVarsRead(t *testing.T) {
	expr := Add(MatMul(Var("X"), Var("w")), Mul(Var("X"), Lit(2)))
	got := map[string]struct{}{}
	VarsRead(expr, got)
	if len(got) != 2 {
		t.Fatalf("VarsRead = %v", got)
	}
	if _, ok := got["X"]; !ok {
		t.Fatal("X not read")
	}
}

func TestDependsOnTransitive(t *testing.T) {
	stmts := []Stmt{
		Assign("a", Mul(Var("X"), Var("i"))), // depends on loop var i
		Assign("b", Exp(Var("a"))),           // transitively dependent
		Assign("c", Scale(Var("X"))),         // independent
	}
	loopVars := map[string]struct{}{"i": {}}
	if !DependsOn(stmts, 0, loopVars) || !DependsOn(stmts, 1, loopVars) {
		t.Fatal("direct/transitive dependence missed")
	}
	if DependsOn(stmts, 2, loopVars) {
		t.Fatal("independent statement flagged")
	}
}

func TestInferCoreRules(t *testing.T) {
	env := map[string]Shape{
		"X": {Rows: 100, Cols: 8},
		"W": {Rows: 8, Cols: 4},
	}
	cases := []struct {
		node *Node
		want Shape
	}{
		{MatMul(Var("X"), Var("W")), Shape{100, 4}},
		{TSMM(Var("X")), Shape{8, 8}},
		{T(Var("X")), Shape{8, 100}},
		{Add(Var("X"), Lit(1)), Shape{100, 8}},
		{ColSums(Var("X")), Shape{1, 8}},
		{RowSums(Var("X")), Shape{100, 1}},
		{Sum(Var("X")), Shape{1, 1}},
		{CBind(Var("X"), Var("X")), Shape{100, 16}},
		{RBind(Var("X"), Var("X")), Shape{200, 8}},
		{Slice(Var("X"), 10, 20, 2, -1), Shape{10, 6}},
		{SliceRowsVar(Var("X"), Var("i"), 16), Shape{16, 8}},
		{OneHotFixed(Var("X"), 5), Shape{100, 40}},
		{PCA(Var("X"), 3, 1), Shape{100, 3}},
		{Solve(TSMM(Var("X")), ColSums(Var("X"))), Shape{8, 8}},
	}
	for i, c := range cases {
		if got := Infer(c.node, env); got != c.want {
			t.Errorf("case %d (%s): got %+v, want %+v", i, c.node.Op, got, c.want)
		}
	}
}

func TestInferConvAndPool(t *testing.T) {
	env := map[string]Shape{
		"x": {Rows: 4, Cols: 3 * 8 * 8},
		"w": {Rows: 16, Cols: 3 * 3 * 3},
	}
	conv := Conv2D(Var("x"), Var("w"), 3, 8, 8, 3, 3, 1, 1)
	if got := Infer(conv, env); got != (Shape{4, 16 * 8 * 8}) {
		t.Fatalf("conv shape = %+v", got)
	}
	env["c"] = Shape{Rows: 4, Cols: 16 * 8 * 8}
	pool := MaxPool(Var("c"), 16, 8, 8, 2, 2, 2)
	if got := Infer(pool, env); got != (Shape{4, 16 * 4 * 4}) {
		t.Fatalf("pool shape = %+v", got)
	}
}

func TestInferUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Infer(NewNode("definitely-not-an-op"), nil)
}

func TestShapeBytes(t *testing.T) {
	if (Shape{Rows: 10, Cols: 4}).Bytes() != 320 {
		t.Fatal("Bytes wrong")
	}
}

// Property: elementwise binary shapes are the larger operand's shape.
func TestInferBinaryBroadcastProperty(t *testing.T) {
	f := func(r1, c1, r2, c2 uint8) bool {
		a := Shape{int(r1%16) + 1, int(c1%16) + 1}
		b := Shape{int(r2%16) + 1, int(c2%16) + 1}
		env := map[string]Shape{"a": a, "b": b}
		got := Infer(Add(Var("a"), Var("b")), env)
		want := a
		if b.Rows*b.Cols > a.Rows*a.Cols {
			want = b
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
