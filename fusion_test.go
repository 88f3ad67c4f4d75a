package memphis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memphis/internal/data"
	"memphis/internal/ir"
)

// exprGen builds random elementwise DAGs over full matrices, row/column
// vectors, a scalar variable, and literals. Every binary node keeps at
// least one full-shape operand, so the DAG is broadcast-legal by
// construction while still exercising row, column, scalar, and literal
// broadcasts plus non-uniform intermediate shapes (vector sub-chains).
type exprGen struct {
	rng   *rand.Rand
	fulls []string // full-shape variable names in scope
}

func (g *exprGen) pickFull() *ir.Node { return ir.Var(g.fulls[g.rng.Intn(len(g.fulls))]) }

// small returns a broadcastable non-full operand: a vector (possibly under
// a unary chain), the scalar variable, or a literal.
func (g *exprGen) small(depth int) *ir.Node {
	switch g.rng.Intn(5) {
	case 0:
		return g.unaryWrap(ir.Var("R"), depth)
	case 1:
		return g.unaryWrap(ir.Var("C"), depth)
	case 2:
		return ir.Var("S")
	case 3:
		return ir.Lit(float64(g.rng.Intn(9)) - 4)
	default:
		return g.full(depth - 1)
	}
}

func (g *exprGen) unaryWrap(n *ir.Node, depth int) *ir.Node {
	for k := g.rng.Intn(3); k > 0 && depth > 0; k, depth = k-1, depth-1 {
		n = g.unary(n)
	}
	return n
}

func (g *exprGen) unary(a *ir.Node) *ir.Node {
	switch g.rng.Intn(8) {
	case 0:
		return ir.Exp(a)
	case 1:
		return ir.Log(a)
	case 2:
		return ir.Sqrt(a)
	case 3:
		return ir.Abs(a)
	case 4:
		return ir.Sigmoid(a)
	case 5:
		return ir.ReLU(a)
	case 6:
		return ir.Pow(a, 2)
	default:
		return ir.Pow(a, 3)
	}
}

func (g *exprGen) binary(a, b *ir.Node) *ir.Node {
	switch g.rng.Intn(8) {
	case 0:
		return ir.Add(a, b)
	case 1:
		return ir.Sub(a, b)
	case 2:
		return ir.Mul(a, b)
	case 3:
		return ir.Div(a, b)
	case 4:
		return ir.Min(a, b)
	case 5:
		return ir.Max(a, b)
	case 6:
		return ir.Gt(a, b)
	default:
		return ir.Lt(a, b)
	}
}

// full returns a full-shape expression of the given depth.
func (g *exprGen) full(depth int) *ir.Node {
	if depth <= 0 {
		return g.pickFull()
	}
	if g.rng.Intn(3) == 0 {
		return g.unary(g.full(depth - 1))
	}
	left, right := g.full(depth-1), g.small(depth-1)
	if g.rng.Intn(2) == 0 {
		left, right = right, left
	}
	return g.binary(left, right)
}

// fusionProgram builds a three-statement elementwise program whose later
// statements read earlier outputs, so fusion sees both eliminable
// temporaries and named-variable chain boundaries.
func fusionProgram(seed int64) *ir.Program {
	g := &exprGen{rng: rand.New(rand.NewSource(seed)), fulls: []string{"X", "X2"}}
	p := ir.NewProgram()
	stY := ir.Assign("Y", g.full(3))
	g.fulls = append(g.fulls, "Y")
	stZ := ir.Assign("Z", g.full(4))
	g.fulls = append(g.fulls, "Z")
	stOut := ir.Assign("out", g.full(3))
	// A reduction consumer: the fused chain feeding it dies immediately
	// (unlike Y/Z/out, which stay bound or cached).
	stRed := ir.Assign("red", ir.Sum(g.full(3)))
	p.Main = []ir.Block{ir.BB(stY, stZ, stOut, stRed)}
	return p
}

func bindFusionInputs(s *Session) {
	s.Bind("X", data.RandNorm(40, 17, 0, 1, 101))
	s.Bind("X2", data.RandNorm(40, 17, 2, 3, 102))
	s.Bind("R", data.RandNorm(1, 17, 0, 1, 103))
	s.Bind("C", data.RandNorm(40, 1, 0, 1, 104))
	s.Bind("S", data.RandNorm(1, 1, 0, 1, 105))
}

// runFusionDAG executes the seed's program under the given options and
// returns the output matrix plus the executed instruction count.
func runFusionDAG(t *testing.T, seed int64, opts Options, par int) (*data.Matrix, int64) {
	t.Helper()
	prev := data.Parallelism()
	defer data.SetParallelism(prev)
	data.SetParallelism(par)
	s := New(opts)
	defer s.Close()
	bindFusionInputs(s)
	if err := s.Run(fusionProgram(seed)); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	m, r := s.Value("out"), s.Value("red")
	if m == nil || r == nil {
		t.Fatalf("seed %d: output unbound", seed)
	}
	// Flatten both outputs into one comparison vector.
	joined := data.New(1, len(m.Data)+1)
	copy(joined.Data, m.Data)
	joined.Data[len(m.Data)] = r.Data[0]
	return joined, s.Stats().Instructions
}

func sameMatrix(a, b *data.Matrix) string {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return fmt.Sprintf("cell %d: %x vs %x", i, math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
	return ""
}

// TestFusionPropertyEquivalence checks the tentpole's core contract over
// randomized elementwise DAGs: fusion and the memory planner, in every
// combination and at kernel parallelism 1, 4, and 8, produce bitwise
// identical outputs to the plain interpreter. Fusion must actually fire on
// at least some of the DAGs (fewer executed instructions), or the property
// is vacuous.
func TestFusionPropertyEquivalence(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"fuse", Options{Reuse: ReuseFull, Fusion: true}},
		{"plan", Options{Reuse: ReuseFull, MemoryPlanner: true}},
		{"fuse+plan", Options{Reuse: ReuseFull, Fusion: true, MemoryPlanner: true}},
		// Without reuse, nothing keeps the fused outputs, so block end
		// unbinds them.
		{"fuse+plan-base", Options{Fusion: true, MemoryPlanner: true}},
	}
	fusedLess := 0
	for seed := int64(0); seed < 12; seed++ {
		ref, refInsts := runFusionDAG(t, seed, Options{Reuse: ReuseFull}, 1)
		refBase, _ := runFusionDAG(t, seed, Options{}, 1)
		if diff := sameMatrix(ref, refBase); diff != "" {
			t.Fatalf("seed %d: reuse-on and reuse-off references differ: %s", seed, diff)
		}
		for _, v := range variants {
			for _, par := range []int{1, 4, 8} {
				got, insts := runFusionDAG(t, seed, v.opts, par)
				if diff := sameMatrix(ref, got); diff != "" {
					t.Errorf("seed %d %s par %d diverged: %s", seed, v.name, par, diff)
				}
				if v.name == "fuse+plan" && par == 1 && insts < refInsts {
					fusedLess++
				}
			}
		}
	}
	if fusedLess == 0 {
		t.Errorf("fusion never reduced the instruction count across any seed; pass not firing")
	}
}

// TestFusionLineageKeysStable pins the lineage-key contract: the serialized
// lineage of a program output is identical with fusion on and off, because
// the runtime replays constituent ops while tracing. A cache populated
// under one setting is therefore valid under the other.
func TestFusionLineageKeysStable(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		logs := make([]string, 2)
		for i, fuse := range []bool{false, true} {
			s := New(Options{Reuse: ReuseFull, Fusion: fuse})
			bindFusionInputs(s)
			if err := s.Run(fusionProgram(seed)); err != nil {
				t.Fatalf("seed %d fusion=%v: %v", seed, fuse, err)
			}
			log, err := s.SerializeLineage("out")
			if err != nil {
				t.Fatalf("seed %d fusion=%v: %v", seed, fuse, err)
			}
			logs[i] = log
			s.Close()
		}
		if logs[0] != logs[1] {
			t.Errorf("seed %d: lineage log differs across fusion on/off:\noff: %s\non:  %s",
				seed, logs[0], logs[1])
		}
	}
}

// TestFusionChaosReplay runs a fused, planned session under the chaos fault
// plan: two replays of the same plan must be bitwise identical, and the
// recovered result must equal the fault-free one.
func TestFusionChaosReplay(t *testing.T) {
	opts := Options{Reuse: ReuseFull, Fusion: true, MemoryPlanner: true}
	clean, _ := runFusionDAG(t, 3, opts, 4)
	chaos := opts
	chaos.FaultPlan = DefaultFaultPlan(99)
	r1, _ := runFusionDAG(t, 3, chaos, 4)
	chaos2 := opts
	chaos2.FaultPlan = DefaultFaultPlan(99)
	r2, _ := runFusionDAG(t, 3, chaos2, 4)
	if diff := sameMatrix(r1, r2); diff != "" {
		t.Errorf("chaos replay not bitwise identical: %s", diff)
	}
	if diff := sameMatrix(clean, r1); diff != "" {
		t.Errorf("chaos result differs from fault-free: %s", diff)
	}
}

// deferredTransposeProgram transposes a fused chain's output, runs a
// second fused chain of the same cell count, and only then multiplies by
// the transpose. The first chain's temporary is dead right after `t`,
// while the deferred t(...) still reads its cells.
func deferredTransposeProgram() *ir.Program {
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(
		ir.Assign("at", ir.T(ir.Exp(ir.Add(ir.Var("X"), ir.Var("X2"))))),
		ir.Assign("z", ir.Sum(ir.Sigmoid(ir.Mul(ir.Var("X"), ir.Var("X2"))))),
		ir.Assign("out", ir.MatMul(ir.Var("at"), ir.Var("C"))),
	)}
	return p
}

// TestDeferredTransposeBitwise: with fusion and planner on, a deferred
// transpose whose source temporary is dead before the transpose is read
// gives bitwise what the plain interpreter gives, with and without reuse.
func TestDeferredTransposeBitwise(t *testing.T) {
	run := func(opts Options) *data.Matrix {
		s := New(opts)
		defer s.Close()
		bindFusionInputs(s)
		if err := s.Run(deferredTransposeProgram()); err != nil {
			t.Fatal(err)
		}
		return s.Value("out")
	}
	ref := run(Options{})
	for _, reuse := range []Reuse{ReuseOff, ReuseFull} {
		got := run(Options{Reuse: reuse, Fusion: true, MemoryPlanner: true})
		if diff := sameMatrix(ref, got); diff != "" {
			t.Errorf("reuse=%v: result through the deferred transpose differs: %s", reuse, diff)
		}
	}
}

// handoffCase is one way a fused chain's output gains a second owner
// without being copied. Each program hands the output off, leaves the
// temporary that held it dead, runs a second fused chain of the same cell
// count, and only then reads through the hand-off.
type handoffCase struct {
	name string
	opts Options // backend sizing; the test turns fusion, planner and reuse on over it
	prog func() *ir.Program
}

func handoffCases() []handoffCase {
	bb := func(stmts ...ir.Stmt) func() *ir.Program {
		return func() *ir.Program {
			p := ir.NewProgram()
			p.Main = []ir.Block{ir.BB(stmts...)}
			return p
		}
	}
	small := Options{OpMemBudget: 16 << 10} // X is 5.4 KB, X %*% W 20 KB, XB 27 KB
	return []handoffCase{
		{"row-slice", Options{}, bb(
			ir.Assign("sl", ir.Slice(ir.Exp(ir.Add(ir.Var("X"), ir.Var("X2"))), 3, 29, 0, -1)),
			ir.Assign("sr", ir.SliceRowsVar(ir.Abs(ir.Sub(ir.Var("X"), ir.Var("X2"))), ir.Var("lo"), 9)),
			ir.Assign("z", ir.Sum(ir.Sigmoid(ir.Mul(ir.Var("X"), ir.Var("X2"))))),
			ir.Assign("z2", ir.Sum(ir.Sqrt(ir.Mul(ir.Var("X2"), ir.Var("X2"))))),
			ir.Assign("out", ir.RBind(ir.Var("sl"), ir.Var("sr"))),
		)},
		// The product is larger than operation memory, its operands are not:
		// Spark parallelizes the fused left operand, lazily.
		{"parallelize", small, bb(
			ir.Assign("big", ir.MatMul(ir.Exp(ir.Add(ir.Var("X"), ir.Var("X2"))), ir.Var("W"))),
			ir.Assign("z", ir.Sum(ir.Sigmoid(ir.Mul(ir.Var("X"), ir.Var("X2"))))),
			ir.Assign("out", ir.ColSums(ir.Var("big"))),
		)},
		{"gpu-upload", Options{EnableGPU: true}, bb(
			ir.Assign("G", ir.MatMul(ir.Exp(ir.Add(ir.Var("X"), ir.Var("X2"))), ir.Var("W2"))),
			ir.Assign("z", ir.Sum(ir.Abs(ir.Mul(ir.Var("X"), ir.Var("X2"))))),
			ir.Assign("out", ir.ColSums(ir.Var("G"))),
		)},
		// XB is distributed, the fused row vector is broadcast to it.
		{"broadcast", small, bb(
			ir.Assign("big", ir.Mul(ir.Var("XB"), ir.Exp(ir.Add(ir.Var("R"), ir.Var("R"))))),
			ir.Assign("z", ir.Sum(ir.Sigmoid(ir.Mul(ir.Var("R"), ir.Var("R"))))),
			ir.Assign("out", ir.ColSums(ir.Var("big"))),
		)},
	}
}

// TestFusedHandoffsBitwise: with fusion and planner on, a fused CP output
// that is row-sliced, parallelized, uploaded to the device or broadcast
// gives bitwise the results of a plain session, with and without reuse:
// block end unbinds the temporary and leaves the cells to the view, the
// RDD closure, the broadcast or the device copy that still reads them.
func TestFusedHandoffsBitwise(t *testing.T) {
	run := func(t *testing.T, prog *ir.Program, opts Options) *data.Matrix {
		t.Helper()
		s := New(opts)
		defer s.Close()
		bindFusionInputs(s)
		s.Bind("W", data.RandNorm(17, 64, 0, 1, 106))
		s.Bind("W2", data.RandNorm(17, 128, 0, 1, 107))
		s.Bind("XB", data.RandNorm(200, 17, 0, 1, 108))
		s.Bind("lo", data.Scalar(2))
		if err := s.Run(prog); err != nil {
			t.Fatal(err)
		}
		out, err := s.Lookup("out")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range handoffCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := run(t, c.prog(), c.opts)
			for _, reuse := range []Reuse{ReuseOff, ReuseFull} {
				opts := c.opts
				opts.Reuse, opts.Fusion, opts.MemoryPlanner = reuse, true, true
				got := run(t, c.prog(), opts)
				if diff := sameMatrix(ref, got); diff != "" {
					t.Errorf("reuse=%v: result differs from the plain session: %s", reuse, diff)
				}
			}
		})
	}
}
