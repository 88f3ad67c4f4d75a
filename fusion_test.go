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
	// A reduction consumer: the fused chain feeding it dies immediately,
	// so its buffer is an arena recycling candidate (unlike Y/Z/out, which
	// stay bound or cached).
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
	opts.Parallelism = par
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
// randomized elementwise DAGs: fusion and the buffer arena, in every
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
		{"arena", Options{Reuse: ReuseFull, Arena: true, MemoryPlanner: true}},
		{"fuse+arena", Options{Reuse: ReuseFull, Fusion: true, Arena: true, MemoryPlanner: true}},
		// Without reuse, fused outputs never escape into the lineage cache,
		// so planner free points actively recycle buffers mid-run — the
		// combination where a use-after-put bug would corrupt results.
		{"fuse+arena-base", Options{Fusion: true, Arena: true, MemoryPlanner: true}},
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
				if v.name == "fuse+arena" && par == 1 && insts < refInsts {
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

// TestFusionChaosReplay runs a fused+arena session under the chaos fault
// plan: two replays of the same plan must be bitwise identical, and the
// recovered result must equal the fault-free one.
func TestFusionChaosReplay(t *testing.T) {
	opts := Options{Reuse: ReuseFull, Fusion: true, Arena: true, MemoryPlanner: true}
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

// TestArenaStatsSurface checks that an arena session reports allocation
// traffic and an "arena" row in the arbiter snapshot.
func TestArenaStatsSurface(t *testing.T) {
	// Reuse off: outputs are not retained by the lineage cache, so dead
	// fused buffers actually return to the arena and later Gets recycle.
	s := New(Options{Fusion: true, Arena: true, MemoryPlanner: true})
	defer s.Close()
	bindFusionInputs(s)
	for i := 0; i < 3; i++ {
		if err := s.Run(fusionProgram(7)); err != nil {
			t.Fatal(err)
		}
	}
	gets, reuses, _, _ := s.ArenaStats()
	if gets == 0 {
		t.Errorf("arena saw no Gets despite fused execution")
	}
	if reuses == 0 {
		t.Errorf("arena never reused a buffer across repeated runs (gets=%d)", gets)
	}
	found := false
	memory := s.Stats().Memory
	for _, row := range memory {
		if row.Name == "arena" {
			found = true
		}
	}
	if !found {
		t.Errorf("no arena row in Stats().Memory: %+v", memory)
	}
}

// deferredArenaProgram transposes a fused chain's output, runs a second
// fused chain of the same cell count, and only then multiplies by the
// transpose. The first chain's buffer dies at the planner's free point
// right after `t`, while the deferred t(...) still reads it; the second
// chain then draws that very buffer from the arena.
func deferredArenaProgram() *ir.Program {
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(
		ir.Assign("at", ir.T(ir.Exp(ir.Add(ir.Var("X"), ir.Var("X2"))))),
		ir.Assign("z", ir.Sum(ir.Sigmoid(ir.Mul(ir.Var("X"), ir.Var("X2"))))),
		ir.Assign("out", ir.MatMul(ir.Var("at"), ir.Var("C"))),
	)}
	return p
}

// TestDeferredTransposeArenaRule: with fusion, arena and planner on, a
// deferred transpose whose source buffer is recycled is materialized at the
// free point, so the result stays bitwise what the plain interpreter gives
// and the arena ownership trace stays clean.
func TestDeferredTransposeArenaRule(t *testing.T) {
	run := func(opts Options) (*data.Matrix, *Session) {
		s := New(opts)
		bindFusionInputs(s)
		if a := s.ctx.Arena(); a != nil {
			a.SetDebug(true)
		}
		if err := s.Run(deferredArenaProgram()); err != nil {
			t.Fatal(err)
		}
		return s.Value("out"), s
	}
	ref, s0 := run(Options{})
	s0.Close()
	for _, opts := range []Options{
		{Fusion: true, Arena: true, MemoryPlanner: true},
		{Reuse: ReuseFull, Fusion: true, Arena: true, MemoryPlanner: true},
	} {
		got, s := run(opts)
		if diff := sameMatrix(ref, got); diff != "" {
			t.Errorf("reuse=%v: result read a recycled buffer through a deferred transpose: %s", opts.Reuse, diff)
		}
		if err := data.VerifyArenaTrace(s.ctx.Arena().Events()); err != nil {
			t.Errorf("reuse=%v: arena trace: %v", opts.Reuse, err)
		}
		if opts.Reuse == ReuseOff {
			if _, reuses, puts, _ := s.ArenaStats(); puts == 0 || reuses == 0 {
				t.Errorf("the source buffer was not recycled under the deferred value (puts=%d reuses=%d); the test is vacuous", puts, reuses)
			}
		}
		s.Close()
	}
}

// handoffCase is one way a fused chain's output — a buffer the arena vended —
// gains a second owner without being copied. Each program hands the buffer
// off, lets the planner free the temporary that held it, runs a second fused
// chain of the same cell count (which would draw the recycled buffer), and
// only then reads through the hand-off.
type handoffCase struct {
	name string
	opts Options // backend sizing; the test turns fusion, arena, planner and reuse on over it
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

// TestArenaHandoffsEscape: with fusion, arena and planner on, a fused CP
// output that is row-sliced, parallelized, uploaded to the device or
// broadcast, and then freed by the planner, gives bitwise the results of an
// arena-less session — the hand-off takes the buffer out of the arena
// (runtime.Context.shared), so the free does not recycle cells a view, an RDD
// closure, a broadcast or a device pointer still reads.
func TestArenaHandoffsEscape(t *testing.T) {
	run := func(t *testing.T, prog *ir.Program, opts Options) (*data.Matrix, *Session) {
		t.Helper()
		s := New(opts)
		bindFusionInputs(s)
		s.Bind("W", data.RandNorm(17, 64, 0, 1, 106))
		s.Bind("W2", data.RandNorm(17, 128, 0, 1, 107))
		s.Bind("XB", data.RandNorm(200, 17, 0, 1, 108))
		s.Bind("lo", data.Scalar(2))
		if a := s.ctx.Arena(); a != nil {
			a.SetDebug(true)
		}
		if err := s.Run(prog); err != nil {
			t.Fatal(err)
		}
		out, err := s.Lookup("out")
		if err != nil {
			t.Fatal(err)
		}
		return out, s
	}
	for _, c := range handoffCases() {
		t.Run(c.name, func(t *testing.T) {
			ref, s0 := run(t, c.prog(), c.opts)
			s0.Close()
			for _, reuse := range []Reuse{ReuseOff, ReuseFull} {
				opts := c.opts
				opts.Reuse, opts.Fusion, opts.Arena, opts.MemoryPlanner = reuse, true, true, true
				got, s := run(t, c.prog(), opts)
				if diff := sameMatrix(ref, got); diff != "" {
					t.Errorf("reuse=%v: result read a recycled buffer: %s", reuse, diff)
				}
				if err := data.VerifyArenaTrace(s.ctx.Arena().Events()); err != nil {
					t.Errorf("reuse=%v: arena trace: %v", reuse, err)
				}
				_, _, puts, escapes := s.ArenaStats()
				if reuse == ReuseOff && (escapes == 0 || puts == 0) {
					// Without a cache nothing but the hand-off escapes a buffer,
					// and the second chain's temporary is recycled at its free
					// point: otherwise the case tests nothing.
					t.Errorf("escapes=%d puts=%d; the hand-off or the planner's frees did not happen", escapes, puts)
				}
				s.Close()
			}
		})
	}
}
