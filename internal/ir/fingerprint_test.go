package ir_test

import (
	"math"
	"os"
	"strings"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/dml"
	"memphis/internal/ir"
	"memphis/internal/workloads"
)

// scripts returns the DML sources the fingerprint tests start from: the
// ridge example and the benchmark's grid template with its placeholders
// filled as the benchmark harness fills them.
func scripts(t testing.TB) []string {
	t.Helper()
	ridge, err := os.ReadFile("../../examples/scripts/ridge.dml")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := os.ReadFile("../../benchmark/scripts/grid.dml")
	if err != nil {
		t.Fatal(err)
	}
	filled := strings.NewReplacer("@ROWS@", "200", "@SEED_X@", "11", "@SEED_W@", "12", "@SEED_N@", "13",
		"@REGS@", "1.234e-3, 5.678e-2, 9.000e-1, 1.000e0").Replace(string(grid))
	return []string{string(ridge), filled}
}

// fingerprintMismatches compares Program.Fingerprint, FingerprintBlock of
// every block and FingerprintNode of every statement and condition with
// their fmt references.
func fingerprintMismatches(p *ir.Program) []string {
	var bad []string
	if got, want := p.Fingerprint(), ir.RefProgramFingerprint(p); got != want {
		bad = append(bad, "program")
	}
	node := func(n *ir.Node) {
		if n != nil && ir.FingerprintNode(n) != ir.RefFingerprintNode(n) {
			bad = append(bad, "node "+n.Op)
		}
	}
	visit := func(b ir.Block) {
		if ir.FingerprintBlock(b) != ir.RefFingerprintBlock(b) {
			bad = append(bad, "block")
		}
		switch t := b.(type) {
		case *ir.BasicBlock:
			for _, st := range t.Stmts {
				node(st.Expr)
			}
		case *ir.WhileBlock:
			node(t.Cond)
		case *ir.IfBlock:
			node(t.Cond)
		}
	}
	ir.Walk(p.Main, visit)
	for _, f := range p.Funcs {
		ir.Walk(f.Body, visit)
	}
	return bad
}

// TestFingerprintMatchesFmtReference: the key.Hash fingerprints equal the
// fmt ones on the example scripts, every workload pipeline, the same
// programs after the compiler's program rewrites (eviction blocks, delay
// factors, storage levels, GPU hints), and hand-built edge cases.
func TestFingerprintMatchesFmtReference(t *testing.T) {
	var progs []*ir.Program
	for _, src := range scripts(t) {
		p, err := dml.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, w := range []*workloads.Workload{
		workloads.HCV(800, 16, 2, []float64{0.1, 1, 0.1}, 7),
		workloads.PNMF(400, 30, 4, 4, 11),
		workloads.HBand(400, 12, 2, 2, 2, 10, 13),
		workloads.Clean(400, 10, 2, 2, 17),
		workloads.HDrop(128, 6, 30, []float64{0.1, 0.3}, 2, 32, 19),
		workloads.En2De(80, 30, 8, 16, 23),
		workloads.TLVis(8, 4, 8, 8, 29),
		workloads.L2SVMMicro(400, 8, 3, []float64{0.1, 1, 10}, 37),
		workloads.EnsembleCNN(32, 8, 6, 6, 0.5, 41),
	} {
		progs = append(progs, w.Prog)
	}

	shared := ir.Add(ir.Var("a"), ir.Lit(-0.0))
	edge := ir.NewProgram()
	edge.Define(&ir.Function{Name: "f", Params: []string{"x", "y"}, Returns: []string{"z"}, Deterministic: true,
		Body: []ir.Block{ir.BB(ir.Assign("z", ir.Mul(ir.Var("x"), ir.Var("y"))))}})
	edge.Funcs["g"] = &ir.Function{Name: "g", Body: []ir.Block{&ir.EvictBlock{Fraction: 1e-7}}}
	edge.Main = []ir.Block{
		&ir.BasicBlock{DelayFactor: 3, StorageLevel: "MEMORY_AND_DISK", Stmts: []ir.Stmt{
			ir.Assign("s", shared), ir.Assign("u", ir.Mul(shared, shared)), {Targets: nil, Expr: nil},
		}},
		&ir.ForBlock{Var: "i", GPUHint: true, Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1), 0.1, 1e20, 1e21, 1e-5, 5e-324, math.MaxFloat64}},
		&ir.ForBlock{Var: "e"},
		&ir.WhileBlock{MaxIter: -4, Body: []ir.Block{&ir.EvictBlock{Fraction: math.NaN()}}},
		ir.If(nil, nil, []ir.Block{&ir.EvictBlock{Fraction: 0.25}}),
	}
	progs = append(progs, edge)

	for i, p := range progs {
		if bad := fingerprintMismatches(p); len(bad) > 0 {
			t.Errorf("program %d: fingerprints differ from the fmt reference at %v", i, bad)
		}
		compiler.RewriteProgram(p)
		compiler.AutoTune(p)
		compiler.InjectLoopCheckpoints(p)
		compiler.InjectEvictions(p)
		if bad := fingerprintMismatches(p); len(bad) > 0 {
			t.Errorf("rewritten program %d: fingerprints differ from the fmt reference at %v", i, bad)
		}
	}
}

// FuzzFingerprint runs arbitrary source through the DML parser, which must
// not panic, and checks every program that parses against the fmt
// reference fingerprints.
func FuzzFingerprint(f *testing.F) {
	for _, src := range scripts(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := dml.Parse(src)
		if err != nil {
			return
		}
		if bad := fingerprintMismatches(p); len(bad) > 0 {
			t.Fatalf("fingerprints differ from the fmt reference at %v", bad)
		}
	})
}
