// Package-level benchmarks: one testing.B benchmark per table and figure of
// the paper's evaluation (reduced-size variants; `go run ./cmd/memphis-bench
// all` regenerates the full series), plus micro benchmarks of the reuse
// machinery itself. All reported "time" inside the experiments is virtual;
// these benchmarks measure the simulator's wall-clock cost of regenerating
// each experiment.
package memphis

import (
	"testing"

	"memphis/internal/bench"
	"memphis/internal/data"
	"memphis/internal/ir"
)

// benchExperiment runs an experiment's quick variant b.N times.
func benchExperiment(b *testing.B, id string) {
	e, err := bench.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb := e.Quick(); len(tb.Rows) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkTable2Backends(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkFig2cEagerVsLazy(b *testing.B)       { benchExperiment(b, "fig2c") }
func BenchmarkFig2dGPUOverhead(b *testing.B)       { benchExperiment(b, "fig2d") }
func BenchmarkFig11aReuseOverhead(b *testing.B)    { benchExperiment(b, "fig11a") }
func BenchmarkFig11bInstrScaling(b *testing.B)     { benchExperiment(b, "fig11b") }
func BenchmarkFig12aCacheSizes(b *testing.B)       { benchExperiment(b, "fig12a") }
func BenchmarkFig12bGPUCacheEviction(b *testing.B) { benchExperiment(b, "fig12b") }
func BenchmarkTable3Pipelines(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkFig13aHCV(b *testing.B)              { benchExperiment(b, "fig13a") }
func BenchmarkFig13bPNMF(b *testing.B)             { benchExperiment(b, "fig13b") }
func BenchmarkFig13cHBand(b *testing.B)            { benchExperiment(b, "fig13c") }
func BenchmarkFig14aClean(b *testing.B)            { benchExperiment(b, "fig14a") }
func BenchmarkFig14bHDrop(b *testing.B)            { benchExperiment(b, "fig14b") }
func BenchmarkFig14cEn2De(b *testing.B)            { benchExperiment(b, "fig14c") }
func BenchmarkFig14dTLVis(b *testing.B)            { benchExperiment(b, "fig14d") }

// BenchmarkSessionReuseHit measures the full probe-and-reuse path of one
// repeated program through the public API.
func BenchmarkSessionReuseHit(b *testing.B) {
	s := New(Options{Reuse: ReuseFull})
	s.Bind("X", data.RandNorm(256, 16, 0, 1, 7))
	prog := ir.NewProgram()
	prog.Main = []ir.Block{ir.BB(
		ir.Assign("G", ir.TSMM(ir.Var("X"))),
		ir.Assign("t", ir.Sum(ir.Var("G"))),
	)}
	if err := s.Run(prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCallHit measures a warm deterministic two-output call
// through the public API: the function-level probe covers both outputs, so
// the body never runs.
func BenchmarkSessionCallHit(b *testing.B) {
	s := New(Options{Reuse: ReuseFull})
	s.Bind("X", data.RandNorm(256, 16, 0, 1, 7))
	prog := ir.NewProgram()
	prog.Define(&ir.Function{
		Name: "gram", Params: []string{"A"}, Returns: []string{"G", "t"}, Deterministic: true,
		Body: []ir.Block{ir.BB(
			ir.Assign("G", ir.TSMM(ir.Var("A"))),
			ir.Assign("t", ir.Sum(ir.Var("G"))),
		)},
	})
	prog.Main = []ir.Block{ir.BB(ir.Call("gram", []string{"G", "t"}, ir.Var("X")))}
	if err := s.Run(prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.FuncReuses != int64(b.N) || st.FuncCalls != int64(b.N)+1 {
		b.Fatalf("%d of %d warm calls reused", st.FuncReuses, b.N)
	}
}

// BenchmarkSessionBase measures the same program without tracing/reuse.
func BenchmarkSessionBase(b *testing.B) {
	s := New(Options{})
	s.Bind("X", data.RandNorm(256, 16, 0, 1, 7))
	prog := ir.NewProgram()
	prog.Main = []ir.Block{ir.BB(
		ir.Assign("G", ir.TSMM(ir.Var("X"))),
		ir.Assign("t", ir.Sum(ir.Var("G"))),
	)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}
