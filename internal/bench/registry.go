package bench

import (
	"fmt"
)

// Experiment couples an id with a runner using default (laptop-scale)
// parameters. The cmd/memphis-bench binary and the root bench_test.go both
// drive this registry, so the printed rows are identical everywhere.
type Experiment struct {
	ID    string
	Desc  string
	Run   func() *Table
	Quick func() *Table // reduced-size variant for testing.B loops
}

// Registry lists every table and figure of the paper's evaluation.
func Registry() []Experiment {
	return []Experiment{
		{
			ID: "table2", Desc: "Backend properties (Table 2)",
			Run:   Table2,
			Quick: Table2,
		},
		{
			ID: "fig2c", Desc: "Eager vs lazy RDD caching (Figure 2c)",
			Run:   func() *Table { return Fig2c(1200, 0.33) },
			Quick: func() *Table { return Fig2c(200, 0.33) },
		},
		{
			ID: "fig2d", Desc: "GPU execution overhead (Figure 2d)",
			Run:   func() *Table { return Fig2d(1000, 128, 1000) },
			Quick: func() *Table { return Fig2d(50, 128, 1000) },
		},
		{
			ID: "fig11a", Desc: "Tracing/probing overhead vs input size (Figure 11a)",
			Run:   func() *Table { return Fig11a(25, 4) },
			Quick: func() *Table { return Fig11a(8, 2) },
		},
		{
			ID: "fig11b", Desc: "Probing overhead vs instruction count (Figure 11b)",
			Run:   func() *Table { return Fig11b(40000, 25, 4, []int{10, 25, 50}) },
			Quick: func() *Table { return Fig11b(4000, 25, 2, []int{5, 10}) },
		},
		{
			ID: "fig12a", Desc: "Driver cache sizes (Figure 12a)",
			Run:   func() *Table { return Fig12a(25, 4) },
			Quick: func() *Table { return Fig12a(6, 2) },
		},
		{
			ID: "fig12b", Desc: "GPU cache eviction (Figure 12b)",
			Run:   func() *Table { return Fig12b(512, 6, 6, []int{2, 4, 8, 16}) },
			Quick: func() *Table { return Fig12b(128, 6, 6, []int{4, 8}) },
		},
		{
			ID: "table3", Desc: "Pipeline & dataset overview (Table 3)",
			Run:   Table3,
			Quick: Table3,
		},
		{
			ID: "fig13a", Desc: "HCV end-to-end (Figure 13a)",
			Run: func() *Table {
				return Fig13a([]int{4000, 8000, 16000, 32000}, 48, 3,
					[]float64{1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6})
			},
			Quick: func() *Table {
				return Fig13a([]int{4000, 16000}, 32, 3, []float64{0.01, 0.1, 1, 10})
			},
		},
		{
			ID: "fig13b", Desc: "PNMF end-to-end (Figure 13b)",
			Run:   func() *Table { return Fig13b(3000, 60, 8, []int{5, 15, 25, 35, 45}) },
			Quick: func() *Table { return Fig13b(2000, 40, 8, []int{5, 15}) },
		},
		{
			ID: "fig13c", Desc: "HBAND end-to-end (Figure 13c)",
			Run:   func() *Table { return Fig13c([]int{16000, 32000, 64000}, 96) },
			Quick: func() *Table { return Fig13c([]int{32000}, 64) },
		},
		{
			ID: "fig14a", Desc: "CLEAN end-to-end (Figure 14a)",
			Run:   func() *Table { return Fig14a(8000, 16, []int{2, 10, 20}) },
			Quick: func() *Table { return Fig14a(8000, 12, []int{10}) },
		},
		{
			ID: "fig14b", Desc: "HDROP end-to-end (Figure 14b)",
			Run: func() *Table {
				return Fig14b(2048, 10, 500, []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}, 4, 256)
			},
			Quick: func() *Table { return Fig14b(1024, 10, 500, []float64{0.1, 0.3}, 2, 256) },
		},
		{
			ID: "fig14c", Desc: "EN2DE end-to-end (Figure 14c)",
			Run:   func() *Table { return Fig14c(2000, 300, 32, 64) },
			Quick: func() *Table { return Fig14c(400, 100, 16, 32) },
		},
		{
			ID: "fig14d", Desc: "TLVIS end-to-end (Figure 14d)",
			Run:   func() *Table { return Fig14d(64, 8) },
			Quick: func() *Table { return Fig14d(16, 8) },
		},
		{
			ID: "ablation", Desc: "Ablation of MEMPHIS design choices (extension)",
			Run:   func() *Table { return Ablation(32000, 25) },
			Quick: func() *Table { return Ablation(32000, 10) },
		},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
