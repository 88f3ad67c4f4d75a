// Package bench regenerates every table and figure of the paper's
// evaluation (§6) against the simulated multi-backend stack. Each
// experiment returns a Table whose rows mirror the series the paper plots;
// absolute numbers differ (the substrate is a simulator), but the shapes —
// who wins, by roughly what factor, where crossovers fall — are the
// reproduction target. Inputs are scaled down ~1000x from the paper; rows
// report both the paper-equivalent parameter and the simulated one.
package bench

import (
	"fmt"
	"strings"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/gpu"
	"memphis/internal/runtime"
	"memphis/internal/spark"
	"memphis/internal/workloads"
)

// Table is one experiment's output.
type Table struct {
	ID     string // e.g. "fig13a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// System is a named runtime configuration emulating one of the paper's
// compared systems (§6.1 baselines).
type System struct {
	Name          string
	Mode          runtime.ReuseMode
	Async         bool // prefetch/broadcast operators (§5.1)
	MaxPar        bool // MAXPARALLELIZE ordering (§5.3)
	Checkpoints   bool // checkpoint rewrites (§5.2)
	AutoTune      bool // delay-factor/storage-level tuning (§5.2)
	Evictions     bool // eviction injection (§5.2)
	GPU           bool
	GPUPolicy     gpu.Policy
	CPAllowlist   map[string]bool
	FuncAllowlist map[string]bool
	ModelTweak    func(*costs.Model)
}

// Presets for the paper's systems.
var (
	Base  = System{Name: "Base", Mode: runtime.ReuseNone, GPUPolicy: gpu.PolicyNone}
	BaseA = System{Name: "Base-A", Mode: runtime.ReuseNone, Async: true, MaxPar: true,
		GPUPolicy: gpu.PolicyNone}
	// Base-P: parallel feature processing via multi-threaded transforms
	// (a faster local backend, no reuse).
	BaseP = System{Name: "Base-P", Mode: runtime.ReuseNone, GPUPolicy: gpu.PolicyNone,
		ModelTweak: func(m *costs.Model) { m.CPUFlops *= 3 }}
	BaseC = System{Name: "Base-C", Mode: runtime.ReuseNone, GPUPolicy: gpu.PolicyNone}
	BaseG = System{Name: "Base-G", Mode: runtime.ReuseNone, GPU: true, GPUPolicy: gpu.PolicyNone}
	Trace = System{Name: "Trace", Mode: runtime.ReuseTrace}
	LIMA  = System{Name: "LIMA", Mode: runtime.ReuseLIMA}
	Helix = System{Name: "HELIX", Mode: runtime.ReuseHelix}
	// CoorDL reuses only the CPU input-data-pipeline operators.
	CoorDL = System{Name: "CoorDL", Mode: runtime.ReuseLIMA, GPU: true, GPUPolicy: gpu.PolicyPool,
		CPAllowlist: map[string]bool{
			"sliceRows": true, "bin": true, "recode": true,
			"onehot": true, "onehotf": true, "scale": true, "minmax": true,
		}}
	// Clipper caches predictions (the scoring function) at the host.
	Clipper = System{Name: "Clipper", Mode: runtime.ReuseHelix, GPU: true,
		GPUPolicy:     gpu.PolicyPool,
		FuncAllowlist: map[string]bool{"score": true}}
	// VISTA applies CSE across transfer-learning pipelines: emulated as
	// fine-grained reuse without MEMPHIS's compiler extensions.
	VISTA = System{Name: "VISTA", Mode: runtime.ReuseMemphisFine, GPU: true,
		GPUPolicy: gpu.PolicyMemphis}
	// PyTorch: eager GPU with a caching pool allocator, no cross-task reuse.
	PyTorch = System{Name: "PyTorch", Mode: runtime.ReuseNone, GPU: true,
		GPUPolicy: gpu.PolicyPool}
	// PyTorch-Clr adds manual empty_cache() between models.
	PyTorchClr = System{Name: "PyTorch-Clr", Mode: runtime.ReuseNone, GPU: true,
		GPUPolicy: gpu.PolicyPool, Evictions: true}
	MPHF = System{Name: "MPH-F", Mode: runtime.ReuseMemphisFine, Async: true, MaxPar: true,
		Checkpoints: true, AutoTune: true, Evictions: true, GPU: true}
	// MPHEager disables the delay-factor auto-tuning: the §6.2 micro
	// benchmarks study plain tracing/probing/eviction behaviour with eager
	// caching, like LIMA's baseline policy extended to all backends.
	MPHEager = System{Name: "MPH", Mode: runtime.ReuseMemphisFine, Async: true, MaxPar: true,
		Checkpoints: true, GPU: true}
	MPHNA = System{Name: "MPH-NA", Mode: runtime.ReuseMemphis,
		Checkpoints: true, AutoTune: true, Evictions: true, GPU: true}
	MPH = System{Name: "MPH", Mode: runtime.ReuseMemphis, Async: true, MaxPar: true,
		Checkpoints: true, AutoTune: true, Evictions: true, GPU: true}
)

// Env sizes the simulated environment for one experiment.
type Env struct {
	OpMemBudget int64 // operation memory: larger ops compile to Spark
	GPUMinCells int
	CPBudget    int64
	SparkBudget int64
	GPUCapacity int64
}

// DefaultEnv mirrors the paper's memory configuration at ~1/1000 scale.
func DefaultEnv() Env {
	return Env{
		OpMemBudget: 7 << 20, // "7 GB" operation memory
		GPUMinCells: 1024,
		CPBudget:    5 << 20,  // "5 GB" driver lineage cache
		SparkBudget: 55 << 20, // "55 GB" executor reuse share
		GPUCapacity: 48 << 20, // "48 GB" device memory
	}
}

// NewContext instantiates a runtime for the system in the environment.
func (s System) NewContext(env Env) *runtime.Context {
	comp := compiler.DefaultConfig()
	comp.OpMemBudget = env.OpMemBudget
	comp.GPUEnabled = s.GPU
	comp.GPUMinCells = env.GPUMinCells
	comp.Async = s.Async
	comp.MaxParallelize = s.MaxPar
	comp.CheckpointInjection = s.Checkpoints
	cache := core.DefaultConfig()
	cache.CPBudget = env.CPBudget
	cache.SparkBudget = env.SparkBudget
	model := costs.Default()
	if s.ModelTweak != nil {
		s.ModelTweak(model)
	}
	gcap := int64(0)
	if s.GPU && env.GPUCapacity > 0 {
		gcap = env.GPUCapacity
	}
	comp.GPUEnabled = s.GPU && gcap > 0
	return runtime.New(runtime.Config{
		Mode:          s.Mode,
		Compiler:      comp,
		Cache:         cache,
		CPAllowlist:   s.CPAllowlist,
		FuncAllowlist: s.FuncAllowlist,
		Spark:         spark.DefaultConfig(),
		GPUCapacity:   gcap,
		GPUPolicy:     s.GPUPolicy,
		Model:         model,
	})
}

// Run executes a freshly built workload under the system, applying the
// program-level rewrites the system enables, and returns the virtual time
// and the context (for statistics).
func (s System) Run(env Env, build func() *workloads.Workload) (float64, *runtime.Context, error) {
	ctx := s.NewContext(env)
	w := build()
	if s.AutoTune {
		compiler.AutoTune(w.Prog)
	}
	if s.Checkpoints {
		compiler.InjectLoopCheckpoints(w.Prog)
	}
	if s.Evictions {
		compiler.InjectEvictions(w.Prog)
	}
	secs, err := w.Run(ctx)
	return secs, ctx, err
}

// fmtTime renders seconds compactly.
func fmtTime(s float64) string { return fmt.Sprintf("%.4g", s) }

// fmtX renders a speedup factor.
func fmtX(base, t float64) string {
	if t == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", base/t)
}
