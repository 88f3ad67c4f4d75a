// Package memphis is the public facade of the MEMPHIS reproduction: a
// multi-backend ML system (local CPU, simulated Spark cluster, simulated
// GPU) with holistic lineage-based reuse and memory management, following
// "MEMPHIS: Holistic Lineage-based Reuse and Memory Management for
// Multi-backend ML Systems" (EDBT 2025).
//
// A Session owns the backends, the compiler, and the hierarchical lineage
// cache. Programs are built with the ir package's expression API, bound to
// input matrices, and executed with per-instruction lineage tracing and
// reuse. Time is virtual: deterministic and reproducible, charged from an
// analytic cost model onto per-resource timelines.
//
//	s := memphis.New(memphis.Options{Reuse: memphis.ReuseFull})
//	s.Bind("X", data.RandNorm(1000, 32, 0, 1, 7))
//	prog := ir.NewProgram()
//	prog.Main = []ir.Block{ir.BB(ir.Assign("G", ir.TSMM(ir.Var("X"))))}
//	_ = s.Run(prog)
//	fmt.Println(s.VirtualTime(), s.CacheStats().HitsCP)
package memphis

import (
	"errors"
	"fmt"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/gpu"
	"memphis/internal/ir"
	"memphis/internal/lineage"
	"memphis/internal/memctl"
	"memphis/internal/runtime"
	"memphis/internal/serve"
	"memphis/internal/spark"
)

// Matrix is the dense matrix type used for inputs and results.
type Matrix = data.Matrix

// Reuse selects the reuse framework configuration.
type Reuse int

const (
	// ReuseOff disables lineage tracing and reuse (the Base baseline).
	ReuseOff Reuse = iota
	// ReuseLocal enables eager fine-grained reuse of local operations
	// only (LIMA).
	ReuseLocal
	// ReuseCoarse enables function-level reuse only (HELIX-style).
	ReuseCoarse
	// ReuseFine enables fine-grained reuse across all backends without
	// function-level reuse (MPH-F).
	ReuseFine
	// ReuseFull is complete MEMPHIS: multi-backend fine-grained plus
	// multi-level reuse with all compiler extensions.
	ReuseFull
)

// Options configures a Session. The zero value runs everything locally
// without reuse.
type Options struct {
	Reuse Reuse

	// EnableGPU adds the simulated accelerator; MemoryBudgets.GPU sizes it
	// (default 48 MB, the paper's 48 GB at 1/1000 scale).
	EnableGPU bool

	// OpMemBudget is the operation memory: operators with larger
	// estimates compile to distributed Spark instructions. Defaults to
	// 7 MB ("7 GB" at scale).
	OpMemBudget int64

	// FaultPlan, when non-nil, injects deterministic failures (simulated
	// GPU OOM, Spark task/fetch/spill/executor faults, driver spill I/O
	// errors) that the runtime's recovery paths absorb. Same plan, same
	// virtual-time trace — see faults.Default for chaos-mode probabilities.
	FaultPlan *FaultPlan

	// MemoryBudgets sets explicit per-pool byte budgets for the unified
	// memory arbiter. Zero fields keep the defaults. OpMemBudget is the
	// compiler's CP-vs-Spark placement threshold, NOT a storage budget;
	// MemoryBudgets.Spark sizes the cluster storage region. An OpMemBudget
	// larger than MemoryBudgets.Spark is a configuration error (operators
	// placed locally up to OpMemBudget bytes could never be checkpointed),
	// reported by Options.Validate, which New applies.
	MemoryBudgets MemoryBudgets

	// Fusion enables the compile-time elementwise fusion pass: maximal
	// chains of elementwise/unary/scalar operators compile to single fused
	// instructions executed as one loop with zero intermediate matrices.
	// Lineage keys are unchanged (the runtime replays constituent ops while
	// tracing), so cache contents interoperate across fusion on/off, and
	// results are bitwise-identical at any parallelism.
	Fusion bool

	// MemoryPlanner enables the compile-time memory planner
	// (internal/memplan): a static peak per compiled stream, the sum of its
	// operands' bytes (nothing is released before block end), and
	// cache-vs-recompute flips on streams whose peak overruns the budget.
	// The planning budget is the CP cache budget (MemoryBudgets.CP, else
	// the default).
	// Numeric results are bitwise-identical with the planner on or off.
	MemoryPlanner bool
}

// MemoryBudgets names the byte budgets of the arbiter's pools: the driver
// lineage cache (CP), the reuse share of cluster storage (SparkReuse), the
// cluster storage region itself (Spark), and device memory (GPU).
// Session.Stats().Memory reports one row per pool under these budgets.
type MemoryBudgets struct {
	CP         int64 // driver lineage cache (default 16 MB)
	SparkReuse int64 // reuse share of cluster storage (default 48 MB)
	Spark      int64 // cluster storage region (default 64 MB)
	GPU        int64 // device capacity, when EnableGPU is set (default 48 MB)
}

// FaultPlan is a replayable fault scenario (see internal/faults): a seed plus
// per-site triggers. DefaultFaultPlan gives the chaos-mode defaults.
type FaultPlan = faults.Plan

// DefaultFaultPlan returns the chaos-mode plan: low per-site probabilities
// that every recovery path absorbs without failing a run.
func DefaultFaultPlan(seed int64) *FaultPlan { return faults.Default(seed) }

// Validate checks the Options for conflicting settings, returning a
// descriptive error for the first conflict found. New applies it and defers
// the error to Run/Lookup; call it directly to fail fast.
func (o Options) Validate() error {
	if o.OpMemBudget > 0 && o.MemoryBudgets.Spark > 0 && o.OpMemBudget > o.MemoryBudgets.Spark {
		return fmt.Errorf("memphis: OpMemBudget (%d) exceeds MemoryBudgets.Spark (%d); operators compiled locally under OpMemBudget could never fit the cluster storage region",
			o.OpMemBudget, o.MemoryBudgets.Spark)
	}
	return nil
}

// Session is an execution context over the simulated multi-backend stack.
type Session struct {
	ctx  *runtime.Context
	opts Options
	// optErr is the deferred Options.Validate error; Run and Lookup
	// surface it instead of executing under a misconfigured session.
	optErr error
}

// runtimeConfig lowers public Options to the internal runtime configuration
// (shared by New and NewServer, so queued requests execute exactly like
// standalone sessions).
func runtimeConfig(opts Options) runtime.Config {
	comp := compiler.DefaultConfig()
	if opts.OpMemBudget > 0 {
		comp.OpMemBudget = opts.OpMemBudget
	} else {
		comp.OpMemBudget = 7 << 20
	}
	comp.GPUEnabled = opts.EnableGPU
	cache := core.DefaultConfig()
	if opts.MemoryBudgets.CP > 0 {
		cache.CPBudget = opts.MemoryBudgets.CP
	}
	if opts.MemoryBudgets.SparkReuse > 0 {
		cache.SparkBudget = opts.MemoryBudgets.SparkReuse
	}
	sparkConf := spark.DefaultConfig()
	if opts.MemoryBudgets.Spark > 0 {
		sparkConf.StorageMemory = opts.MemoryBudgets.Spark
	}
	mode := runtime.ReuseNone
	switch opts.Reuse {
	case ReuseLocal:
		mode = runtime.ReuseLIMA
	case ReuseCoarse:
		mode = runtime.ReuseHelix
	case ReuseFine:
		mode = runtime.ReuseMemphisFine
	case ReuseFull:
		mode = runtime.ReuseMemphis
	}
	if opts.Reuse == ReuseFull || opts.Reuse == ReuseFine {
		comp.Async = true
		comp.MaxParallelize = true
		comp.CheckpointInjection = true
	}
	gcap := int64(0)
	pol := gpu.PolicyNone
	if opts.EnableGPU {
		gcap = opts.MemoryBudgets.GPU
		if gcap <= 0 {
			gcap = 48 << 20
		}
		if opts.Reuse == ReuseFull || opts.Reuse == ReuseFine {
			pol = gpu.PolicyMemphis
		}
	}
	comp.Fusion = opts.Fusion
	return runtime.Config{
		Mode:          mode,
		Compiler:      comp,
		Cache:         cache,
		Spark:         sparkConf,
		GPUCapacity:   gcap,
		GPUPolicy:     pol,
		Faults:        opts.FaultPlan,
		MemoryPlanner: opts.MemoryPlanner,
	}
}

// New creates a session. Conflicting budget options (see Options.Validate)
// are not fatal here: the error is stored and returned by Run and Lookup.
func New(opts Options) *Session {
	return &Session{ctx: runtime.New(runtimeConfig(opts)), opts: opts, optErr: opts.Validate()}
}

// Bind installs an input matrix under a variable name (a persistent read:
// the root of lineage traces).
func (s *Session) Bind(name string, m *Matrix) { s.ctx.BindHost(name, m) }

// Run compiles and executes a program, applying MEMPHIS's program-level
// rewrites (checkpoint placement, delay-factor tuning, eviction injection)
// when full reuse is enabled. Programs may be run repeatedly: the rewrites
// edit the program in place and are applied once per program (whichever
// session or server sees it first), compiled blocks are kept in the session's
// compile cache and recompiled only when the shapes they read change, and the
// lineage cache persists across runs within the session. Do not edit a
// program's blocks after its first Run or Submit (see ir.Program).
func (s *Session) Run(p *ir.Program) error {
	if s.optErr != nil {
		return s.optErr
	}
	if s.opts.Reuse == ReuseFull {
		compiler.RewriteProgram(p)
	}
	return s.ctx.RunProgram(p)
}

// Value fetches a variable's value to the host (triggering any pending
// collect/copy). It returns nil — not an error — when the name was never
// bound or assigned, or the session is closed; callers that need to
// distinguish "unbound" from a legitimate value should use Lookup.
func (s *Session) Value(name string) *Matrix {
	m, err := s.Lookup(name)
	if err != nil {
		return nil
	}
	return m
}

// Lookup fetches a variable's value to the host like Value, but reports
// unbound names and closed sessions as errors instead of a silent nil.
// Fetching can run deferred Spark jobs; under fault injection such a job can
// exhaust its task attempts, which surfaces here as an error rather than a
// panic.
func (s *Session) Lookup(name string) (m *Matrix, err error) {
	if s.optErr != nil {
		return nil, s.optErr
	}
	if s.ctx.Closed() {
		return nil, fmt.Errorf("memphis: session is closed")
	}
	v := s.ctx.Var(name)
	if v == nil {
		return nil, fmt.Errorf("memphis: variable %q is not bound", name)
	}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, spark.ErrStageAbort) {
				m, err = nil, fmt.Errorf("memphis: fetching %q: %w", name, e)
				return
			}
			panic(r)
		}
	}()
	return s.ctx.EnsureHostValue(v), nil
}

// Close releases the session's simulated resources: GPU pointers are freed,
// Spark RDDs and broadcasts unpersisted, and the lineage cache cleared.
// Without Close, sessions leak simulated device and cluster memory for the
// life of the process. Close is idempotent; Run after Close errors and
// Value/Lookup report the session closed.
func (s *Session) Close() error { return s.ctx.Close() }

// VirtualTime returns the driver's virtual clock in seconds — the
// deterministic simulated execution time all experiments report.
func (s *Session) VirtualTime() float64 { return s.ctx.Clock.Now() }

// PoolStats is one memory pool's snapshot row: name, used/budget bytes,
// pressure ratio, and the pool's pressure/eviction/demotion counters.
type PoolStats = memctl.PoolStats

// Stats is the session statistics surface: the runtime counters
// (instruction counts, reuses) plus the unified memory arbiter's per-pool
// pressure and demotion rows.
type Stats struct {
	runtime.Stats
	// Memory has one row per arbiter pool, in fixed registration order: the
	// driver cache ("cp"), the reuse share of cluster storage
	// ("spark-reuse"), the cluster storage region ("spark"), the device pool
	// ("gpu") when EnableGPU is set.
	Memory []PoolStats `json:"memory,omitempty"`
}

// Stats returns the runtime statistics with the memory report attached.
func (s *Session) Stats() Stats {
	return Stats{Stats: s.ctx.Stats, Memory: s.ctx.Arb.Snapshot()}
}

// CacheStats returns the lineage cache statistics (hits per backend,
// evictions, spills, lazy GC activity).
func (s *Session) CacheStats() core.Stats { return s.ctx.Cache.Stats }

// PlanReport is one planned instruction stream's memory-planner report:
// the static peak (the sum of the stream's operand bytes) and cache flips,
// combined with the measured runs and CP evictions.
type PlanReport = runtime.PlanReport

// PlanReports returns one report per planned stream in first-seen order.
// Empty unless Options.MemoryPlanner is set.
func (s *Session) PlanReports() []PlanReport { return s.ctx.PlanReports() }

// SerializeLineage returns the lineage log of a variable (the SERIALIZE
// API, §3.2) for sharing and exact recomputation elsewhere.
func (s *Session) SerializeLineage(name string) (string, error) {
	li := s.ctx.LMap.Get(name)
	if li == nil {
		return "", fmt.Errorf("memphis: no lineage for %q (is reuse/tracing on?)", name)
	}
	return lineage.Serialize(li), nil
}

// Recompute re-executes a lineage log against this session's bound inputs
// and returns the exact original value (the RECOMPUTE API, §3.2).
func (s *Session) Recompute(log string) (*Matrix, error) {
	root, err := lineage.Deserialize(log)
	if err != nil {
		return nil, err
	}
	return runtime.Recompute(s.ctx, root)
}

// Server is the multi-tenant serving layer: a worker pool executing
// programs from many tenants against one shared, concurrency-safe lineage
// cache (see internal/serve). Identical sub-programs over identical data
// submitted by different tenants reuse each other's results.
type Server = serve.Server

// SubmitOptions, Future, Result, and ServerSnapshot are the serving-layer
// request and monitoring types.
type (
	SubmitOptions  = serve.SubmitOptions
	Future         = serve.Future
	Result         = serve.Result
	ServerSnapshot = serve.Snapshot
)

// ServerConfig configures NewServer: it is serve.Config, whose zero fields
// select serve.New's defaults. NewServer fills in its Runtime template and
// its Faults from the server's Options.
type ServerConfig = serve.Config

// NewServer starts a serving layer whose per-request sessions are built
// from opts, exactly as New would build them. Close the server to drain and
// stop it. Unlike New — which defers Options.Validate errors to Run —
// NewServer panics on invalid options: a server template misconfiguration
// would otherwise fail every request of every tenant at execution time.
func NewServer(opts Options, conf ServerConfig) *Server {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	conf.Runtime = runtimeConfig(opts)
	conf.Faults = opts.FaultPlan
	return serve.New(conf)
}
