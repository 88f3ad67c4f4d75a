package runtime

import (
	"fmt"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/gpu"
	"memphis/internal/ir"
	"memphis/internal/lineage"
	"memphis/internal/memctl"
	"memphis/internal/memplan"
	"memphis/internal/spark"
	"memphis/internal/vtime"
)

// ReuseMode selects the reuse framework emulated by the runtime, matching
// the paper's baselines (§6.1).
type ReuseMode int

const (
	// ReuseNone disables lineage tracing and reuse entirely (Base).
	ReuseNone ReuseMode = iota
	// ReuseTrace enables tracing without any reuse (the Trace config of
	// Figure 11, isolating tracing overhead).
	ReuseTrace
	// ReuseLIMA enables eager fine-grained reuse of local CP operations
	// only, like the LIMA framework.
	ReuseLIMA
	// ReuseHelix enables coarse-grained (function-level) reuse only, like
	// HELIX-style pipeline-level materialization.
	ReuseHelix
	// ReuseMemphisFine is MEMPHIS with multi-level (function) reuse
	// disabled: operator-at-a-time reuse across all backends (MPH-F).
	ReuseMemphisFine
	// ReuseMemphis is full MEMPHIS: fine-grained multi-backend reuse plus
	// multi-level function reuse.
	ReuseMemphis
)

func (m ReuseMode) String() string {
	switch m {
	case ReuseNone:
		return "Base"
	case ReuseTrace:
		return "Trace"
	case ReuseLIMA:
		return "LIMA"
	case ReuseHelix:
		return "HELIX"
	case ReuseMemphisFine:
		return "MPH-F"
	case ReuseMemphis:
		return "MPH"
	default:
		return "?"
	}
}

// Config assembles the runtime configuration.
type Config struct {
	Mode     ReuseMode
	Compiler compiler.Config
	Cache    core.Config

	// CPAllowlist, when non-nil, restricts fine-grained CP caching to the
	// listed opcodes (used to emulate application-specific frameworks such
	// as CoorDL's input-pipeline-only reuse).
	CPAllowlist map[string]bool

	// FuncAllowlist, when non-nil, restricts function-level reuse to the
	// named functions (e.g. Clipper's prediction-only caching).
	FuncAllowlist map[string]bool

	// Spark cluster and GPU sizing; zero values disable the backend.
	Spark       spark.Config
	GPUCapacity int64

	// GPUPolicy selects the device allocator behaviour: the zero value is
	// MEMPHIS's full Algorithm 1; gpu.PolicyPool emulates PyTorch's
	// caching allocator; gpu.PolicyNone disables recycling (Base).
	GPUPolicy gpu.Policy

	// Model overrides the cost model (nil uses costs.Default). Baselines
	// with different hardware assumptions (e.g. Base-P's parallel feature
	// processing) install scaled models.
	Model *costs.Model

	// Faults, when non-nil, injects deterministic failures into the GPU
	// allocator, the Spark simulator, and the driver cache's spill path.
	// Runs with the same plan replay bitwise-identically.
	Faults *faults.Plan

	// MemoryPlanner enables the compile-time memory planner
	// (internal/memplan) under the driver cache budget Cache.CPBudget: every
	// compiled stream's peak is summed from its operands' bytes (nothing is
	// released before block end), and cache flips apply to streams whose
	// peak overruns the budget. Off keeps every execution path
	// bitwise-identical to the planner-less runtime.
	MemoryPlanner bool
}

// Stats counts runtime events.
type Stats struct {
	Instructions int64
	CPInsts      int64
	SPInsts      int64
	GPUInsts     int64
	Reused       int64
	ActionReuses int64
	FuncCalls    int64
	FuncReuses   int64
	Prefetches   int64
	Broadcasts   int64
	Checkpoints  int64
	Evicts       int64
	GPUFallbacks int64
	Collects     int64
	D2HFetches   int64

	// Shared-cache traffic (serving layer; zero without AttachShared).
	SharedProbes int64
	SharedHits   int64
	SharedPuts   int64

	// Memory-planner events (zero without Config.MemoryPlanner).
	PlanBlocks int64 // planned stream executions
}

// Context is the execution context: symbol table, backends, lineage map,
// cache, and configuration.
type Context struct {
	Clock *vtime.Clock
	Model *costs.Model
	SC    *spark.Context
	GM    *gpu.Manager
	Cache *core.Cache
	// LMap is the symbol table: every bound name's value and lineage item
	// (the LineageMap of §3.2 and the variable bindings, in one table).
	LMap *Table
	Conf Config

	// Arb is the memory pool registry: every backend memory region (CP
	// cache, Spark reuse share, Spark storage, GPU device) registers
	// with it and reports its pressure, evictions and demotions.
	Arb *memctl.Arbiter

	// Shared is the optional cross-session reuse level (serving layer),
	// attached with AttachShared together with the Tenant identity.
	Shared SharedCache
	Tenant string

	// Every basic block reaches the interpreter through a compile cache:
	// attached (AttachCompileCache) or, without one, the session's own.
	// bbKeys memoizes per-block key components and the key last computed,
	// condBBs the block wrapped around each while/if condition, loopLeaves
	// each for loop's lineage leaves (all three keyed by pointers into
	// prog) and fnOuts each function's output-key data strings (by name).
	// All are dropped when RunProgram sees a different program, so a
	// long-lived session holds memos for one program at a time.
	attached   CompileCache
	own        *BlockCache
	bbKeys     map[*ir.BasicBlock]blockKeyParts
	condBBs    map[*ir.Node]*ir.BasicBlock
	loopLeaves map[*ir.ForBlock][]*lineage.Item
	fnOuts     map[string][]string

	prog *ir.Program

	// The executing stream's frame: its layout's names resolved to cells
	// of the current scope (bindings.go). frames is the stack the nested
	// frames of function calls share. scopes are the callee scopes by call
	// depth, kept for the next call at that depth.
	layout *compiler.Layout
	frame  []*binding
	frames []*binding
	scopes []map[string]*binding
	depth  int

	// cand is the lineage candidate a reuse probe fills: an item is
	// allocated only when the probe misses.
	cand lineage.Candidate

	// inputSigs records content fingerprints of host-bound inputs by name,
	// and leafMemo caches per-item read-leaf name sets; both feed the
	// content signatures that make cross-tenant sharing sound.
	inputSigs map[string]uint64
	leafMemo  map[*lineage.Item][]string

	// Inj is the session's fault injector (nil without Config.Faults); its
	// counters feed the serving layer's failure report.
	Inj *faults.Injector

	// Current block header parameters (set per basic block).
	delayFactor  int
	storageLevel spark.StorageLevel

	// Memory-planner state: the plan of the currently executing stream,
	// the planner report rows by stream signature, also listed in
	// first-seen order (nil without Config.MemoryPlanner), and the CP
	// evictions those rows have claimed so far.
	activePlan  *memplan.Plan
	planRecs    map[uint64]*planRecord
	planOrder   []*planRecord
	planEvicted int64

	// fusedProgs memoizes parsed fused-instruction step programs by
	// encoding.
	fusedProgs map[string]*data.FusedProgram

	closed bool

	Stats Stats
}

// New creates a context with the configured backends on a fresh clock.
func New(conf Config) *Context {
	clock := vtime.New()
	model := conf.Model
	if model == nil {
		model = costs.Default()
	}
	ctx := &Context{
		Clock: clock,
		Model: model,
		LMap:  newTable(),
		Conf:  conf,
	}
	if conf.Spark.NumExecutors > 0 {
		ctx.SC = spark.NewContext(clock, model, conf.Spark)
	}
	if conf.GPUCapacity > 0 {
		dev := gpu.NewDevice(clock, model, "gpu0", conf.GPUCapacity)
		ctx.GM = gpu.NewManager(dev)
		ctx.GM.Policy = conf.GPUPolicy
	}
	ctx.Cache = core.NewCache(clock, model, conf.Cache, ctx.SC, ctx.GM)
	// Register every backend memory region with the arbiter, in a fixed
	// order (cp, spark-reuse, spark, gpu) so snapshots are stable.
	ctx.Arb = memctl.NewArbiter()
	ctx.Cache.SetArbiter(ctx.Arb)
	if ctx.SC != nil {
		ctx.SC.SetArbiter(ctx.Arb)
	}
	if ctx.GM != nil {
		ctx.GM.Meter = ctx.Arb.Register(ctx.GM)
		ctx.GM.SetHostEvictor(ctx.evictGPUToHost)
	}
	if conf.Faults != nil {
		ctx.Inj = faults.NewInjector(conf.Faults)
		if ctx.SC != nil {
			ctx.SC.SetInjector(ctx.Inj)
		}
		if ctx.GM != nil {
			ctx.GM.SetInjector(ctx.Inj)
		}
		ctx.Cache.SetInjector(ctx.Inj)
	}
	return ctx
}

// tracing reports whether lineage tracing is active.
func (ctx *Context) tracing() bool { return ctx.Conf.Mode != ReuseNone }

// fineGrainedReuse reports whether operator-at-a-time reuse is active for
// the given backend.
func (ctx *Context) fineGrainedReuse(b core.Backend) bool {
	switch ctx.Conf.Mode {
	case ReuseLIMA:
		return b == core.BackendCP
	case ReuseMemphis, ReuseMemphisFine:
		return true
	default:
		return false
	}
}

// multiLevelReuse reports whether function-level reuse is active.
func (ctx *Context) multiLevelReuse(fn string) bool {
	switch ctx.Conf.Mode {
	case ReuseHelix, ReuseMemphis:
		if ctx.Conf.FuncAllowlist != nil {
			return ctx.Conf.FuncAllowlist[fn]
		}
		return true
	default:
		return false
	}
}

// Var returns a bound value or nil.
func (ctx *Context) Var(name string) *Value {
	if c := ctx.LMap.lookup(name); c != nil {
		return c.v
	}
	return nil
}

// BindHost binds an input matrix to a variable (a persistent read: its
// lineage is a leaf). With a shared level attached it fingerprints the
// content for the share signatures.
func (ctx *Context) BindHost(name string, m *data.Matrix) {
	var fp uint64
	if ctx.Shared != nil {
		fp = m.Fingerprint()
	}
	ctx.BindHostFingerprinted(name, m, fp)
}

// BindHostFingerprinted is BindHost for a caller that already holds
// fp == m.Fingerprint(): the serving layer hashes each input once at
// admission and hands the sum over instead of hashing again on the worker.
func (ctx *Context) BindHostFingerprinted(name string, m *data.Matrix, fp uint64) {
	c := ctx.LMap.cell(name)
	ctx.bindCell(c, NewHostValue(m))
	if ctx.tracing() {
		c.li = lineage.NewLeaf("read", name)
	}
	if ctx.Shared != nil {
		ctx.inputSigs[name] = fp
	}
}

// removeVar unbinds a variable, releasing GPU references.
func (ctx *Context) removeVar(name string) {
	if c := ctx.LMap.lookup(name); c != nil {
		ctx.unbindCell(c)
	}
}

// clearTemps unbinds a block's temporaries (CompiledBlock.temps, slots of
// the current frame) that are still bound, in stream order, returning their
// GPU pointers to the free list (this is what makes mini-batch recycling
// effective).
func (ctx *Context) clearTemps(temps []int32) {
	for _, s := range temps {
		if c := ctx.frame[s]; c.v != nil {
			ctx.unbindCell(c)
		}
	}
}

// shapes snapshots variable shapes for compiling a block.
func (ctx *Context) shapes() map[string]ir.Shape {
	env := make(map[string]ir.Shape, len(ctx.LMap.scope))
	for name, c := range ctx.LMap.scope {
		if v := c.v; v != nil {
			env[name] = ir.Shape{Rows: v.Rows, Cols: v.Cols}
		}
	}
	return env
}

// operand resolves operand i of an instruction of the current frame to a
// value; literal operands become scalar values of their prepared parse.
func (ctx *Context) operand(inst *compiler.Instruction, i int) (*Value, error) {
	s := inst.Slot(i)
	if s < 0 {
		f, err := inst.Literal(i)
		if err != nil {
			return nil, fmt.Errorf("runtime: bad literal %q: %v", inst.Inputs[i], err)
		}
		return NewScalar(f), nil
	}
	v := ctx.frame[s].v
	if v == nil {
		return nil, fmt.Errorf("runtime: undefined variable %q", inst.Inputs[i])
	}
	return v, nil
}

// Close releases everything the context holds in the simulated backends:
// variable bindings (returning GPU references), the lineage cache's Spark
// and GPU objects, all device pointers, and all cluster storage and
// broadcasts. Without Close, sessions leak simulated device and cluster
// memory for the life of the process. Close is idempotent; running programs
// or binding inputs after Close returns an error from RunProgram.
func (ctx *Context) Close() error {
	if ctx.closed {
		return nil
	}
	ctx.closed = true
	for _, c := range ctx.LMap.scope {
		ctx.unbindCell(c)
	}
	// Clear before GM.Close so recycle callbacks find no entries (no
	// device-to-host eviction is charged during teardown).
	ctx.Cache.Clear()
	if ctx.GM != nil {
		ctx.GM.Close()
	}
	if ctx.SC != nil {
		ctx.SC.Shutdown()
	}
	return nil
}

// Closed reports whether Close has been called.
func (ctx *Context) Closed() bool { return ctx.closed }

// evictGPUToHost is the device-to-host eviction hook invoked by the GPU
// memory manager when recycling cannot satisfy an allocation (Algorithm 1
// step 5, reached only when the device is genuinely full). It counts one
// pressure event against the gpu pool and demotes; as in the paper, the
// device evicts by its own rule and consults no other pool.
func (ctx *Context) evictGPUToHost(need int64) int64 {
	ctx.GM.Meter.NotePressure()
	return ctx.demoteGPUToHost(need)
}

// demoteGPUToHost is the GPU pool's demotion: move the lowest-scored cached
// live pointers down to the host cache (and from there, under cascading
// pressure, to disk spill) until need bytes of device memory are released.
// Each pointer's value crosses the bus exactly once — Cache.DemoteGPUPointer
// detaches the lineage entry and charges the D2H transfer, then Surrender
// frees the device side without triggering the recycle callback. Variables
// still referencing the pointer are handed the host matrix so execution
// falls back to CP transparently.
func (ctx *Context) demoteGPUToHost(need int64) int64 {
	var freed int64
	for _, p := range ctx.GM.DemotableLive() {
		if freed >= need {
			break
		}
		m := ctx.Cache.DemoteGPUPointer(p)
		if m == nil {
			continue
		}
		for _, c := range ctx.LMap.scope {
			if v := c.v; v != nil && v.GPU == p {
				if v.M == nil {
					v.M = m
				}
				v.GPU = nil
			}
		}
		size := p.Size()
		ctx.GM.Surrender(p)
		freed += size
	}
	return freed
}
