package runtime

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"memphis/internal/compiler"
	"memphis/internal/ir"
	"memphis/internal/key"
	"memphis/internal/memplan"
)

// CompiledBlock is one fully prepared basic-block execution unit: the
// compiled instruction stream, and — when a memory planner is configured —
// the planner's plan for it. Cached blocks are shared
// read-only across concurrent sessions: the executed stream is prepared
// (compiler.Prepare) before the block is published and never written
// afterwards, and memplan.Plan's runtime query (SkipCache) is read-only,
// so no further synchronization is needed. A session holds
// the block it executes by pointer, so evicting it from a cache mid-run is
// harmless.
type CompiledBlock struct {
	// Insts is the compiled stream the block executes. It is prepared.
	Insts []compiler.Instruction
	// Plan is the memory plan for Insts (nil without a planner).
	Plan *memplan.Plan
	// Sig is streamSig(Insts): the key of the session's planner report
	// rows, so blocks that compile to the same stream share one row.
	Sig uint64

	// layout is Insts' layout, and temps the slots of the block-local
	// temporaries ("_t…") Insts binds, in first-binding order: what
	// block end unbinds.
	layout *compiler.Layout
	temps  []int32
}

// CompileCache is the seam every basic block passes on its way to the
// interpreter (BlockCache is the implementation; tests and the benchmark
// harness substitute recorders). Both methods must be safe for concurrent
// use. StoreCompiled returns the block that ends up resident: under a
// racing double-compile the first writer wins and later writers adopt the
// resident block, so every session executes the same object.
type CompileCache interface {
	LookupCompiled(key uint64) (*CompiledBlock, bool)
	StoreCompiled(key uint64, cb *CompiledBlock) *CompiledBlock
}

// blockShardCap bounds one BlockCache shard; the oldest block of a full
// shard makes room for a new one (FIFO). Sized so that no program in the
// tree evicts (the largest compiles a few dozen distinct blocks) while a
// session fed an endless stream of distinct scripts holds a few MB at most.
const blockShardCap = 256

// BlockCache is the compile cache: a sharded, bounded map from block key to
// CompiledBlock. A session owns a one-shard instance by default; the
// serving layer shares a wider one across all tenants' sessions, so hot
// programs are compiled, auto-tuned, and memory-planned once. Keys are
// computed by Context.blockKey as (block structure, read-variable shapes,
// compiler config, planner budget), so entries are never shared across
// different input shapes or planner budgets, and are shared by every
// program that contains the block.
//
// Compilation charges no virtual time and is a pure function of the key's
// components, so a hit, a miss and an eviction are indistinguishable to the
// program: results and virtual times are bitwise-identical either way.
type BlockCache struct {
	shards []blockShard

	// lookups counts LookupCompiled calls and is deterministic for a given
	// request mix (one lookup per block execution, independent of
	// interleaving). hits and stores depend on timing: two sessions racing
	// on a cold key may both miss and compile, with the first store
	// winning. Deterministic reports therefore derive the hit rate as
	// 1 - entries/lookups rather than from the raw hit counter.
	lookups atomic.Int64
	hits    atomic.Int64
	stores  atomic.Int64
}

type blockShard struct {
	mu sync.RWMutex
	m  map[uint64]*CompiledBlock
	// fifo holds the resident keys in insertion order; its capacity is the
	// shard's bound, and once full it is a ring whose oldest key sits at
	// next.
	fifo []uint64
	next int
}

// NewBlockCache creates a cache with the given shard count (at least one).
func NewBlockCache(shards int) *BlockCache {
	if shards < 1 {
		shards = 1
	}
	c := &BlockCache{shards: make([]blockShard, shards)}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*CompiledBlock)
		c.shards[i].fifo = make([]uint64, 0, blockShardCap)
	}
	return c
}

func (c *BlockCache) shard(key uint64) *blockShard {
	return &c.shards[key%uint64(len(c.shards))]
}

// LookupCompiled implements CompileCache.
func (c *BlockCache) LookupCompiled(key uint64) (*CompiledBlock, bool) {
	c.lookups.Add(1)
	sh := c.shard(key)
	sh.mu.RLock()
	cb, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return cb, ok
}

// StoreCompiled implements CompileCache: first writer wins, and racing
// writers adopt the resident block so all sessions execute the same shared
// object. A full shard drops its oldest block.
func (c *BlockCache) StoreCompiled(key uint64, cb *CompiledBlock) *CompiledBlock {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, ok := sh.m[key]; ok {
		return prev
	}
	if len(sh.fifo) < cap(sh.fifo) {
		sh.fifo = append(sh.fifo, key)
	} else {
		delete(sh.m, sh.fifo[sh.next])
		sh.fifo[sh.next] = key
		sh.next = (sh.next + 1) % len(sh.fifo)
	}
	sh.m[key] = cb
	c.stores.Add(1)
	return cb
}

// BlockCacheStats is a point-in-time counter snapshot. Entries counts the
// resident blocks. Lookups and Entries are deterministic for a fixed
// request mix; Hits and Stores can vary with interleaving (racing cold-key
// compiles), so deterministic consumers compute HitRate = 1 -
// Entries/Lookups.
type BlockCacheStats struct {
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`
	Stores  int64 `json:"stores"`
	Entries int64 `json:"entries"`
	Shards  int   `json:"shards"`
}

// StatsSnapshot returns current counters.
func (c *BlockCache) StatsSnapshot() BlockCacheStats {
	st := BlockCacheStats{
		Lookups: c.lookups.Load(),
		Hits:    c.hits.Load(),
		Stores:  c.stores.Load(),
		Shards:  len(c.shards),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Entries += int64(len(sh.m))
		sh.mu.RUnlock()
	}
	return st
}

// HitRate is the deterministic hit-rate estimate: the fraction of lookups
// that did not require a distinct compilation. It is exact while nothing
// has been evicted; afterwards Entries counts only the resident blocks, so
// evicted blocks and their recompiles go uncounted and the value is an
// upper bound. Returns 0 with no lookups.
func (st BlockCacheStats) HitRate() float64 {
	if st.Lookups == 0 {
		return 0
	}
	return 1 - float64(st.Entries)/float64(st.Lookups)
}

// AttachCompileCache swaps a shared compile cache in for the session's own;
// AttachCompileCache(nil, 0) restores the session's own. The second
// parameter is ignored: a compiled block depends on the block, not on the
// program around it, so programs that share a block share its entry.
func (ctx *Context) AttachCompileCache(cc CompileCache, _ uint64) {
	ctx.attached = cc
}

// compileCache returns the cache this session's blocks go through: the
// attached one, else the session's own, created on first use — a served
// request always runs on the server's cache and never allocates one.
func (ctx *Context) compileCache() CompileCache {
	if ctx.attached != nil {
		return ctx.attached
	}
	if ctx.own == nil {
		ctx.own = NewBlockCache(1)
	}
	return ctx.own
}

// blockKeyParts memoizes the shape-independent components of a block's
// cache key — the structural fingerprint and the sorted set of variables
// the block reads, whose shapes are the dynamic key component — and the key
// last computed, with the read shapes and configuration it was computed
// from.
type blockKeyParts struct {
	fp     uint64
	reads  []string
	shapes []readShape
	conf   keyConf
	key    uint64
	keyed  bool
}

// readShape is a read variable's shape as the block key sees it.
type readShape struct {
	rows, cols int
	bound      bool
}

// keyConf is the session configuration a block key folds in.
type keyConf struct {
	compiler compiler.Config
	planner  bool
	budget   int64
}

// blockKey computes the compile-cache key for one basic block in the
// current environment: (block structure, shapes of the variables the block
// reads, compiler config, planner budget when the planner is on).
// Compilation is a pure function of exactly these inputs — CompileBlock
// consults the shape environment only through the block's variable
// references — so equal keys imply bitwise-equal compiled streams. While
// the read shapes and the configuration equal those the memoized key was
// computed from, the memo answers without hashing.
func (ctx *Context) blockKey(bb *ir.BasicBlock) uint64 {
	parts, ok := ctx.bbKeys[bb]
	if !ok {
		readSet := make(map[string]struct{})
		for _, st := range bb.Stmts {
			ir.VarsRead(st.Expr, readSet)
		}
		reads := make([]string, 0, len(readSet))
		for name := range readSet {
			reads = append(reads, name)
		}
		sort.Strings(reads)
		parts = blockKeyParts{fp: ir.FingerprintBlock(bb), reads: reads, shapes: make([]readShape, len(reads))}
		if ctx.bbKeys == nil {
			ctx.bbKeys = make(map[*ir.BasicBlock]blockKeyParts)
		}
	}
	conf := keyConf{ctx.Conf.Compiler, ctx.Conf.MemoryPlanner, ctx.Conf.Cache.CPBudget}
	same := parts.keyed && parts.conf == conf
	for i, name := range parts.reads {
		var s readShape
		if v := ctx.Var(name); v != nil {
			s = readShape{v.Rows, v.Cols, true}
		}
		if parts.shapes[i] != s {
			parts.shapes[i], same = s, false
		}
	}
	if same {
		return parts.key
	}
	h := key.New().Hex16(parts.fp).Byte('|')
	for i, name := range parts.reads {
		h = h.Str(name)
		if s := parts.shapes[i]; s.bound {
			h = h.Byte('=').Int(int64(s.rows)).Byte('x').Int(int64(s.cols)).Byte(';')
		} else {
			h = h.Str("=?;")
		}
	}
	c := &ctx.Conf.Compiler
	h = h.Str("|cc:opmem=").Int(c.OpMemBudget).
		Str(",gpu=").Bool(c.GPUEnabled).
		Str(",gpumin=").Int(int64(c.GPUMinCells)).
		Str(",async=").Bool(c.Async).
		Str(",maxpar=").Bool(c.MaxParallelize).
		Str(",chk=").Bool(c.CheckpointInjection).
		Str(",fuse=").Bool(c.Fusion)
	if ctx.Conf.MemoryPlanner {
		h = h.Str("|mp:").Int(ctx.Conf.Cache.CPBudget)
	}
	parts.conf, parts.key, parts.keyed = conf, h.Sum64(), true
	ctx.bbKeys[bb] = parts
	return parts.key
}

// compiledBlock returns the prepared execution unit for a basic block from
// the compile cache, compiling (and planning) on a miss. This is the only
// place a block is compiled.
func (ctx *Context) compiledBlock(bb *ir.BasicBlock) *CompiledBlock {
	cc, key := ctx.compileCache(), ctx.blockKey(bb)
	if cb, hit := cc.LookupCompiled(key); hit {
		return cb
	}
	insts := compiler.CompileBlock(bb, ctx.shapes(), ctx.Conf.Compiler)
	cb := &CompiledBlock{Insts: insts, Sig: streamSig(insts)}
	if ctx.Conf.MemoryPlanner {
		cb.Plan = memplan.Apply(insts, memplan.Config{Budget: ctx.Conf.Cache.CPBudget})
	}
	cb.layout = compiler.Prepare(insts)
	cb.temps = tempsOf(insts)
	return cc.StoreCompiled(key, cb)
}

// tempsOf lists the slots of the distinct "_t…" names a prepared stream
// binds, in first-binding order.
func tempsOf(insts []compiler.Instruction) []int32 {
	var temps []int32
	for i := range insts {
		for j, out := range insts[i].Outputs {
			if s := int32(insts[i].OutSlot(j)); strings.HasPrefix(out, "_t") && !slices.Contains(temps, s) {
				temps = append(temps, s)
			}
		}
	}
	return temps
}
