// Package core implements MEMPHIS's hierarchical multi-backend lineage
// cache (paper §3.3 and §4): a single driver-side hash map from lineage
// items to cache entries that wrap backend-local objects — in-memory
// matrices, Spark RDD handles with their dangling child references, GPU
// pointers, and disk-spilled binaries. The cache provides the unified
// system-internal API (REUSE, PUT, MAKE_SPACE) on the instruction execution
// path and delegates memory management to backend-specific policies:
//
//   - Driver: Cost&Size eviction with optional disk spill.
//   - Spark (§4.1): Eq. (1) scoring (r_h+r_m+r_j)·c/s over persisted RDDs,
//     lazy garbage collection of dangling child RDDs and broadcasts once a
//     parent materializes, and asynchronous count() materialization after
//     k unmaterialized touches.
//   - GPU (§4.2): entries wrap pointers owned by the gpu.Manager; recycling
//     a pointer invalidates its entry via callback.
//
// Delayed caching (§5.2) defers object storage until the n-th repetition of
// an operation using TO-BE-CACHED placeholder entries.
//
// A Cache is one session's cache, charged to that session's clock; the
// serving layer's cross-tenant level (internal/serve) keeps its own entries.
package core

import (
	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/gpu"
	"memphis/internal/lineage"
	"memphis/internal/memctl"
	"memphis/internal/spark"
	"memphis/internal/vtime"
)

// Arbiter pool names of the cache-managed memory regions.
const (
	// PoolCP is the driver lineage cache region.
	PoolCP = "cp"
	// PoolSparkReuse is the reuse share of Spark cluster storage.
	PoolSparkReuse = "spark-reuse"
)

// Backend identifies where a cached object lives.
type Backend int

const (
	// BackendCP is the driver's local (control program) memory.
	BackendCP Backend = iota
	// BackendSpark is cluster storage (a persisted RDD handle).
	BackendSpark
	// BackendGPU is device memory (a GPU pointer).
	BackendGPU
)

func (b Backend) String() string {
	switch b {
	case BackendCP:
		return "CP"
	case BackendSpark:
		return "SPARK"
	case BackendGPU:
		return "GPU"
	default:
		return "?"
	}
}

// Status tracks an entry's lifecycle.
type Status int

const (
	// StatusToBeCached is a delayed-caching placeholder: the operation has
	// repeated but its object is not stored yet.
	StatusToBeCached Status = iota
	// StatusCached means the object is available for reuse.
	StatusCached
	// StatusSpilled means a driver-local object was evicted to disk and is
	// restored on access.
	StatusSpilled
)

// Entry is one lineage cache entry: a wrapper around a backend-specific
// pointer plus the metadata driving eviction and lazy GC.
type Entry struct {
	Key     *lineage.Item
	Backend Backend
	Status  Status

	// Exactly one payload is set, by Backend.
	Matrix *data.Matrix
	RDD    *spark.RDD
	GPUPtr *gpu.Pointer

	// IsAction marks collected Spark action results cached in the driver
	// (reused to bypass whole jobs, §4.1).
	IsAction bool
	// IsFunc marks multi-level (function/block) reuse entries (§3.3).
	IsFunc bool

	// Alias optionally carries the fine-grained lineage of the value when
	// the entry is keyed by a coarse (function-level) item, keeping
	// downstream lineage consistent and the value recomputable.
	Alias *lineage.Item

	// Dangling references owned by this RDD entry for lazy GC.
	ChildRDDs  []*spark.RDD
	Broadcasts []*spark.Broadcast
	gcDone     bool

	// Eviction metadata.
	ComputeCost float64 // c(o): estimated compute cost, seconds
	Size        int64   // s(o): worst-case object size, bytes
	Hits        int64   // r_h
	Misses      int64   // r_m: touches while a placeholder
	Jobs        int64   // r_j: jobs that referenced the RDD
	LastAccess  float64
	Height      int

	// Delayed caching.
	DelayTarget int   // cache after this many repetitions (1 = eager)
	SeenCount   int   // repetitions observed so far
	UnmatTouch  int64 // reuses while the RDD was unmaterialized

	// Planner hint stamp (memplan): the static lifetime class of the
	// entry's value in the plan epoch it was stamped under. Stamps from
	// older epochs are stale (the block that produced them finished) and
	// read as LifeUnknown.
	planLife  memctl.Lifetime
	planEpoch int64

	// seq orders entries by insertion; victim selection breaks score ties
	// toward the lower (older) one instead of toward map iteration order.
	seq uint64
}

// Stats counts cache events; experiments and tests assert on these.
type Stats struct {
	Probes    int64
	HitsCP    int64
	HitsRDD   int64
	HitsGPU   int64
	HitsFunc  int64
	HitsActon int64
	Misses    int64

	Puts            int64
	Placeholders    int64
	DelayedStores   int64
	EvictionsCP     int64
	SpillsCP        int64
	RestoresCP      int64
	UnpersistsSpark int64
	GPUInvalidated  int64

	GCBroadcasts int64
	GCChildRDDs  int64
	AsyncMats    int64
	GPUToHost    int64

	// SpillErrorsCP counts CP spill writes that failed under fault
	// injection (the victim is dropped instead of spilled).
	SpillErrorsCP int64
}

// Config tunes the cache policies.
type Config struct {
	// CPBudget is the driver lineage cache size in bytes.
	CPBudget int64
	// SparkBudget is the cluster storage fraction reserved for reuse
	// (the paper uses 80% of Spark storage).
	SparkBudget int64
	// GPUReuse enables caching of GPU pointers.
	GPUReuse bool
	// SpillToDisk lets driver eviction spill to local disk instead of
	// dropping.
	SpillToDisk bool
	// AsyncMatThreshold is k: unmaterialized touches before an RDD is
	// materialized with an asynchronous count() (default 3).
	AsyncMatThreshold int
}

// DefaultConfig returns the paper's defaults at simulation scale.
func DefaultConfig() Config {
	return Config{
		CPBudget:          16 << 20,
		SparkBudget:       48 << 20,
		GPUReuse:          true,
		SpillToDisk:       true,
		AsyncMatThreshold: 3,
	}
}

// Cache is the hierarchical lineage cache.
type Cache struct {
	clock *vtime.Clock
	model *costs.Model
	conf  Config

	entries map[uint64][]*Entry // lineage hash -> entries (chained)
	nextSeq uint64              // Entry.seq of the next insert

	cpUsed    int64
	sparkUsed int64 // worst-case estimates of persisted reuse RDDs

	// Resident high-water marks (pure observation: no policy or clock
	// effect), surfaced through the arbiter pools' PeakReporter.
	cpPeak    int64
	sparkPeak int64

	// planEpoch counts planned-block executions; zero means no memory
	// plan has ever been active and victim selection is byte-identical to
	// the pre-planner policy.
	planEpoch int64

	sc  *spark.Context // may be nil (no Spark backend)
	gm  *gpu.Manager   // may be nil (no GPU backend)
	gpE map[*gpu.Pointer]*Entry

	// pendingMat are futures of asynchronous materialization jobs.
	pendingMat []*vtime.Future

	// inj injects deterministic spill I/O errors; nil means none.
	inj *faults.Injector

	// arb, when set, receives pressure/eviction/demotion accounting for
	// the cache's memory regions; nil disables reporting.
	arb *memctl.Arbiter

	Stats Stats
}

// NewCache creates the cache. sc and gm may be nil when the corresponding
// backend is absent.
func NewCache(clock *vtime.Clock, model *costs.Model, conf Config,
	sc *spark.Context, gm *gpu.Manager) *Cache {
	c := &Cache{
		clock:   clock,
		model:   model,
		conf:    conf,
		entries: make(map[uint64][]*Entry),
		sc:      sc,
		gm:      gm,
		gpE:     make(map[*gpu.Pointer]*Entry),
	}
	if c.conf.AsyncMatThreshold <= 0 {
		c.conf.AsyncMatThreshold = 3
	}
	if gm != nil {
		gm.SetOnRecycle(c.invalidateGPU)
	}
	return c
}

// SetInjector installs the fault injector (nil disables injection).
func (c *Cache) SetInjector(inj *faults.Injector) { c.inj = inj }

// SetArbiter attaches the memory arbiter and registers the cache's two
// pools (driver cache and Spark reuse share) with it.
func (c *Cache) SetArbiter(a *memctl.Arbiter) {
	c.arb = a
	if a != nil {
		a.Register(cpPool{c})
		a.Register(sparkReusePool{c})
	}
}

// noteEviction reports one object of size bytes dropped from a pool.
func (c *Cache) noteEviction(pool string, size int64) {
	if c.arb != nil {
		c.arb.NoteEviction(pool, 1, size)
	}
}

// noteDemotion reports one object of size bytes moved down the ladder.
func (c *Cache) noteDemotion(pool string, size int64) {
	if c.arb != nil {
		c.arb.NoteDemotion(pool, 1, size)
	}
}

// notePressure reports a MAKE_SPACE pressure event against a pool.
func (c *Cache) notePressure(pool string) {
	if c.arb != nil {
		c.arb.NotePressure(pool)
	}
}

// Config returns the active configuration.
func (c *Cache) Config() Config { return c.conf }

// CPUsed returns the bytes of driver-resident cached matrices.
func (c *Cache) CPUsed() int64 { return c.cpUsed }

// SparkUsed returns the worst-case bytes of reuse-persisted RDDs.
func (c *Cache) SparkUsed() int64 { return c.sparkUsed }

// CPPeak returns the high-water mark of driver-resident cached bytes.
func (c *Cache) CPPeak() int64 { return c.cpPeak }

// SparkPeak returns the high-water mark of reuse-persisted RDD bytes.
func (c *Cache) SparkPeak() int64 { return c.sparkPeak }

// bumpCP/bumpSpark refresh the high-water marks after a usage increase.
func (c *Cache) bumpCP() {
	if c.cpUsed > c.cpPeak {
		c.cpPeak = c.cpUsed
	}
}

func (c *Cache) bumpSpark() {
	if c.sparkUsed > c.sparkPeak {
		c.sparkPeak = c.sparkUsed
	}
}

// BeginPlanEpoch starts a new planner epoch: stamps from earlier planned
// blocks become stale. Called by the runtime before executing a planned
// stream; never called with the planner off, so planEpoch stays zero and
// victim selection keeps its historical byte-identical order.
func (c *Cache) BeginPlanEpoch() { c.planEpoch++ }

// StampLifetime attaches the planner's lifetime class to an entry under
// the current epoch.
func (c *Cache) StampLifetime(e *Entry, life memctl.Lifetime) {
	if e == nil {
		return
	}
	e.planLife = life
	e.planEpoch = c.planEpoch
}

// entryLife reads an entry's effective lifetime class: the stamp when it
// is from the current epoch, unknown otherwise.
func (c *Cache) entryLife(e *Entry) memctl.Lifetime {
	if c.planEpoch > 0 && e.planEpoch == c.planEpoch {
		return e.planLife
	}
	return memctl.LifeUnknown
}

// NumEntries returns the number of cache entries (all states).
func (c *Cache) NumEntries() int {
	n := 0
	for _, chain := range c.entries {
		n += len(chain)
	}
	return n
}

// find locates the entry equal to item, if any.
func (c *Cache) find(item *lineage.Item) *Entry {
	for _, e := range c.entries[item.Hash()] {
		if e.Key.Equals(item) {
			return e
		}
	}
	return nil
}

// insert adds an entry keyed by its lineage item.
func (c *Cache) insert(e *Entry) {
	c.nextSeq++
	e.seq = c.nextSeq
	h := e.Key.Hash()
	c.entries[h] = append(c.entries[h], e)
}

// removeEntry unlinks an entry from the map.
func (c *Cache) removeEntry(e *Entry) {
	h := e.Key.Hash()
	chain := c.entries[h]
	for i, x := range chain {
		if x == e {
			chain = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(c.entries, h)
	} else {
		c.entries[h] = chain
	}
}

// Lookup returns the entry equal to item without charging probe cost or
// touching statistics (metadata access, e.g. alias resolution after a
// successful probe).
func (c *Cache) Lookup(item *lineage.Item) *Entry { return c.find(item) }

// Probe implements REUSE's lookup: it charges the probe cost and returns
// the entry if the item's output is reusable. Placeholder (TO-BE-CACHED)
// entries report a miss but advance their repetition count, implementing
// delayed caching.
func (c *Cache) Probe(item *lineage.Item) (*Entry, bool) {
	c.Stats.Probes++
	c.clock.Advance(c.model.Probe)
	e := c.find(item)
	if e == nil {
		c.Stats.Misses++
		return nil, false
	}
	if e.Status == StatusToBeCached {
		e.Misses++
		c.Stats.Misses++
		return e, false
	}
	// GPU pointers may have been recycled between probe setups.
	if e.Backend == BackendGPU && (e.GPUPtr == nil || !e.GPUPtr.Valid()) {
		c.dropEntry(e)
		c.Stats.Misses++
		return nil, false
	}
	e.Hits++
	e.LastAccess = c.clock.Now()
	switch {
	case e.IsFunc:
		c.Stats.HitsFunc++
	case e.IsAction:
		c.Stats.HitsActon++
	case e.Backend == BackendCP:
		c.Stats.HitsCP++
	case e.Backend == BackendSpark:
		c.Stats.HitsRDD++
	case e.Backend == BackendGPU:
		c.Stats.HitsGPU++
	}
	return e, true
}

// dropEntry removes an entry and releases its resources.
func (c *Cache) dropEntry(e *Entry) {
	switch e.Backend {
	case BackendCP:
		if e.Status == StatusCached && e.Matrix != nil {
			c.cpUsed -= e.Size
		}
	case BackendSpark:
		if e.RDD != nil && e.Status == StatusCached {
			c.sparkUsed -= e.Size
			if e.RDD.StorageLevel() != spark.StorageNone {
				e.RDD.Unpersist()
				c.Stats.UnpersistsSpark++
			}
		}
	case BackendGPU:
		if e.GPUPtr != nil {
			e.GPUPtr.Cached = false
			delete(c.gpE, e.GPUPtr)
		}
	}
	c.removeEntry(e)
}

// invalidateGPU is the gpu.Manager recycle callback: the pointer's memory
// is being handed to a new output. Entries whose recomputation costs more
// than a device-to-host copy are evicted to the driver cache instead of
// dropped — the paper's device-to-host eviction process (§4.2) — so the
// value stays reusable (and is re-uploaded on the next device use). The
// transfer is charged, but the entry takes over the matrix the pointer held:
// the new output replaces the pointer's value, it does not write into it.
func (c *Cache) invalidateGPU(p *gpu.Pointer) {
	e, ok := c.gpE[p]
	if !ok {
		return
	}
	delete(c.gpE, p)
	d2h := costs.Transfer(p.Size(), c.model.D2HBW, c.model.CopyLatency)
	if v := p.Value(); v != nil && e.ComputeCost > 2*d2h && p.Size() <= c.conf.CPBudget {
		c.Stats.GPUToHost++
		c.noteDemotion(gpu.PoolName, p.Size())
		c.clock.Advance(d2h)
		c.MakeSpaceCP(p.Size())
		e.Backend = BackendCP
		e.Matrix = v
		e.GPUPtr = nil
		c.cpUsed += e.Size
		c.bumpCP()
		return
	}
	c.Stats.GPUInvalidated++
	c.noteEviction(gpu.PoolName, p.Size())
	c.removeEntry(e)
}

// DemoteGPUPointer moves a cached GPU pointer's value into the driver
// cache: the device-to-host rung of the demotion ladder, charging the D2H
// transfer exactly once. Unlike invalidateGPU it preserves the value
// unconditionally — the pointer's live variables need the bytes once the
// device copy is surrendered — caching it when it fits the CP budget and
// returning it either way. The caller must then release the device side
// with Manager.Surrender (not Release/Free), which skips the recycle
// callback: the entry is already detached here, so no second D2H charge
// can occur. The matrix returned (and cached) is the one the pointer held,
// not a copy: the device side is given up. Returns nil when the pointer wraps
// no entry or no value.
func (c *Cache) DemoteGPUPointer(p *gpu.Pointer) *data.Matrix {
	e, ok := c.gpE[p]
	if !ok {
		return nil
	}
	v := p.Value()
	if v == nil {
		return nil
	}
	delete(c.gpE, p)
	p.Cached = false
	c.Stats.GPUToHost++
	c.noteDemotion(gpu.PoolName, p.Size())
	c.clock.Advance(costs.Transfer(p.Size(), c.model.D2HBW, c.model.CopyLatency))
	if p.Size() <= c.conf.CPBudget {
		c.MakeSpaceCP(p.Size())
		e.Backend = BackendCP
		e.Matrix = v
		e.GPUPtr = nil
		c.cpUsed += e.Size
		c.bumpCP()
	} else {
		c.removeEntry(e)
	}
	return v
}

// shouldStore advances delayed-caching state and reports whether the PUT
// should store the object now. A delay of n<=1 stores eagerly.
func (c *Cache) shouldStore(item *lineage.Item, delay int) (*Entry, bool) {
	if delay <= 1 {
		return nil, true
	}
	e := c.find(item)
	if e == nil {
		e = &Entry{Key: item, Status: StatusToBeCached, DelayTarget: delay, SeenCount: 1}
		c.insert(e)
		c.Stats.Placeholders++
		return e, false
	}
	e.SeenCount++
	if e.SeenCount >= delay {
		c.Stats.DelayedStores++
		return e, true
	}
	return e, false
}
