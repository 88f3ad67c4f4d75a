// Package core implements MEMPHIS's hierarchical multi-backend lineage
// cache (paper §3.3 and §4): a single driver-side hash map from lineage
// items to cache entries that wrap backend-local objects — in-memory
// matrices, Spark RDD handles with their dangling child references, GPU
// pointers, and disk-spilled binaries. The cache provides the unified
// system-internal API (REUSE, PUT, MAKE_SPACE) on the instruction execution
// path and delegates memory management to backend-specific policies:
//
//   - Driver: Cost&Size eviction with optional disk spill. Victims are
//     chosen among the resident matrices only: the cache keeps them (and
//     the persisted reuse RDDs) in candidate lists beside the map, so
//     placeholders and spilled entries cost eviction nothing. Beside each
//     resident matrix sits its score row (Cost&Size ratio, last access),
//     refreshed on put and hit. One MAKE_SPACE scores its candidates once,
//     from the rows, into a heap it pops its victims from, and scores
//     again only if a spill moved the clock or the highest-ratio entry
//     left.
//   - Spark (§4.1): Eq. (1) scoring (r_h+r_m+r_j)·c/s over persisted RDDs,
//     lazy garbage collection of dangling child RDDs and broadcasts once a
//     parent materializes, and asynchronous count() materialization after
//     k unmaterialized touches.
//   - GPU (§4.2): entries wrap pointers owned by the gpu.Manager; recycling
//     a pointer invalidates its entry via callback.
//
// Delayed caching (§5.2) defers object storage until the n-th repetition of
// an operation using TO-BE-CACHED placeholder entries. A cache holds at most
// maxPlaceholders of them and drops the least recently touched past that,
// so a session of novel programs does not grow by its never-repeated puts.
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

	// seq orders entries by insertion; victim selection breaks score ties
	// toward the lower (older) one instead of toward candidate order.
	seq uint64

	// same chains the entries whose keys share a lineage hash.
	same *Entry
	// list is the list holding the entry: a candidate list, where slot is
	// its position, or the placeholder list, where prev and next link it.
	// All four are kept by Cache.relist.
	list       candList
	slot       int32
	prev, next *Entry
}

// candList names the list an entry is in.
type candList int8

const (
	// unlisted: no victim search may pick the entry.
	unlisted candList = iota
	// listedCP: a resident driver matrix, in Cache.cpCands.
	listedCP
	// listedSpark: a persisted reuse RDD, in Cache.sparkCands.
	listedSpark
	// listedPlaceholder: a delayed-caching placeholder, in
	// Cache.placeholders.
	listedPlaceholder
)

// maxPlaceholders bounds the delayed-caching placeholders of one cache:
// a new one past the bound drops the least recently touched. A session
// of mostly novel programs leaves placeholders that never repeat, one
// entry and its lineage each, so without a bound it grows with every op.
// The bound sits above the most placeholders alive in any experiment and
// in any benchmark workload's pinned prefix, so none of them drops one.
const maxPlaceholders = 4096

// placeholderList is an intrusive doubly linked list of placeholder
// entries, least recently touched first.
type placeholderList struct {
	first, last *Entry
	n           int
}

// push appends e as the most recently touched placeholder.
func (l *placeholderList) push(e *Entry) {
	e.prev = l.last
	if l.last != nil {
		l.last.next = e
	} else {
		l.first = e
	}
	l.last = e
	l.n++
}

// remove unlinks e, clearing its links.
func (l *placeholderList) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.first = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.last = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

// touch makes e, a listed placeholder, the most recently touched.
func (l *placeholderList) touch(e *Entry) {
	if l.last != e {
		l.remove(e)
		l.push(e)
	}
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

// Config sizes the cache.
type Config struct {
	// CPBudget is the driver lineage cache size in bytes.
	CPBudget int64
	// SparkBudget is the cluster storage fraction reserved for reuse
	// (the paper uses 80% of Spark storage).
	SparkBudget int64
}

// asyncMatThreshold is k: unmaterialized touches before a cached RDD is
// materialized with an asynchronous count() (§4.1).
const asyncMatThreshold = 3

// DefaultConfig returns the paper's defaults at simulation scale.
func DefaultConfig() Config {
	return Config{CPBudget: 16 << 20, SparkBudget: 48 << 20}
}

// Cache is the hierarchical lineage cache.
type Cache struct {
	clock *vtime.Clock
	model *costs.Model
	conf  Config

	// entries maps a lineage hash to its entries, chained through
	// Entry.same: placeholders, resident and spilled objects alike.
	entries map[uint64]*Entry
	n       int    // entries in the map
	nextSeq uint64 // Entry.seq of the next insert

	// The victim candidates, unordered: cpCands holds the resident CP
	// matrices the driver cache may evict, sparkCands the persisted reuse
	// RDDs the Spark reuse share may unpersist. relist keeps them equal to
	// the map filtered by those predicates.
	cpCands    []*Entry
	sparkCands []*Entry
	// cpRows[i] holds cpCands[i]'s score inputs, so that a ranking reads
	// one dense slice and no entry. relist and unlist move it with
	// cpCands; rescore refreshes it when a hit changes them.
	cpRows []cpRow
	// placeholders lists the delayed-caching placeholders in the map,
	// least recently touched first, at most maxPlaceholders of them.
	placeholders placeholderList
	// The rankings of the MAKE_SPACE in progress on each pool, built from
	// the candidates at its first victim request and dropped when it
	// returns.
	cpRank    ranking
	sparkRank ranking

	cpUsed    int64
	sparkUsed int64 // worst-case estimates of persisted reuse RDDs

	// Resident high-water marks (pure observation: no policy or clock
	// effect), surfaced through the arbiter pools' PeakReporter.
	cpPeak    int64
	sparkPeak int64

	sc  *spark.Context // may be nil (no Spark backend)
	gm  *gpu.Manager   // may be nil (no GPU backend)
	gpE map[*gpu.Pointer]*Entry

	// pendingMat are futures of asynchronous materialization jobs.
	pendingMat []*vtime.Future

	// inj injects deterministic spill I/O errors; nil means none.
	inj *faults.Injector

	// cpMeter and sparkMeter report the two pools' pressure, evictions
	// and demotions to the arbiter; nil (no arbiter) reports nothing.
	cpMeter, sparkMeter *memctl.Meter

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
		entries: make(map[uint64]*Entry),
		sc:      sc,
		gm:      gm,
		gpE:     make(map[*gpu.Pointer]*Entry),
	}
	if gm != nil {
		gm.SetOnRecycle(c.invalidateGPU)
	}
	return c
}

// SetInjector installs the fault injector (nil disables injection).
func (c *Cache) SetInjector(inj *faults.Injector) { c.inj = inj }

// SetArbiter registers the cache's two pools (driver cache and Spark reuse
// share) with the memory arbiter.
func (c *Cache) SetArbiter(a *memctl.Arbiter) {
	c.cpMeter = a.Register(cpPool{c})
	c.sparkMeter = a.Register(sparkReusePool{c})
}

// CPPeak returns the high-water mark of driver-resident cached bytes.
func (c *Cache) CPPeak() int64 { return c.cpPeak }

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

// NumEntries returns the number of cache entries (all states).
func (c *Cache) NumEntries() int { return c.n }

// find locates the entry equal to item, if any.
func (c *Cache) find(item *lineage.Item) *Entry {
	for e := c.entries[item.Hash()]; e != nil; e = e.same {
		if e.Key.Equals(item) {
			return e
		}
	}
	return nil
}

// insert adds an entry keyed by its lineage item. The caller relists it
// once its backend, status and payload are set.
func (c *Cache) insert(e *Entry) {
	c.nextSeq++
	e.seq = c.nextSeq
	h := e.Key.Hash()
	e.same = c.entries[h]
	c.entries[h] = e
	c.n++
}

// removeEntry unlinks an entry from the map and from its candidate list.
func (c *Cache) removeEntry(e *Entry) {
	h := e.Key.Hash()
	if p := c.entries[h]; p == e {
		if e.same == nil {
			delete(c.entries, h)
		} else {
			c.entries[h] = e.same
		}
	} else {
		for p.same != e {
			p = p.same
		}
		p.same = e.same
	}
	e.same = nil
	c.n--
	c.unlist(e)
}

// candidates returns the candidate list l names.
func (c *Cache) candidates(l candList) *[]*Entry {
	if l == listedCP {
		return &c.cpCands
	}
	return &c.sparkCands
}

// relist puts e into the list its backend, status and payload now select,
// or into none. Every change of those fields on an entry in the map is
// followed by a relist before the next victim search.
func (c *Cache) relist(e *Entry) {
	want := unlisted
	switch e.Status {
	case StatusToBeCached:
		want = listedPlaceholder
	case StatusCached:
		switch {
		case e.Backend == BackendCP && e.Matrix != nil:
			want = listedCP
		case e.Backend == BackendSpark && e.RDD != nil:
			want = listedSpark
		}
	}
	if want == e.list {
		return
	}
	c.unlist(e)
	switch want {
	case listedPlaceholder:
		c.placeholders.push(e)
	case listedCP:
		c.cpRows = append(c.cpRows, cpRowOf(e))
		fallthrough
	case listedSpark:
		l := c.candidates(want)
		e.slot = int32(len(*l))
		*l = append(*l, e)
	}
	e.list = want
}

// unlist takes e out of its list: out of the placeholder list, or out of
// its candidate list by moving the list's last entry (and row) into its
// slot.
func (c *Cache) unlist(e *Entry) {
	switch e.list {
	case unlisted:
		return
	case listedPlaceholder:
		c.placeholders.remove(e)
	case listedCP:
		n := len(c.cpRows) - 1
		c.cpRows[e.slot] = c.cpRows[n]
		c.cpRows = c.cpRows[:n]
		fallthrough
	default:
		l := c.candidates(e.list)
		last := (*l)[len(*l)-1]
		(*l)[e.slot] = last
		last.slot = e.slot
		(*l)[len(*l)-1] = nil
		*l = (*l)[:len(*l)-1]
	}
	e.list = unlisted
}

// rescore refreshes e's score row after its hits or last access changed;
// an entry that is not a CP candidate has none.
func (c *Cache) rescore(e *Entry) {
	if e.list == listedCP {
		c.cpRows[e.slot] = cpRowOf(e)
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
		c.placeholders.touch(e)
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
	c.rescore(e)
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
		c.gm.Meter.NoteDemotion(1, p.Size())
		c.clock.Advance(d2h)
		c.moveToCP(e, v, p.Size())
		return
	}
	c.Stats.GPUInvalidated++
	c.gm.Meter.NoteEviction(1, p.Size())
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
	c.gm.Meter.NoteDemotion(1, p.Size())
	c.clock.Advance(costs.Transfer(p.Size(), c.model.D2HBW, c.model.CopyLatency))
	if p.Size() <= c.conf.CPBudget {
		c.moveToCP(e, v, p.Size())
	} else {
		c.removeEntry(e)
	}
	return v
}

// moveToCP re-homes a GPU entry in the driver cache on v, the matrix its
// device pointer of size bytes held: make room, switch the entry to CP, and
// account its bytes. The caller has detached the entry from gpE and charged
// the device-to-host transfer.
func (c *Cache) moveToCP(e *Entry, v *data.Matrix, size int64) {
	c.MakeSpaceCP(size)
	e.Backend = BackendCP
	e.Matrix = v
	e.GPUPtr = nil
	c.relist(e)
	c.cpUsed += e.Size
	c.bumpCP()
}

// shouldStore advances delayed-caching state and reports whether the PUT
// should store the object now. A delay of n<=1 stores eagerly. An item
// already stored (resident, spilled or on another backend) is returned
// with store false, as the eager path returns it: storing it again would
// count its bytes twice. A new placeholder that would exceed
// maxPlaceholders first drops the least recently touched one from the map.
func (c *Cache) shouldStore(item *lineage.Item, delay int) (*Entry, bool) {
	if delay <= 1 {
		return nil, true
	}
	e := c.find(item)
	if e == nil {
		if c.placeholders.n == maxPlaceholders {
			c.removeEntry(c.placeholders.first)
		}
		e = &Entry{Key: item, Status: StatusToBeCached, DelayTarget: delay, SeenCount: 1}
		c.insert(e)
		c.relist(e)
		c.Stats.Placeholders++
		return e, false
	}
	if e.Status != StatusToBeCached {
		return e, false
	}
	c.placeholders.touch(e)
	e.SeenCount++
	if e.SeenCount >= delay {
		c.Stats.DelayedStores++
		return e, true
	}
	return e, false
}
