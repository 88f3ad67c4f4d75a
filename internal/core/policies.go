package core

import (
	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/gpu"
	"memphis/internal/lineage"
	"memphis/internal/memctl"
	"memphis/internal/spark"
)

// PutCP caches a driver-local matrix (also used for collected Spark action
// results and function outputs). delay implements delayed caching; isAction
// and isFunc tag the entry kind for statistics and policy decisions.
func (c *Cache) PutCP(item *lineage.Item, m *data.Matrix, computeCost float64,
	delay int, isAction, isFunc bool) *Entry {
	return c.putCP(item, m, m.SizeBytes(), nil, computeCost, delay, isAction, isFunc)
}

// PutCPLazy is PutCP for a value whose buffer has not been built: size is
// its dense size and build produces it. The put is counted, charged and run
// through delayed caching and eviction exactly like PutCP of the built
// matrix; build runs only if the object is actually stored.
func (c *Cache) PutCPLazy(item *lineage.Item, size int64, build func() *data.Matrix,
	computeCost float64, delay int, isFunc bool) *Entry {
	return c.putCP(item, nil, size, build, computeCost, delay, false, isFunc)
}

func (c *Cache) putCP(item *lineage.Item, m *data.Matrix, size int64, build func() *data.Matrix,
	computeCost float64, delay int, isAction, isFunc bool) *Entry {
	c.Stats.Puts++
	c.clock.Advance(c.model.CachePut)
	e, store := c.shouldStore(item, delay)
	if !store {
		return e
	}
	if size > c.conf.CPBudget {
		return nil // never cache objects larger than the whole cache
	}
	c.MakeSpaceCP(size)
	if e == nil {
		if old := c.find(item); old != nil {
			return old // concurrent path already cached it
		}
		e = &Entry{Key: item}
		c.insert(e)
	}
	if m == nil {
		m = build()
	}
	e.Backend = BackendCP
	e.Status = StatusCached
	e.Matrix = m
	e.IsAction = isAction
	e.IsFunc = isFunc
	e.ComputeCost = computeCost
	e.Size = size
	e.Height = item.Height()
	e.LastAccess = c.clock.Now()
	c.relist(e)
	c.cpUsed += size
	c.bumpCP()
	return e
}

// Matrix returns a CP entry's value, restoring it from disk if it was
// spilled (charging the disk read).
func (c *Cache) Matrix(e *Entry) *data.Matrix {
	if e.Status == StatusSpilled {
		c.Stats.RestoresCP++
		c.clock.Advance(c.model.SpillSetup +
			costs.Transfer(e.Size, c.model.DiskBW, 0))
		e.Status = StatusCached
		// Listed before making space, so the restored entry is itself a
		// candidate and may go straight back to disk.
		c.relist(e)
		c.MakeSpaceCP(e.Size)
		c.cpUsed += e.Size
		c.bumpCP()
	}
	return e.Matrix
}

// cpCandidate lifts a driver cache entry into the shared scoring shape.
func cpCandidate(e *Entry) memctl.Candidate {
	return memctl.Candidate{
		Hits:        e.Hits,
		Misses:      e.Misses,
		Jobs:        e.Jobs,
		ComputeCost: e.ComputeCost,
		Size:        e.Size,
		Height:      e.Height,
		LastAccess:  e.LastAccess,
	}
}

// cpRow is a resident CP matrix's two score inputs that change over its
// life: its Cost&Size ratio and its last access.
type cpRow struct {
	ratio float64
	last  float64
}

// cpRowOf computes e's row from its fields.
func cpRowOf(e *Entry) cpRow {
	return cpRow{memctl.Ratio(cpCandidate(e), false), e.LastAccess}
}

// rankCP ranks the resident CP entries under the shared hybrid policy
// (memctl.CPScore: LIMA's Cost&Size ratio, normalized against the maximum
// over the resident entries, plus recency), reading each entry's ratio and
// last access from its row.
// Under an active memory plan (planEpoch > 0) the order is lifetime-grouped
// first: entries the plan marked dead evict before unknown ones, soon-reused
// ones are protected, and the hybrid score orders each group. With the
// planner off every entry reads LifeUnknown and the order is by score
// alone. Either way equal scores go to the older entry, so the order of
// cpCands does not matter.
func (c *Cache) rankCP() {
	maxRatio := 0.0
	for _, row := range c.cpRows {
		if row.ratio > maxRatio {
			maxRatio = row.ratio
		}
	}
	norms := memctl.Norms{MaxRatio: maxRatio, Now: c.clock.Now()}
	r := &c.cpRank
	r.reset(len(c.cpRows))
	for i, row := range c.cpRows {
		e := c.cpCands[i]
		if x := (ranked{e, c.entryLife(e), memctl.CPScore(row.ratio, row.last, norms)}); r.wants(x) {
			r.keep(x)
		}
	}
	r.sort()
	r.now, r.maxRatio = norms.Now, maxRatio
}

// cpRankHolds reports whether the CP ranking holds the next victim, as a
// fresh one would order the candidates: the clock (which a spill advances)
// and the maximum ratio have not moved since it was built.
func (c *Cache) cpRankHolds() bool {
	r := &c.cpRank
	return r.holds() && !r.maxLeft && r.now == c.clock.Now()
}

// popCPVictim returns the next victim of the current driver-cache
// MAKE_SPACE, or nil when nothing is evictable, ranking the candidates
// first when no ranking holds.
func (c *Cache) popCPVictim() *Entry {
	if !c.cpRankHolds() {
		c.rankCP()
	}
	e := c.cpRank.pop()
	if e != nil && c.cpRows[e.slot].ratio == c.cpRank.maxRatio {
		c.cpRank.maxLeft = true
	}
	return e
}

// The victim searches evictOneCP and evictOneSpark run: variables, so that
// a test can check every victim against a scan of the whole map.
var (
	searchCP    = (*Cache).popCPVictim
	searchSpark = (*Cache).popSparkVictim
)

// MakeSpaceCP evicts driver-cached matrices until need bytes fit in the
// budget, spilling to disk when configured (MAKE_SPACE of the unified API).
func (c *Cache) MakeSpaceCP(need int64) {
	if c.cpUsed+need <= c.conf.CPBudget {
		return
	}
	c.cpMeter.NotePressure()
	defer c.cpRank.drop()
	for c.cpUsed+need > c.conf.CPBudget {
		if _, ok := c.evictOneCP(); !ok {
			return
		}
	}
}

// evictOneCP evicts the lowest-scored CP entry — spilling it to disk when
// recomputation would cost more than the disk round trip (LIMA's cost-based
// spill decision), dropping it otherwise — and returns the bytes released
// from driver memory plus whether a victim existed. An injected spill I/O
// error drops the victim instead — it is recomputed from lineage if needed
// again — after charging the attempted write.
func (c *Cache) evictOneCP() (int64, bool) {
	victim := searchCP(c)
	if victim == nil {
		return 0, false
	}
	c.Stats.EvictionsCP++
	c.cpUsed -= victim.Size
	diskRT := 2 * (c.model.SpillSetup + costs.Transfer(victim.Size, c.model.DiskBW, 0))
	if victim.ComputeCost > diskRT {
		c.clock.Advance(c.model.SpillSetup +
			costs.Transfer(victim.Size, c.model.DiskBW, 0))
		if c.inj.Fail(faults.CPSpill) {
			c.Stats.SpillErrorsCP++
			c.cpMeter.NoteEviction(1, victim.Size)
			c.removeEntry(victim)
		} else {
			c.Stats.SpillsCP++
			c.cpMeter.NoteDemotion(1, victim.Size)
			victim.Status = StatusSpilled
			c.relist(victim)
		}
	} else {
		c.cpMeter.NoteEviction(1, victim.Size)
		c.removeEntry(victim)
	}
	return victim.Size, true
}

// PutRDD caches a distributed intermediate: the RDD is marked for cluster
// caching with persist() (lazy), and the entry records the dangling child
// RDDs and broadcasts for lazy garbage collection (§4.1).
func (c *Cache) PutRDD(item *lineage.Item, r *spark.RDD, children []*spark.RDD,
	bcasts []*spark.Broadcast, computeCost float64, delay int,
	level spark.StorageLevel) *Entry {
	c.Stats.Puts++
	c.clock.Advance(c.model.CachePut)
	e, store := c.shouldStore(item, delay)
	if !store {
		return e
	}
	size := r.SizeBytes()
	if size > c.conf.SparkBudget {
		return nil
	}
	c.MakeSpaceSpark(size)
	if e == nil {
		if old := c.find(item); old != nil {
			return old
		}
		e = &Entry{Key: item}
		c.insert(e)
	}
	if level == spark.StorageNone {
		level = spark.StorageMemory
	}
	r.Persist(level)
	e.Backend = BackendSpark
	e.Status = StatusCached
	e.RDD = r
	e.ChildRDDs = children
	e.Broadcasts = bcasts
	e.ComputeCost = computeCost
	e.Size = size
	e.Height = item.Height()
	e.LastAccess = c.clock.Now()
	c.relist(e)
	c.sparkUsed += size
	c.bumpSpark()
	return e
}

// rankSpark ranks the persisted reuse RDDs under the shared policy
// instance for Spark: Eq. (1), (r_h+r_m+r_j)·c/s (memctl.SparkWeights with
// MaxRatio 1 keeps the historical unnormalized ordering exactly); of
// equally scored RDDs the older entry goes first.
func (c *Cache) rankSpark() {
	norms := memctl.Norms{MaxRatio: 1}
	r := &c.sparkRank
	r.reset(len(c.sparkCands))
	for _, e := range c.sparkCands {
		if x := (ranked{e, memctl.LifeUnknown, memctl.Score(cpCandidate(e), memctl.SparkWeights, norms)}); r.wants(x) {
			r.keep(x)
		}
	}
	r.sort()
}

// popSparkVictim returns the next victim of the current Spark-reuse
// MAKE_SPACE, or nil when nothing is evictable. The Spark norms never
// move, so a ranking serves the call until it runs out.
func (c *Cache) popSparkVictim() *Entry {
	if !c.sparkRank.holds() {
		c.rankSpark()
	}
	return c.sparkRank.pop()
}

// MakeSpaceSpark unpersists reuse RDDs with the lowest Eq. (1) scores until
// need bytes fit in the reuse share of cluster storage. unpersist is
// asynchronous in Spark; temporary overflow is absorbed by partition
// spilling in the block manager, so no driver time is charged.
func (c *Cache) MakeSpaceSpark(need int64) {
	if c.sparkUsed+need <= c.conf.SparkBudget {
		return
	}
	c.sparkMeter.NotePressure()
	defer c.sparkRank.drop()
	for c.sparkUsed+need > c.conf.SparkBudget {
		if _, ok := c.evictOneSpark(); !ok {
			return
		}
	}
}

// evictOneSpark unpersists the lowest-scored reuse RDD, returning the
// bytes released from the reuse share plus whether a victim existed.
func (c *Cache) evictOneSpark() (int64, bool) {
	victim := searchSpark(c)
	if victim == nil {
		return 0, false
	}
	c.Stats.UnpersistsSpark++
	c.sparkUsed -= victim.Size
	c.sparkMeter.NoteEviction(1, victim.Size)
	victim.RDD.Unpersist()
	c.removeEntry(victim)
	return victim.Size, true
}

// OnRDDReuse performs the Spark-side bookkeeping of a successful RDD entry
// reuse: lazy garbage collection of dangling children once the parent is
// materialized, and asynchronous count() materialization after k
// unmaterialized touches (§4.1).
func (c *Cache) OnRDDReuse(e *Entry) {
	if e.RDD == nil {
		return
	}
	e.Jobs++
	if e.RDD.IsMaterialized() {
		c.collectGarbage(e)
		return
	}
	e.UnmatTouch++
	if e.UnmatTouch >= asyncMatThreshold && c.sc != nil {
		e.UnmatTouch = 0
		c.Stats.AsyncMats++
		_, f := c.sc.Count(e.RDD, true)
		c.pendingMat = append(c.pendingMat, f)
	}
}

// collectGarbage destroys the entry's broadcasts and cleans child RDD
// shuffle files once its RDD is materialized: any future access reads
// cached partitions, so the children are stale (Figure 6).
func (c *Cache) collectGarbage(e *Entry) {
	if e.gcDone {
		return
	}
	e.gcDone = true
	for _, b := range e.Broadcasts {
		if !b.Destroyed() {
			b.Destroy()
			c.Stats.GCBroadcasts++
		}
	}
	if c.sc != nil {
		for _, child := range e.ChildRDDs {
			c.sc.CleanShuffles(child)
			c.Stats.GCChildRDDs++
		}
	}
	e.ChildRDDs = nil
}

// PutGPU caches a device pointer. The gpu.Manager keeps owning the memory;
// the entry is invalidated if the pointer is recycled.
func (c *Cache) PutGPU(item *lineage.Item, p *gpu.Pointer, computeCost float64, delay int) *Entry {
	if c.gm == nil {
		return nil
	}
	c.Stats.Puts++
	c.clock.Advance(c.model.CachePut)
	e, store := c.shouldStore(item, delay)
	if !store {
		return e
	}
	if e == nil {
		if old := c.find(item); old != nil {
			return old
		}
		e = &Entry{Key: item}
		c.insert(e)
	}
	e.Backend = BackendGPU
	e.Status = StatusCached
	e.GPUPtr = p
	e.ComputeCost = computeCost
	e.Size = p.Size()
	e.Height = item.Height()
	e.LastAccess = c.clock.Now()
	p.Height = item.Height()
	p.ComputeCost = computeCost
	p.Cached = true
	c.gpE[p] = e
	c.relist(e)
	return e
}

// ReuseGPU retains the entry's pointer for a new live variable (moving it
// from the free to the live list if needed). It returns false if the
// pointer was recycled concurrently, in which case the entry is dropped.
func (c *Cache) ReuseGPU(e *Entry) bool {
	if e.GPUPtr == nil || c.gm == nil {
		return false
	}
	if !c.gm.Retain(e.GPUPtr) {
		c.dropEntry(e)
		return false
	}
	return true
}

// EvictGPUPercent forwards the compiler-injected evict instruction to the
// GPU memory manager (§5.2).
func (c *Cache) EvictGPUPercent(frac float64) int64 {
	if c.gm == nil {
		return 0
	}
	return c.gm.EvictPercent(frac)
}

// Clear drops every entry and releases Spark/GPU resources; used between
// experiment repetitions.
func (c *Cache) Clear() {
	for _, e := range c.entries {
		for ; e != nil; e = e.same {
			switch e.Backend {
			case BackendSpark:
				if e.RDD != nil && e.RDD.StorageLevel() != spark.StorageNone {
					e.RDD.Unpersist()
				}
			case BackendGPU:
				if e.GPUPtr != nil {
					delete(c.gpE, e.GPUPtr)
				}
			}
			e.list = unlisted
			e.prev, e.next = nil, nil
		}
	}
	c.entries = make(map[uint64]*Entry)
	c.n = 0
	c.cpCands, c.sparkCands, c.cpRows = nil, nil, nil
	c.placeholders = placeholderList{}
	c.cpRank.drop()
	c.sparkRank.drop()
	c.cpUsed = 0
	c.sparkUsed = 0
}
