package spark

import (
	"fmt"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/vtime"
)

// StorageLevel mirrors Spark's persist levels relevant to MEMPHIS.
type StorageLevel int

const (
	// StorageNone means the RDD is not persisted.
	StorageNone StorageLevel = iota
	// StorageMemory caches deserialized partitions in storage memory;
	// evicted partitions are dropped and recomputed on demand.
	StorageMemory
	// StorageMemoryAndDisk spills evicted partitions to disk.
	StorageMemoryAndDisk
)

func (l StorageLevel) String() string {
	switch l {
	case StorageMemory:
		return "MEMORY"
	case StorageMemoryAndDisk:
		return "MEMORY_AND_DISK"
	default:
		return "NONE"
	}
}

// RDD is a lazily evaluated, partitioned distributed matrix. Partitions are
// horizontal row blocks. Transformations build the dependency DAG without
// computing anything; actions (Collect, Count, Reduce) launch jobs.
type RDD struct {
	id    int
	ctx   *Context
	parts int
	deps  []*RDD
	wide  bool
	// compute produces partition values from parent partition values. For
	// narrow dependencies parents[d] holds one partition; for wide
	// dependencies it holds all of them.
	compute      func(part int, parents [][]*data.Matrix) *data.Matrix
	flopsPerPart func(part int) float64
	shuffleBytes int64
	bcasts       []*Broadcast
	level        StorageLevel

	// shuffleFiles is the implicit map-side output cache of wide RDDs.
	shuffleFiles []*data.Matrix

	// Logical dimensions of the represented matrix.
	nrows, ncols int
}

// NumPartitions returns the partition count.
func (r *RDD) NumPartitions() int { return r.parts }

// Dims returns the logical matrix dimensions.
func (r *RDD) Dims() (rows, cols int) { return r.nrows, r.ncols }

// SizeBytes returns the logical dense size of the represented matrix.
func (r *RDD) SizeBytes() int64 { return int64(r.nrows) * int64(r.ncols) * 8 }

// StorageLevel returns the current persist level.
func (r *RDD) StorageLevel() StorageLevel { return r.level }

// Persist marks the RDD for caching at the given level. Like Spark this is
// lazy: partitions materialize in the block manager as jobs compute them.
func (r *RDD) Persist(level StorageLevel) *RDD {
	if level == StorageNone {
		panic("spark: persist with StorageNone")
	}
	r.level = level
	return r
}

// Unpersist removes the RDD from the block manager and stops future caching.
// Spark performs this asynchronously; the simulator applies it immediately
// but does not charge driver time, matching the non-blocking call.
func (r *RDD) Unpersist() {
	r.level = StorageNone
	r.ctx.bm.remove(r.id)
}

// IsMaterialized reports whether every partition is currently cached
// (memory or disk) — the getRDDStorageInfo probe MEMPHIS uses for lazy GC.
func (r *RDD) IsMaterialized() bool {
	if r.level == StorageNone {
		return false
	}
	for p := 0; p < r.parts; p++ {
		if !r.ctx.bm.contains(r.id, p) {
			return false
		}
	}
	return true
}

// rowsOfPart returns the row range [lo, hi) of a partition for an RDD with
// n rows split into parts blocks.
func rowsOfPart(n, parts, part int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = part*base + min(part, rem)
	hi = lo + base
	if part < rem {
		hi++
	}
	return lo, hi
}

// Parallelize distributes a driver-local matrix into parts row blocks,
// charging the driver-to-cluster transfer in full. The partitions are row
// views of m, built on each lazy evaluation: m is shared with the cluster
// from here on and must not be written to. The third parameter is ignored:
// nothing reads an RDD's name.
func (c *Context) Parallelize(m *data.Matrix, parts int, _ string) *RDD {
	if parts <= 0 {
		parts = c.conf.NumExecutors
	}
	if parts > m.Rows && m.Rows > 0 {
		parts = m.Rows
	}
	c.clock.Advance(costs.Transfer(m.SizeBytes(), c.model.BroadcastBW, 0))
	c.nextRDD++
	r := &RDD{
		id: c.nextRDD, ctx: c, parts: parts,
		nrows: m.Rows, ncols: m.Cols,
	}
	r.compute = func(part int, _ [][]*data.Matrix) *data.Matrix {
		lo, hi := rowsOfPart(m.Rows, parts, part)
		return m.RowView(lo, hi)
	}
	r.flopsPerPart = func(int) float64 { return 0 }
	return r
}

// MapPartitions applies f to each partition (narrow dependency). outCols
// gives the logical output column count and outRowsSame indicates the row
// count is preserved; flops estimates compute per partition. The first
// parameter is ignored: nothing reads an RDD's name.
func (r *RDD) MapPartitions(_ string, outRows, outCols int, flops func(part int) float64,
	bcasts []*Broadcast, f func(part int, p *data.Matrix) *data.Matrix) *RDD {
	c := r.ctx
	c.nextRDD++
	out := &RDD{
		id: c.nextRDD, ctx: c, parts: r.parts, deps: []*RDD{r},
		nrows: outRows, ncols: outCols, bcasts: bcasts, flopsPerPart: flops,
	}
	out.compute = func(part int, parents [][]*data.Matrix) *data.Matrix {
		return f(part, parents[0][0])
	}
	return out
}

// ZipPartitions combines co-partitioned RDDs elementwise (narrow).
func ZipPartitions(a, b *RDD, outRows, outCols int,
	flops func(part int) float64, f func(part int, pa, pb *data.Matrix) *data.Matrix) *RDD {
	if a.parts != b.parts {
		panic(fmt.Sprintf("spark: zip of %d vs %d partitions", a.parts, b.parts))
	}
	c := a.ctx
	c.nextRDD++
	out := &RDD{
		id: c.nextRDD, ctx: c, parts: a.parts, deps: []*RDD{a, b},
		nrows: outRows, ncols: outCols, flopsPerPart: flops,
	}
	out.compute = func(part int, parents [][]*data.Matrix) *data.Matrix {
		return f(part, parents[0][0], parents[1][0])
	}
	return out
}

// AggregateWide creates a wide (shuffle) dependency: each output partition
// is computed from all parent partitions. shuffleBytes is the total bytes
// crossing the shuffle boundary.
func (r *RDD) AggregateWide(outParts, outRows, outCols int,
	flops func(part int) float64, shuffleBytes int64,
	f func(part int, all []*data.Matrix) *data.Matrix) *RDD {
	c := r.ctx
	c.nextRDD++
	out := &RDD{
		id: c.nextRDD, ctx: c, parts: outParts, deps: []*RDD{r}, wide: true,
		nrows: outRows, ncols: outCols,
		flopsPerPart: flops, shuffleBytes: shuffleBytes,
	}
	out.compute = func(part int, parents [][]*data.Matrix) *data.Matrix {
		return f(part, parents[0])
	}
	return out
}

// Collect runs a job over all partitions and assembles them on the driver,
// charging the collect transfer. This is the canonical action.
func (c *Context) Collect(r *RDD) *data.Matrix {
	parts := make([]int, r.parts)
	for i := range parts {
		parts[i] = i
	}
	vals, _ := c.RunJob(r, parts, false)
	out := data.RBind(vals...)
	c.Stats.CollectBytes += out.SizeBytes()
	c.clock.Advance(costs.Transfer(out.SizeBytes(), c.model.CollectBW, 0))
	return out
}

// CollectAsync launches the job and the collect transfer asynchronously,
// returning the (already computed) value and a future for its arrival.
// This backs the prefetch operator (§5.1).
func (c *Context) CollectAsync(r *RDD) (*data.Matrix, *vtime.FutureChain) {
	parts := make([]int, r.parts)
	for i := range parts {
		parts[i] = i
	}
	vals, jobF := c.RunJob(r, parts, true)
	out := data.RBind(vals...)
	c.Stats.CollectBytes += out.SizeBytes()
	transfer := costs.Transfer(out.SizeBytes(), c.model.CollectBW, 0)
	return out, &vtime.FutureChain{Job: jobF, Extra: transfer}
}

// Count triggers a job over all partitions and returns the row count. Used
// by MEMPHIS's asynchronous materialization (count() after k misses).
func (c *Context) Count(r *RDD, async bool) (int64, *vtime.Future) {
	parts := make([]int, r.parts)
	for i := range parts {
		parts[i] = i
	}
	vals, f := c.RunJob(r, parts, async)
	var n int64
	for _, v := range vals {
		n += int64(v.Rows)
	}
	return n, f
}
