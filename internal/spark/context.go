// Package spark simulates a Spark cluster backend faithfully enough to
// exercise every Spark-specific challenge the paper addresses (§2.2):
// lazily evaluated RDD transformations vs. job-triggering actions, stages
// split at shuffle boundaries, per-cluster storage memory with partition
// eviction and disk spill, persist/unpersist storage levels, implicit
// shuffle-file caching, and torrent-style broadcast variables whose data
// lingers in the driver until destroyed. Real partition values are computed
// so results are exact; time is charged onto the virtual clock from the
// cost model (job/stage/task overheads, compute throughput, exchange and
// collect bandwidths).
package spark

import (
	"errors"
	"fmt"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/memctl"
	"memphis/internal/vtime"
)

// ErrStageAbort signals that a stage gave up after maxTaskFailures
// consecutive failures of the same task. It propagates as a panic value
// (the RDD evaluation path returns no errors, matching Spark's DAGScheduler
// which fails the job from deep inside the scheduler loop) and is recovered
// at the runtime layer.
var ErrStageAbort = errors.New("spark: stage aborted: task exceeded max failures")

// Config sizes the simulated cluster.
type Config struct {
	NumExecutors  int
	StorageMemory int64 // aggregate storage region across executors, bytes
}

// DefaultConfig mirrors the paper's 8-worker cluster, scaled to simulation.
func DefaultConfig() Config {
	return Config{NumExecutors: 8, StorageMemory: 64 << 20}
}

// Stats counts cluster events; experiments assert on these.
type Stats struct {
	Jobs               int64
	Stages             int64
	Tasks              int64
	PartitionsComputed int64
	CacheHits          int64
	DiskReads          int64
	DiskSpills         int64
	PartitionsEvicted  int64
	ShuffleBytes       int64
	ShuffleFileReuses  int64
	CollectBytes       int64
	BroadcastBytes     int64

	// Fault-injection recovery events.
	TaskRetries   int64 // failed task attempts absorbed by stage-level retry
	FetchFailures int64 // shuffle files lost on fetch (map side recomputed)
	SpillErrors   int64 // spill writes that failed (victim dropped instead)
	ExecutorsLost int64 // injected executor losses
	BlocksLost    int64 // cached blocks lost with their executor
}

// Context is the entry point to the simulated cluster, playing the role of
// SparkContext plus the DAGScheduler.
type Context struct {
	clock   *vtime.Clock
	slots   []*vtime.Resource
	disk    *vtime.Resource
	model   *costs.Model
	conf    Config
	bm      *BlockManager
	nextRDD int

	// bcasts tracks every broadcast created on this context so Shutdown
	// can destroy stragglers that lazy GC never reached.
	bcasts []*Broadcast

	// inj injects deterministic task, fetch, spill, and executor faults;
	// nil means none.
	inj *faults.Injector

	Stats Stats
}

const (
	// coresPerExec is the task slots of one executor.
	coresPerExec = 24
	// jobSlots is the number of Spark jobs that can execute concurrently
	// (FAIR-scheduler pools); asynchronous operators exploit it.
	jobSlots = 4
	// maxTaskFailures is how many attempts a task gets before its stage
	// aborts (spark.task.maxFailures).
	maxTaskFailures = 4
)

// NewContext returns a simulated cluster on the given clock.
func NewContext(clock *vtime.Clock, model *costs.Model, conf Config) *Context {
	if conf.NumExecutors <= 0 {
		panic("spark: invalid cluster config")
	}
	slots := make([]*vtime.Resource, jobSlots)
	for i := range slots {
		slots[i] = clock.Resource(fmt.Sprintf("spark-%d", i))
	}
	return &Context{
		clock: clock,
		slots: slots,
		disk:  clock.Resource("spark-disk"),
		model: model,
		conf:  conf,
		bm:    newBlockManager(conf.StorageMemory),
	}
}

// freestSlot returns the job slot that becomes available first.
func (c *Context) freestSlot() *vtime.Resource {
	best := c.slots[0]
	for _, s := range c.slots[1:] {
		if s.BusyUntil() < best.BusyUntil() {
			best = s
		}
	}
	return best
}

// SetInjector installs the fault injector on the context and its block
// manager (nil disables injection).
func (c *Context) SetInjector(inj *faults.Injector) {
	c.inj = inj
	c.bm.inj = inj
}

// SetArbiter attaches the memory arbiter to the block manager and
// registers the storage region as a pool (nil disables reporting).
func (c *Context) SetArbiter(a *memctl.Arbiter) {
	c.bm.arb = a
	if a != nil {
		a.Register(c.bm)
	}
}

// BlockManager exposes cluster storage (for tests and cache policies).
func (c *Context) BlockManager() *BlockManager { return c.bm }

// taskSlots returns the number of parallel task slots.
func (c *Context) taskSlots() int { return c.conf.NumExecutors * coresPerExec }

// jobCost aggregates one job's virtual duration and memoizes partition
// values so fan-out in the RDD DAG does not recompute shared ancestors
// (Spark evaluates each partition at most once per stage).
type jobCost struct {
	stages  map[int]struct{} // wide RDD ids crossed (each adds a stage)
	tasks   int
	flops   float64
	shuffle int64
	disk    int64
	memo    map[blockKey]*data.Matrix

	// warm holds partition values computed ahead of time by the parallel
	// prewarm (nil when running serially). The accounting pass consumes
	// these instead of re-running r.compute; all bookkeeping stays on the
	// driver goroutine, in the same order as a serial run.
	warm map[blockKey]*data.Matrix
}

// computed returns the partition value: the prewarmed result when present,
// otherwise the serial computation from parent values.
func (cost *jobCost) computed(r *RDD, part int, parents [][]*data.Matrix) *data.Matrix {
	if m, ok := cost.warm[blockKey{r.id, part}]; ok {
		return m
	}
	return r.compute(part, parents)
}

// RunJob evaluates the given partitions of the target RDD, materializing
// cached ancestors on the way, and returns the partition values. This is
// the DAGScheduler: it charges job launch, per-stage and per-task overheads,
// compute, shuffle and disk traffic onto the cluster timeline. If async is
// true the driver does not block; the returned future completes the job.
func (c *Context) RunJob(r *RDD, parts []int, async bool) ([]*data.Matrix, *vtime.Future) {
	if r.ctx != c {
		panic("spark: RDD from a different context")
	}
	// Injected executor loss, decided once per job before any evaluation
	// (and before the prewarm, so parallel workers observe post-loss state):
	// every block and shuffle file placed on the victim executor vanishes
	// and is recomputed from lineage on demand; replacing the executor
	// charges a fixed re-registration delay.
	var execLossTime float64
	if c.inj.Fail(faults.SparkExec) {
		victim := int(c.inj.Draw(faults.SparkExec) % uint64(c.conf.NumExecutors))
		lost := c.bm.dropExecutor(victim, c.conf.NumExecutors)
		lost += c.dropShuffleFiles(r, victim)
		c.Stats.ExecutorsLost++
		c.Stats.BlocksLost += int64(lost)
		execLossTime = c.model.ExecutorReplace
	}
	cost := &jobCost{stages: make(map[int]struct{}), memo: make(map[blockKey]*data.Matrix)}
	if data.Parallelism() > 1 && len(parts) > 1 {
		cost.warm = c.prewarm(r, parts)
	}
	out := make([]*data.Matrix, len(parts))
	for i, p := range parts {
		out[i] = c.evaluate(r, p, cost)
	}
	c.Stats.Jobs++
	nStages := int64(len(cost.stages)) + 1
	c.Stats.Stages += nStages
	c.Stats.Tasks += int64(cost.tasks)
	// Pending broadcast data is lazily shipped with the first job that
	// needs it (torrent broadcast).
	var bcTime float64
	for _, b := range collectBroadcasts(r) {
		if !b.transferred && !b.destroyed {
			b.transferred = true
			c.Stats.BroadcastBytes += b.size
			bcTime += costs.Transfer(b.size, c.model.BroadcastBW, 0)
		}
	}
	dur := c.model.SparkJobOverhead +
		float64(nStages)*c.model.SparkStageOverhead +
		float64(cost.tasks)*c.model.SparkTaskOverhead/float64(c.taskSlots())*float64(min(cost.tasks, c.taskSlots())) +
		costs.Compute(cost.flops, c.model.SparkFlops) +
		costs.Transfer(cost.shuffle, c.model.SparkExchangeBW, 0) +
		costs.Transfer(cost.disk, c.model.DiskBW, 0) +
		bcTime + execLossTime
	slot := c.freestSlot()
	if async {
		f := c.clock.RunAsync(slot, dur)
		return out, f
	}
	c.clock.RunSync(slot, dur)
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// evaluate returns the value of one partition, consulting the block manager
// and shuffle files before recomputing from parents (Spark lineage).
func (c *Context) evaluate(r *RDD, part int, cost *jobCost) *data.Matrix {
	if part < 0 || part >= r.parts {
		panic(fmt.Sprintf("spark: partition %d out of %d (rdd %d)", part, r.parts, r.id))
	}
	if m, ok := cost.memo[blockKey{r.id, part}]; ok {
		return m
	}
	// Cached partition (storage memory or disk)?
	if m, onDisk, ok := c.bm.get(r.id, part); ok {
		c.Stats.CacheHits++
		if onDisk {
			c.Stats.DiskReads++
			cost.disk += m.SizeBytes()
		}
		return m
	}
	// Implicitly cached shuffle files let a wide RDD be recomputed without
	// re-running its map side. An injected fetch failure loses the file —
	// the recovery is Spark's: fall through and recompute from lineage.
	if r.wide && r.shuffleFiles != nil {
		if m := r.shuffleFiles[part]; m != nil {
			if c.inj.Fail(faults.SparkFetch) {
				c.Stats.FetchFailures++
				r.shuffleFiles[part] = nil
			} else {
				c.Stats.ShuffleFileReuses++
				cost.disk += m.SizeBytes()
				return m
			}
		}
	}
	cost.tasks++
	c.Stats.PartitionsComputed++
	// Injected task failures: the stage retries the task, charging each
	// wasted attempt's scheduling overhead and compute; after
	// maxTaskFailures attempts the whole stage aborts (Spark's
	// spark.task.maxFailures semantics).
	if fails := c.inj.Next(faults.SparkTask); fails > 0 {
		if fails >= maxTaskFailures {
			panic(fmt.Errorf("%w: rdd %d partition %d failed %d attempts",
				ErrStageAbort, r.id, part, fails))
		}
		c.Stats.TaskRetries += int64(fails)
		cost.tasks += fails
		cost.flops += float64(fails) * r.flopsPerPart(part)
	}
	var out *data.Matrix
	if r.wide {
		cost.stages[r.id] = struct{}{}
		// Wide dependency: requires all parent partitions.
		parents := make([][]*data.Matrix, len(r.deps))
		for d, dep := range r.deps {
			parents[d] = make([]*data.Matrix, dep.parts)
			for p := 0; p < dep.parts; p++ {
				parents[d][p] = c.evaluate(dep, p, cost)
			}
		}
		out = cost.computed(r, part, parents)
		cost.shuffle += r.shuffleBytes / int64(r.parts)
		c.Stats.ShuffleBytes += r.shuffleBytes / int64(r.parts)
		if r.shuffleFiles == nil {
			r.shuffleFiles = make([]*data.Matrix, r.parts)
		}
		r.shuffleFiles[part] = out
	} else {
		parents := make([][]*data.Matrix, len(r.deps))
		for d, dep := range r.deps {
			parents[d] = []*data.Matrix{c.evaluate(dep, part, cost)}
		}
		out = cost.computed(r, part, parents)
	}
	cost.flops += r.flopsPerPart(part)
	if r.level != StorageNone {
		spilled, evicted, spillErrs := c.bm.put(r.id, part, out, r.level)
		c.Stats.DiskSpills += int64(spilled)
		c.Stats.PartitionsEvicted += int64(evicted)
		c.Stats.SpillErrors += int64(spillErrs)
	}
	cost.memo[blockKey{r.id, part}] = out
	return out
}

// collectBroadcasts gathers the broadcast variables referenced anywhere in
// the (not yet materialized) lineage of r.
func collectBroadcasts(r *RDD) []*Broadcast {
	var out []*Broadcast
	seen := make(map[int]struct{})
	var walk func(*RDD)
	walk = func(n *RDD) {
		if _, ok := seen[n.id]; ok {
			return
		}
		seen[n.id] = struct{}{}
		out = append(out, n.bcasts...)
		for _, d := range n.deps {
			walk(d)
		}
	}
	walk(r)
	return out
}

// CleanShuffles drops the implicit shuffle-file cache of an RDD (modeling
// ContextCleaner activity when an RDD is garbage collected).
func (c *Context) CleanShuffles(r *RDD) { r.shuffleFiles = nil }

// dropShuffleFiles removes the shuffle files placed on the given executor
// from every wide RDD in r's lineage, returning how many were lost.
func (c *Context) dropShuffleFiles(r *RDD, victim int) int {
	lost := 0
	seen := make(map[int]struct{})
	var walk func(*RDD)
	walk = func(n *RDD) {
		if _, ok := seen[n.id]; ok {
			return
		}
		seen[n.id] = struct{}{}
		if n.wide && n.shuffleFiles != nil {
			for p, m := range n.shuffleFiles {
				if m != nil && executorOf(n.id, p, c.conf.NumExecutors) == victim {
					n.shuffleFiles[p] = nil
					lost++
				}
			}
		}
		for _, d := range n.deps {
			walk(d)
		}
	}
	walk(r)
	return lost
}

// executorOf is the deterministic placement of a partition onto an executor
// (Spark's hash partitioning of block placement, simplified).
func executorOf(rdd, part, numExec int) int {
	if numExec <= 0 {
		return 0
	}
	h := uint64(rdd)*2654435761 + uint64(part)*40503 + 0x9e37
	return int(h % uint64(numExec))
}

// Shutdown releases everything the cluster retains on behalf of the driver:
// all cached partitions (memory and disk) and every broadcast variable not
// yet destroyed. After Shutdown the context holds no simulated memory; it is
// called when a session closes so serving-layer sessions do not leak cluster
// storage for the life of the process.
func (c *Context) Shutdown() {
	for _, b := range c.bcasts {
		b.Destroy()
	}
	c.bcasts = nil
	c.bm.clear()
}
