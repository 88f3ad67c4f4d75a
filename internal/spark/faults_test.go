package spark

import (
	"errors"
	"testing"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/vtime"
)

func newFaultContext(plan *faults.Plan) *Context {
	c := NewContext(vtime.New(), costs.Default(), DefaultConfig())
	c.SetInjector(faults.NewInjector(plan))
	return c
}

// square builds a small narrow-map pipeline over an n x n input.
func square(c *Context, n, parts int, seed int64) *RDD {
	in := c.Parallelize(data.Rand(n, n, -1, 1, 1, seed), parts, "in")
	return in.MapPartitions("sq", n, n, func(int) float64 { return 1e6 }, nil,
		func(_ int, p *data.Matrix) *data.Matrix { return data.Mul(p, p) })
}

// sameMatrix reports bitwise equality of two matrices.
func sameMatrix(a, b *data.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// TestTaskRetryChargesAttempts: a scripted task failure below the attempt
// limit is absorbed by stage-level retry, charging the wasted attempts.
func TestTaskRetryChargesAttempts(t *testing.T) {
	c := newFaultContext(&faults.Plan{Seed: 1, Sites: map[faults.Site]faults.Trigger{
		faults.SparkTask: {Nth: []int64{2}, Attempts: 3},
	}})
	out := c.Collect(square(c, 32, 4, 5))

	ref := newFaultContext(nil)
	want := ref.Collect(square(ref, 32, 4, 5))
	if !sameMatrix(out, want) {
		t.Fatal("retried job must produce the fault-free result")
	}
	if c.Stats.TaskRetries != 3 {
		t.Fatalf("TaskRetries = %d, want 3", c.Stats.TaskRetries)
	}
	if c.Stats.Tasks != ref.Stats.Tasks+3 {
		t.Fatalf("Tasks = %d, want %d (+3 wasted attempts)", c.Stats.Tasks, ref.Stats.Tasks)
	}
	if c.clock.Now() <= ref.clock.Now() {
		t.Fatal("wasted attempts must cost virtual time")
	}
}

// TestStageAbortAtMaxFailures: a task that fails maxTaskFailures attempts
// aborts the stage with an ErrStageAbort panic.
func TestStageAbortAtMaxFailures(t *testing.T) {
	c := newFaultContext(&faults.Plan{Seed: 1, Sites: map[faults.Site]faults.Trigger{
		faults.SparkTask: {Nth: []int64{1}, Attempts: maxTaskFailures},
	}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected ErrStageAbort panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrStageAbort) {
			t.Fatalf("recovered %v, want ErrStageAbort", r)
		}
	}()
	c.Collect(square(c, 16, 2, 5))
}

// TestFetchFailureRecomputes: losing a shuffle file on fetch falls back to
// recomputing the map side, still yielding the correct value.
func TestFetchFailureRecomputes(t *testing.T) {
	run := func(plan *faults.Plan) (*data.Matrix, *Context) {
		c := newFaultContext(plan)
		agg := square(c, 24, 4, 3).AggregateWide("sum", 2, 2, 24,
			func(int) float64 { return 1e5 }, 24*24*8,
			func(_ int, all []*data.Matrix) *data.Matrix {
				s := data.Zeros(1, 24)
				for _, p := range all {
					s = data.Add(s, data.ColSums(p))
				}
				return s
			})
		c.Collect(agg) // materializes shuffle files
		out := c.Collect(agg)
		return out, c
	}
	want, ref := run(nil)
	if ref.Stats.ShuffleFileReuses == 0 {
		t.Fatal("baseline must reuse shuffle files on the second collect")
	}
	got, c := run(&faults.Plan{Seed: 1, Sites: map[faults.Site]faults.Trigger{
		faults.SparkFetch: {Nth: []int64{1}},
	}})
	if c.Stats.FetchFailures != 1 {
		t.Fatalf("FetchFailures = %d, want 1", c.Stats.FetchFailures)
	}
	if !sameMatrix(got, want) {
		t.Fatal("fetch-failure recompute must produce the fault-free result")
	}
}

// TestSpillErrorDropsVictim: an injected spill I/O error drops the victim
// instead of spilling; the partition is recomputed from lineage on reuse.
func TestSpillErrorDropsVictim(t *testing.T) {
	conf := DefaultConfig()
	conf.StorageMemory = 24 * 24 * 8 // one partition's worth
	c := NewContext(vtime.New(), costs.Default(), conf)
	c.SetInjector(faults.NewInjector(&faults.Plan{Seed: 1, Sites: map[faults.Site]faults.Trigger{
		faults.SparkSpill: {Nth: []int64{1}},
	}}))
	a := square(c, 24, 1, 3).Persist(StorageMemoryAndDisk)
	b := square(c, 24, 1, 4).Persist(StorageMemoryAndDisk)
	c.Collect(a) // fills the budget
	c.Collect(b) // evicts a; the spill write fails -> dropped
	if c.Stats.SpillErrors != 1 || c.Stats.DiskSpills != 0 {
		t.Fatalf("SpillErrors=%d DiskSpills=%d, want 1 and 0",
			c.Stats.SpillErrors, c.Stats.DiskSpills)
	}
	hits := c.Stats.CacheHits
	c.Collect(a) // must recompute, not read disk
	if c.Stats.CacheHits != hits || c.Stats.DiskReads != 0 {
		t.Fatal("dropped victim must be recomputed from lineage, not read back")
	}
}

// TestExecutorLossDropsPlacedBlocks: losing an executor drops its blocks
// and shuffle files, charges the replacement delay, and the job still
// completes correctly.
func TestExecutorLossDropsPlacedBlocks(t *testing.T) {
	run := func(plan *faults.Plan) (*data.Matrix, *Context) {
		c := newFaultContext(plan)
		sq := square(c, 64, 8, 3).Persist(StorageMemory)
		c.Collect(sq)
		out := c.Collect(sq)
		return out, c
	}
	want, _ := run(nil)
	got, c := run(&faults.Plan{Seed: 2, Sites: map[faults.Site]faults.Trigger{
		faults.SparkExec: {Nth: []int64{2}}, // fires at the second job
	}})
	if c.Stats.ExecutorsLost != 1 {
		t.Fatalf("ExecutorsLost = %d, want 1", c.Stats.ExecutorsLost)
	}
	if c.Stats.BlocksLost == 0 {
		t.Fatal("the lost executor held cached blocks; BlocksLost must be > 0")
	}
	if !sameMatrix(got, want) {
		t.Fatal("post-loss recompute must produce the fault-free result")
	}
}

// TestSparkFaultDeterminism: the same plan replays to identical stats and
// virtual time, with and without kernel parallelism.
func TestSparkFaultDeterminism(t *testing.T) {
	plan := faults.Default(77)
	run := func(par int) (Stats, float64) {
		old := data.Parallelism()
		data.SetParallelism(par)
		defer data.SetParallelism(old)
		c := newFaultContext(plan)
		sq := square(c, 48, 6, 9).Persist(StorageMemory)
		agg := sq.AggregateWide("sum", 2, 2, 48,
			func(int) float64 { return 1e5 }, 48*48*8,
			func(_ int, all []*data.Matrix) *data.Matrix {
				s := data.Zeros(1, 48)
				for _, p := range all {
					s = data.Add(s, data.ColSums(p))
				}
				return s
			})
		c.Collect(agg)
		c.Collect(agg)
		return c.Stats, c.clock.Now()
	}
	s1, t1 := run(1)
	s2, t2 := run(1)
	s4, t4 := run(4)
	if s1 != s2 || t1 != t2 {
		t.Fatalf("serial replay diverged: %+v @%v vs %+v @%v", s1, t1, s2, t2)
	}
	if s1 != s4 || t1 != t4 {
		t.Fatalf("parallel run diverged from serial: %+v @%v vs %+v @%v", s1, t1, s4, t4)
	}
}
