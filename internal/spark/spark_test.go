package spark

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/vtime"
)

func newTestContext(storage int64) (*Context, *vtime.Clock) {
	clock := vtime.New()
	conf := DefaultConfig()
	if storage > 0 {
		conf.StorageMemory = storage
	}
	return NewContext(clock, costs.Default(), conf), clock
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	c, _ := newTestContext(0)
	m := data.Rand(100, 5, -1, 1, 1, 1)
	r := c.Parallelize(m, 4, "X")
	if r.NumPartitions() != 4 {
		t.Fatalf("parts = %d", r.NumPartitions())
	}
	got := c.Collect(r)
	if !data.AllClose(m, got, 0) {
		t.Fatal("collect != original")
	}
	if c.Stats.Jobs != 1 {
		t.Fatalf("Jobs = %d, want 1", c.Stats.Jobs)
	}
}

func TestRowsOfPartCoversAllRows(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		rows := int(n%1000) + 1
		p := int(parts%16) + 1
		covered := 0
		prevHi := 0
		for i := 0; i < p; i++ {
			lo, hi := rowsOfPart(rows, p, i)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyEvaluation(t *testing.T) {
	c, _ := newTestContext(0)
	m := data.Ones(64, 4)
	r := c.Parallelize(m, 4, "X")
	mapped := r.MapPartitions("x2", 64, 4, func(int) float64 { return 256 }, nil,
		func(_ int, p *data.Matrix) *data.Matrix { return data.MulScalar(p, 2) })
	// No job yet: transformations are lazy.
	if c.Stats.Jobs != 0 || c.Stats.PartitionsComputed != 0 {
		t.Fatalf("lazy transformation triggered work: %+v", c.Stats)
	}
	got := c.Collect(mapped)
	if got.At(0, 0) != 2 {
		t.Fatal("map result wrong")
	}
	if c.Stats.Jobs != 1 {
		t.Fatalf("Jobs = %d", c.Stats.Jobs)
	}
}

func TestTSMMCorrectness(t *testing.T) {
	c, _ := newTestContext(0)
	m := data.RandNorm(50, 6, 0, 1, 3)
	r := c.Parallelize(m, 4, "X")
	got := c.Collect(TSMM(r))
	want := data.TSMM(m)
	if !data.AllClose(got, want, 1e-9) {
		t.Fatal("distributed TSMM wrong")
	}
	if c.Stats.ShuffleBytes == 0 {
		t.Fatal("TSMM must shuffle")
	}
}

func TestMapMMWithBroadcast(t *testing.T) {
	c, _ := newTestContext(0)
	x := data.RandNorm(40, 6, 0, 1, 4)
	w := data.RandNorm(6, 3, 0, 1, 5)
	xr := c.Parallelize(x, 4, "X")
	bw := c.NewBroadcast(w, false)
	got := c.Collect(MapMM(xr, bw, "W"))
	if !data.AllClose(got, data.MatMul(x, w), 1e-9) {
		t.Fatal("MapMM wrong")
	}
}

func TestVecMMCorrectness(t *testing.T) {
	c, _ := newTestContext(0)
	x := data.RandNorm(30, 5, 0, 1, 6)
	y := data.RandNorm(30, 1, 0, 1, 7)
	xr := c.Parallelize(x, 3, "X")
	byT := c.NewBroadcast(data.Transpose(y), false)
	got := c.Collect(VecMM(byT, xr))
	want := data.MatMul(data.Transpose(y), x)
	if !data.AllClose(got, want, 1e-9) {
		t.Fatal("VecMM wrong")
	}
}

func TestBroadcastLazyTransfer(t *testing.T) {
	c, _ := newTestContext(0)
	w := data.Ones(100, 10)
	b := c.NewBroadcast(w, false)
	if b.transferred {
		t.Fatal("broadcast must not transfer before first job")
	}
	x := c.Parallelize(data.Ones(20, 100), 2, "X")
	_ = c.Collect(MapMM(x, b, "W"))
	if !b.transferred {
		t.Fatal("first job must transfer the broadcast")
	}
	if c.Stats.BroadcastBytes != w.SizeBytes() {
		t.Fatalf("BroadcastBytes = %d", c.Stats.BroadcastBytes)
	}
	// Second job must not re-transfer.
	_ = c.Collect(MapMM(x, b, "W"))
	if c.Stats.BroadcastBytes != w.SizeBytes() {
		t.Fatal("broadcast transferred twice")
	}
	b.Destroy()
	if !b.Destroyed() {
		t.Fatal("Destroy must mark the broadcast destroyed")
	}
}

func TestPersistAvoidsRecompute(t *testing.T) {
	c, _ := newTestContext(0)
	m := data.Ones(64, 4)
	r := c.Parallelize(m, 4, "X")
	mapped := r.MapPartitions("x2", 64, 4, func(int) float64 { return 256 }, nil,
		func(_ int, p *data.Matrix) *data.Matrix { return data.MulScalar(p, 2) })
	mapped.Persist(StorageMemory)
	if mapped.IsMaterialized() {
		t.Fatal("persist is lazy; nothing materialized yet")
	}
	_ = c.Collect(mapped)
	if !mapped.IsMaterialized() {
		t.Fatal("job must materialize persisted RDD")
	}
	computed := c.Stats.PartitionsComputed
	_ = c.Collect(mapped)
	if c.Stats.PartitionsComputed != computed {
		t.Fatal("second job must read from cache")
	}
	if c.Stats.CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
	mapped.Unpersist()
	if mapped.IsMaterialized() || len(c.bm.blocks) != 0 {
		t.Fatal("unpersist must drop blocks")
	}
}

func TestMemoryEvictionDropsAndRecomputes(t *testing.T) {
	// Storage fits only one RDD's partitions.
	c, _ := newTestContext(64 * 4 * 8)
	a := c.Parallelize(data.Ones(64, 4), 4, "A").
		MapPartitions("a", 64, 4, func(int) float64 { return 1 }, nil,
			func(_ int, p *data.Matrix) *data.Matrix { return p.Clone() })
	b := c.Parallelize(data.Ones(64, 4), 4, "B").
		MapPartitions("b", 64, 4, func(int) float64 { return 1 }, nil,
			func(_ int, p *data.Matrix) *data.Matrix { return p.Clone() })
	a.Persist(StorageMemory)
	b.Persist(StorageMemory)
	_ = c.Collect(a)
	_ = c.Collect(b) // must evict a's partitions
	if c.Stats.PartitionsEvicted == 0 {
		t.Fatal("expected evictions under storage pressure")
	}
	if a.IsMaterialized() {
		t.Fatal("a should have lost partitions")
	}
	// Accessing a again recomputes from lineage.
	before := c.Stats.PartitionsComputed
	_ = c.Collect(a)
	if c.Stats.PartitionsComputed == before {
		t.Fatal("evicted MEMORY partitions must be recomputed")
	}
}

func TestMemoryAndDiskSpills(t *testing.T) {
	c, _ := newTestContext(64 * 4 * 8)
	mk := func(name string) *RDD {
		return c.Parallelize(data.Ones(64, 4), 4, name).
			MapPartitions(name, 64, 4, func(int) float64 { return 1 }, nil,
				func(_ int, p *data.Matrix) *data.Matrix { return p.Clone() })
	}
	a := mk("a")
	b := mk("b")
	a.Persist(StorageMemoryAndDisk)
	b.Persist(StorageMemoryAndDisk)
	_ = c.Collect(a)
	_ = c.Collect(b)
	if c.Stats.DiskSpills == 0 {
		t.Fatal("expected spills for MEMORY_AND_DISK")
	}
	// a is still materialized (on disk) and readable without recompute.
	if !a.IsMaterialized() {
		t.Fatal("spilled RDD should still be materialized")
	}
	before := c.Stats.PartitionsComputed
	_ = c.Collect(a)
	if c.Stats.PartitionsComputed != before {
		t.Fatal("disk-cached partitions must not be recomputed")
	}
	if c.Stats.DiskReads == 0 {
		t.Fatal("expected disk reads")
	}
}

func TestShuffleFileReuse(t *testing.T) {
	c, _ := newTestContext(0)
	x := c.Parallelize(data.RandNorm(40, 4, 0, 1, 8), 4, "X")
	ts := TSMM(x) // wide
	_ = c.Collect(ts)
	computed := c.Stats.PartitionsComputed
	// Re-collecting the same (unpersisted!) wide RDD reuses shuffle files
	// instead of recomputing the map side.
	_ = c.Collect(ts)
	if c.Stats.PartitionsComputed != computed {
		t.Fatal("shuffle files should avoid recomputation")
	}
	if c.Stats.ShuffleFileReuses == 0 {
		t.Fatal("no shuffle-file reuse recorded")
	}
	c.CleanShuffles(ts)
	_ = c.Collect(ts)
	if c.Stats.PartitionsComputed == computed {
		t.Fatal("after cleanup the RDD must recompute")
	}
}

func TestJobChargesClusterTime(t *testing.T) {
	c, clock := newTestContext(0)
	x := c.Parallelize(data.RandNorm(100, 10, 0, 1, 9), 4, "X")
	before := clock.Now()
	_ = c.Collect(TSMM(x))
	elapsed := clock.Now() - before
	// At least the job overhead plus two stage overheads.
	if elapsed < costs.Default().SparkJobOverhead {
		t.Fatalf("elapsed = %g, want >= job overhead", elapsed)
	}
}

func TestAsyncJobOverlapsDriver(t *testing.T) {
	c, clock := newTestContext(0)
	x := c.Parallelize(data.RandNorm(100, 10, 0, 1, 10), 4, "X")
	ts := TSMM(x)
	before := clock.Now()
	parts := []int{0}
	_, f := c.RunJob(ts, parts, true)
	if clock.Now()-before > 1e-9 {
		t.Fatal("async job must not block the driver")
	}
	clock.Wait(f)
	if clock.Now()-before < costs.Default().SparkJobOverhead {
		t.Fatal("waiting must include the job duration")
	}
}

func TestCollectAsyncChain(t *testing.T) {
	c, clock := newTestContext(0)
	x := c.Parallelize(data.RandNorm(64, 8, 0, 1, 11), 4, "X")
	ts := TSMM(x)
	val, chain := c.CollectAsync(ts)
	if !data.AllClose(val, data.TSMM(c.Collect(x)), 1e-9) {
		t.Fatal("async collect value wrong")
	}
	before := clock.Now()
	clock.WaitChain(chain)
	clock.WaitChain(chain) // epilogue charged once
	if clock.Now() < before {
		t.Fatal("time went backwards")
	}
}

func TestCount(t *testing.T) {
	c, _ := newTestContext(0)
	x := c.Parallelize(data.Ones(123, 2), 4, "X")
	n, _ := c.Count(x, false)
	if n != 123 {
		t.Fatalf("Count = %d, want 123", n)
	}
}

func TestElementwiseOps(t *testing.T) {
	c, _ := newTestContext(0)
	a := data.RandNorm(30, 4, 0, 1, 12)
	b := data.RandNorm(30, 4, 0, 1, 13)
	ra := c.Parallelize(a, 3, "a")
	rb := c.Parallelize(b, 3, "b")
	got := c.Collect(Elementwise(ra, rb, "+", data.Add))
	if !data.AllClose(got, data.Add(a, b), 1e-12) {
		t.Fatal("Elementwise + wrong")
	}
	bc := c.NewBroadcast(data.ColMeans(a), false)
	got2 := c.Collect(MapElementwise(ra, bc, "-", data.Sub))
	if !data.AllClose(got2, data.Sub(a, data.ColMeans(a)), 1e-12) {
		t.Fatal("MapElementwise - wrong")
	}
}

func TestMapElementwiseColVectorSlicing(t *testing.T) {
	c, _ := newTestContext(0)
	a := data.RandNorm(30, 4, 0, 1, 14)
	v := data.RandNorm(30, 1, 0, 1, 15)
	ra := c.Parallelize(a, 3, "a")
	bv := c.NewBroadcast(v, false)
	got := c.Collect(MapElementwise(ra, bv, "*", data.Mul))
	if !data.AllClose(got, data.Mul(a, v), 1e-12) {
		t.Fatal("column-vector broadcast slicing wrong")
	}
}

func TestColAggregate(t *testing.T) {
	c, _ := newTestContext(0)
	a := data.RandNorm(40, 5, 0, 1, 16)
	ra := c.Parallelize(a, 4, "a")
	got := c.Collect(ColAggregate(ra, "sum", data.ColSums, data.Add))
	if !data.AllClose(got, data.ColSums(a), 1e-9) {
		t.Fatal("ColAggregate wrong")
	}
}

// Property: distributed pipelines produce the same values as local compute
// regardless of partitioning.
func TestDistributedEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 10 + rng.Intn(50)
		cols := 1 + rng.Intn(8)
		parts := 1 + rng.Intn(6)
		x := data.RandNorm(rows, cols, 0, 1, seed)
		c, _ := newTestContext(0)
		xr := c.Parallelize(x, parts, "X")
		got := c.Collect(TSMM(xr))
		return data.AllClose(got, data.TSMM(x), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: block manager memory accounting never exceeds the budget.
func TestBlockManagerBudgetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bm := newBlockManager(1000)
		for i := 0; i < 100; i++ {
			rdd := rng.Intn(5)
			part := rng.Intn(4)
			rowsN := 1 + rng.Intn(20)
			level := StorageMemory
			if rng.Intn(2) == 0 {
				level = StorageMemoryAndDisk
			}
			bm.put(rdd, part, data.Ones(rowsN, 2), level)
			if bm.Used() > bm.Budget() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockManagerEvictsLRU pins the victim order: the in-memory partition
// touched longest ago goes first, a read refreshes it, and the RDD being
// written never loses its own partitions.
func TestBlockManagerEvictsLRU(t *testing.T) {
	block := func() *data.Matrix { return data.Ones(2, 2) } // 32 bytes
	bm := newBlockManager(4 * 32)
	for _, k := range []blockKey{{1, 0}, {1, 1}, {2, 0}, {2, 1}} {
		bm.put(k.rdd, k.part, block(), StorageMemory)
	}
	bm.get(1, 0) // now the most recently used
	steps := []struct {
		put, evicted blockKey
	}{
		{blockKey{3, 0}, blockKey{1, 1}},
		{blockKey{3, 1}, blockKey{2, 0}},
		{blockKey{1, 2}, blockKey{2, 1}},
		// (1,0) is older than (3,0), but RDD 1 is the one being written.
		{blockKey{1, 3}, blockKey{3, 0}},
	}
	for _, s := range steps {
		before := len(bm.blocks)
		bm.put(s.put.rdd, s.put.part, block(), StorageMemory)
		if bm.contains(s.evicted.rdd, s.evicted.part) || len(bm.blocks) != before {
			t.Fatalf("put %v: want exactly %v evicted, have %v", s.put, s.evicted, bm.blocks)
		}
	}
}

func TestOversizedPartitionGoesToDiskOrSkipped(t *testing.T) {
	bm := newBlockManager(100)
	big := data.Ones(100, 1) // 800 bytes > budget
	bm.put(1, 0, big, StorageMemory)
	if bm.contains(1, 0) {
		t.Fatal("oversized MEMORY partition must be skipped")
	}
	bm.put(1, 1, big, StorageMemoryAndDisk)
	m, onDisk, ok := bm.get(1, 1)
	if !ok || !onDisk || m == nil {
		t.Fatal("oversized MEMORY_AND_DISK partition must go to disk")
	}
	if bm.Used() != 0 {
		t.Fatal("disk blocks must not count against memory")
	}
}

func TestConcurrentJobSlots(t *testing.T) {
	c, clock := newTestContext(0)
	x := c.Parallelize(data.RandNorm(200, 10, 0, 1, 21), 4, "X")
	a := TSMM(x)
	b := ColAggregate(x, "sum", data.ColSums, data.Add)
	// Two asynchronous jobs must land on different slots and overlap.
	_, f1 := c.RunJob(a, []int{0}, true)
	_, f2 := c.RunJob(b, []int{0}, true)
	clock.Wait(f1)
	clock.Wait(f2)
	serial := 2 * costs.Default().SparkJobOverhead
	if clock.Now() >= serial {
		t.Fatalf("async jobs did not overlap: %g >= %g", clock.Now(), serial)
	}
}

// TestJobSlotsSerializeWhenSaturated: jobSlots equal asynchronous jobs run
// side by side and finish together; one more has to wait for a slot and
// finishes after all of them.
func TestJobSlotsSerializeWhenSaturated(t *testing.T) {
	c, _ := newTestContext(0)
	x := c.Parallelize(data.RandNorm(100, 5, 0, 1, 22), 4, "X")
	futs := make([]*vtime.Future, jobSlots+1)
	for i := range futs {
		_, futs[i] = c.RunJob(TSMM(x), []int{0}, true)
	}
	first := futs[0].ReadyAt()
	for i, f := range futs[:jobSlots] {
		if f.ReadyAt() != first {
			t.Fatalf("job %d finished at %g, job 0 at %g: the first %d jobs must overlap", i, f.ReadyAt(), first, jobSlots)
		}
	}
	if last := futs[jobSlots].ReadyAt(); last <= first {
		t.Fatalf("job %d finished at %g, not after the first %d (%g): saturated slots must serialize", jobSlots, last, jobSlots, first)
	}
}

// TestStorageLevelString: every storage level prints Spark's name for it.
func TestStorageLevelString(t *testing.T) {
	for l, want := range map[StorageLevel]string{StorageNone: "NONE", StorageMemory: "MEMORY",
		StorageMemoryAndDisk: "MEMORY_AND_DISK"} {
		if got := l.String(); got != want {
			t.Errorf("StorageLevel(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}
