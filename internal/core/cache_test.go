package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/gpu"
	"memphis/internal/lineage"
	"memphis/internal/spark"
	"memphis/internal/vtime"
)

type env struct {
	clock *vtime.Clock
	sc    *spark.Context
	gm    *gpu.Manager
	cache *Cache
}

func newEnv(conf Config) *env {
	clock := vtime.New()
	model := costs.Default()
	sc := spark.NewContext(clock, model, spark.DefaultConfig())
	dev := gpu.NewDevice(clock, model, "gpu0", 1<<20)
	gm := gpu.NewManager(dev)
	return &env{clock: clock, sc: sc, gm: gm,
		cache: NewCache(clock, model, conf, sc, gm)}
}

func li(op, d string, in ...*lineage.Item) *lineage.Item {
	return lineage.NewItem(op, d, in...)
}

func TestPutProbeCP(t *testing.T) {
	e := newEnv(DefaultConfig())
	item := li("tsmm", "", li("read", "X"))
	m := data.Ones(4, 4)
	if _, hit := e.cache.Probe(item); hit {
		t.Fatal("empty cache should miss")
	}
	e.cache.PutCP(item, m, 0.5, 1, false, false)
	// Probe with an equal-but-distinct item (as tracing produces).
	got, hit := e.cache.Probe(li("tsmm", "", li("read", "X")))
	if !hit {
		t.Fatal("expected hit")
	}
	if !data.AllClose(e.cache.Matrix(got), m, 0) {
		t.Fatal("cached value wrong")
	}
	if e.cache.Stats.HitsCP != 1 || e.cache.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", e.cache.Stats)
	}
}

func TestOversizedObjectNotCached(t *testing.T) {
	conf := DefaultConfig()
	conf.CPBudget = 64
	e := newEnv(conf)
	if e.cache.PutCP(li("op", ""), data.Ones(10, 10), 1, 1, false, false) != nil {
		t.Fatal("object larger than the cache must be rejected")
	}
}

func TestCPEvictionCostAndSize(t *testing.T) {
	conf := DefaultConfig()
	conf.CPBudget = 2 * 8 * 16 // fits two 4x4 matrices
	e := newEnv(conf)
	cheap := li("cheap", "")
	costly := li("costly", "")
	e.cache.PutCP(cheap, data.Ones(4, 4), 0.001, 1, false, false)
	e.cache.PutCP(costly, data.Ones(4, 4), 10.0, 1, false, false)
	// Third insert must evict the cheap entry, which costs less than the
	// ~4 ms disk round trip and is therefore dropped, not spilled.
	e.cache.PutCP(li("new", ""), data.Ones(4, 4), 1.0, 1, false, false)
	if _, hit := e.cache.Probe(li("cheap", "")); hit {
		t.Fatal("cheap entry should have been evicted")
	}
	if _, hit := e.cache.Probe(li("costly", "")); !hit {
		t.Fatal("costly entry should survive")
	}
	if e.cache.Stats.EvictionsCP != 1 {
		t.Fatalf("EvictionsCP = %d", e.cache.Stats.EvictionsCP)
	}
}

func TestCPSpillAndRestore(t *testing.T) {
	conf := DefaultConfig()
	conf.CPBudget = 8 * 16
	e := newEnv(conf)
	a := li("a", "")
	m := data.Rand(4, 4, 0, 1, 1, 1)
	e.cache.PutCP(a, m, 5, 1, false, false)
	e.cache.PutCP(li("b", ""), data.Ones(4, 4), 1, 1, false, false)
	if e.cache.Stats.SpillsCP == 0 {
		t.Fatal("expected a spill")
	}
	// The spilled entry still hits and restores from disk.
	got, hit := e.cache.Probe(li("a", ""))
	if !hit {
		t.Fatal("spilled entry must remain probeable")
	}
	before := e.clock.Now()
	val := e.cache.Matrix(got)
	if !data.AllClose(val, m, 0) {
		t.Fatal("restored value wrong")
	}
	if e.clock.Now() <= before {
		t.Fatal("restore must charge disk time")
	}
	if e.cache.Stats.RestoresCP != 1 {
		t.Fatalf("RestoresCP = %d", e.cache.Stats.RestoresCP)
	}
}

func TestDelayedCaching(t *testing.T) {
	e := newEnv(DefaultConfig())
	m := data.Ones(2, 2)
	delay := 3
	for rep := 1; rep < delay; rep++ {
		it := li("expensive", "")
		if _, hit := e.cache.Probe(it); hit {
			t.Fatalf("rep %d: placeholder must not hit", rep)
		}
		e.cache.PutCP(it, m, 1, delay, false, false)
	}
	if e.cache.Stats.Placeholders != 1 {
		t.Fatalf("Placeholders = %d, want 1", e.cache.Stats.Placeholders)
	}
	// The delay-th repetition stores the object...
	it := li("expensive", "")
	if _, hit := e.cache.Probe(it); hit {
		t.Fatal("must still miss before the n-th put")
	}
	e.cache.PutCP(it, m, 1, delay, false, false)
	// ...and from then on probes hit.
	if _, hit := e.cache.Probe(li("expensive", "")); !hit {
		t.Fatal("must hit after the n-th repetition")
	}
	if e.cache.Stats.DelayedStores != 1 {
		t.Fatalf("DelayedStores = %d", e.cache.Stats.DelayedStores)
	}
}

func TestPutRDDAndReuse(t *testing.T) {
	e := newEnv(DefaultConfig())
	x := e.sc.Parallelize(data.RandNorm(40, 4, 0, 1, 1), 4, "X")
	ts := spark.TSMM(x)
	item := li("tsmm", "", li("read", "X"))
	e.cache.PutRDD(item, ts, []*spark.RDD{x}, nil, 1.0, 1, spark.StorageMemory)
	if ts.StorageLevel() != spark.StorageMemory {
		t.Fatal("PutRDD must persist the RDD")
	}
	got, hit := e.cache.Probe(li("tsmm", "", li("read", "X")))
	if !hit || got.RDD != ts {
		t.Fatal("RDD entry must hit and return the handle")
	}
	if e.cache.Stats.HitsRDD != 1 {
		t.Fatalf("HitsRDD = %d", e.cache.Stats.HitsRDD)
	}
}

func TestSparkEvictionEq1(t *testing.T) {
	conf := DefaultConfig()
	conf.SparkBudget = 2 * 40 * 4 * 8 // fits two 40x4 RDDs
	e := newEnv(conf)
	mk := func(seed int64) *spark.RDD {
		m := data.RandNorm(40, 4, 0, 1, seed)
		return e.sc.Parallelize(m, 4, "X").MapPartitions("id", 40, 4,
			func(int) float64 { return 1 }, nil,
			func(_ int, p *data.Matrix) *data.Matrix { return p.Clone() })
	}
	r1, r2, r3 := mk(1), mk(2), mk(3)
	e.cache.PutRDD(li("r1", ""), r1, nil, nil, 0.001, 1, spark.StorageMemory)
	e2 := e.cache.PutRDD(li("r2", ""), r2, nil, nil, 10.0, 1, spark.StorageMemory)
	e2.Hits = 5 // heavily reused
	e.cache.PutRDD(li("r3", ""), r3, nil, nil, 1.0, 1, spark.StorageMemory)
	if _, hit := e.cache.Probe(li("r1", "")); hit {
		t.Fatal("low-score RDD must be evicted first (Eq. 1)")
	}
	if _, hit := e.cache.Probe(li("r2", "")); !hit {
		t.Fatal("high-score RDD must survive")
	}
	if r1.StorageLevel() != spark.StorageNone {
		t.Fatal("evicted RDD must be unpersisted")
	}
}

func TestLazyGCAfterMaterialization(t *testing.T) {
	e := newEnv(DefaultConfig())
	x := e.sc.Parallelize(data.RandNorm(40, 4, 0, 1, 1), 4, "X")
	b := e.sc.NewBroadcast(data.Ones(1, 40), false)
	ts := spark.TSMM(x)
	entry := e.cache.PutRDD(li("tsmm", ""), ts, []*spark.RDD{x}, []*spark.Broadcast{b},
		1.0, 1, spark.StorageMemory)
	// Unmaterialized: reuse must NOT destroy children yet.
	e.cache.OnRDDReuse(entry)
	if b.Destroyed() {
		t.Fatal("GC before materialization")
	}
	// Materialize via a job, then reuse: children must be cleaned.
	_ = e.sc.Collect(ts)
	e.cache.OnRDDReuse(entry)
	if !b.Destroyed() {
		t.Fatal("broadcast must be destroyed after parent materializes")
	}
	if e.cache.Stats.GCBroadcasts != 1 || e.cache.Stats.GCChildRDDs != 1 {
		t.Fatalf("GC stats = %+v", e.cache.Stats)
	}
	// GC runs once.
	e.cache.OnRDDReuse(entry)
	if e.cache.Stats.GCChildRDDs != 1 {
		t.Fatal("GC must be idempotent")
	}
}

func TestAsyncMaterializationAfterKMisses(t *testing.T) {
	e := newEnv(DefaultConfig())
	x := e.sc.Parallelize(data.RandNorm(40, 4, 0, 1, 1), 4, "X")
	ts := spark.TSMM(x)
	entry := e.cache.PutRDD(li("tsmm", ""), ts, []*spark.RDD{x}, nil, 1.0, 1, spark.StorageMemory)
	for i := 0; i < asyncMatThreshold-1; i++ {
		e.cache.OnRDDReuse(entry)
		if e.cache.Stats.AsyncMats != 0 {
			t.Fatal("materialization before threshold")
		}
	}
	jobsBefore := e.sc.Stats.Jobs
	e.cache.OnRDDReuse(entry) // third unmaterialized touch -> count()
	if e.cache.Stats.AsyncMats != 1 {
		t.Fatalf("AsyncMats = %d, want 1", e.cache.Stats.AsyncMats)
	}
	if e.sc.Stats.Jobs != jobsBefore+1 {
		t.Fatal("count() job not launched")
	}
	if !ts.IsMaterialized() {
		t.Fatal("RDD must be materialized by the async count")
	}
}

// TestFreedGPUPointerDropsEntry: a device pointer freed without the
// recycle callback (Surrender, as a demotion does) leaves its entry behind.
// The next Probe, or a ReuseGPU of an entry already probed, drops the
// entry and its pointer index slot and leaves the host byte counters and
// candidate lists as they were.
func TestFreedGPUPointerDropsEntry(t *testing.T) {
	e := newEnv(DefaultConfig())
	c := e.cache
	c.PutCP(li("host", ""), data.Ones(4, 4), 0.5, 1, false, false)
	cpUsed, entries := c.cpUsed, c.NumEntries()
	put := func(op string) *gpu.Pointer {
		p, err := e.gm.Allocate(256, 1, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		c.PutGPU(li(op, ""), p, 0.001, 1)
		if c.gpE[p] == nil || c.NumEntries() != entries+1 {
			t.Fatalf("%s: the GPU entry was not stored", op)
		}
		return p
	}
	dropped := func(op string, p *gpu.Pointer) {
		t.Helper()
		if c.find(li(op, "")) != nil || c.gpE[p] != nil || p.Cached {
			t.Fatalf("%s: the entry of the freed pointer survived", op)
		}
		if c.NumEntries() != entries || c.cpUsed != cpUsed || c.sparkUsed != 0 {
			t.Fatalf("%s: %d entries, %d CP and %d Spark bytes; want %d, %d and 0",
				op, c.NumEntries(), c.cpUsed, c.sparkUsed, entries, cpUsed)
		}
		checkLists(t, c, true)
	}

	p := put("gemm")
	e.gm.Surrender(p)
	misses := c.Stats.Misses
	if _, hit := c.Probe(li("gemm", "")); hit || c.Stats.Misses != misses+1 {
		t.Fatal("Probe: a freed pointer's entry must miss")
	}
	dropped("gemm", p)

	q := put("conv")
	got, hit := c.Probe(li("conv", ""))
	if !hit {
		t.Fatal("a valid GPU entry must hit")
	}
	e.gm.Surrender(q)
	if c.ReuseGPU(got) {
		t.Fatal("ReuseGPU retained a freed pointer")
	}
	dropped("conv", q)
}

func TestPutGPUAndRecycleInvalidation(t *testing.T) {
	e := newEnv(DefaultConfig())
	p, err := e.gm.Allocate(256, 2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	item := li("gemm", "")
	e.cache.PutGPU(item, p, 0.001, 1)
	got, hit := e.cache.Probe(li("gemm", ""))
	if !hit || got.GPUPtr != p {
		t.Fatal("GPU entry must hit")
	}
	if !e.cache.ReuseGPU(got) {
		t.Fatal("ReuseGPU must retain the pointer")
	}
	if p.RefCount != 2 {
		t.Fatalf("RefCount = %d, want 2", p.RefCount)
	}
	// Release both references; while memory is available new allocations
	// grow the pool and the cached pointer survives.
	e.gm.Release(p)
	e.gm.Release(p)
	if _, err := e.gm.Allocate(256, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, hit := e.cache.Probe(li("gemm", "")); !hit {
		t.Fatal("cached pointer must survive while memory is available")
	}
	// Under memory pressure, free pointers — cached or not — are recycled
	// (§4.2) and the entry must be invalidated.
	if _, err := e.gm.Allocate((1<<20)-2*256, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.gm.Allocate(256, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, hit := e.cache.Probe(li("gemm", "")); hit {
		t.Fatal("recycled pointer's entry must be invalidated")
	}
	if e.cache.Stats.GPUInvalidated != 1 {
		t.Fatalf("GPUInvalidated = %d", e.cache.Stats.GPUInvalidated)
	}
}

func TestFunctionEntryStats(t *testing.T) {
	e := newEnv(DefaultConfig())
	e.cache.PutCP(li("fn_linReg", "X,y"), data.Ones(2, 1), 1, 1, false, true)
	if _, hit := e.cache.Probe(li("fn_linReg", "X,y")); !hit {
		t.Fatal("function entry must hit")
	}
	if e.cache.Stats.HitsFunc != 1 {
		t.Fatalf("HitsFunc = %d", e.cache.Stats.HitsFunc)
	}
}

func TestClear(t *testing.T) {
	e := newEnv(DefaultConfig())
	x := e.sc.Parallelize(data.Ones(16, 2), 2, "X")
	e.cache.PutRDD(li("r", ""), x.MapPartitions("id", 16, 2,
		func(int) float64 { return 1 }, nil,
		func(_ int, p *data.Matrix) *data.Matrix { return p }), nil, nil, 1, 1, spark.StorageMemory)
	e.cache.PutCP(li("m", ""), data.Ones(2, 2), 1, 1, false, false)
	e.cache.Clear()
	if e.cache.NumEntries() != 0 || e.cache.cpUsed != 0 || e.cache.sparkUsed != 0 {
		t.Fatal("Clear left state behind")
	}
}

// Property: cpUsed equals the sum of cached (non-spilled) CP entry sizes
// and never exceeds the budget, across random put/probe sequences. Compute
// costs of 0-7 ms straddle the ~4 ms disk round trip, so victims are both
// spilled and dropped; delays of 1-3 mix eager and delayed puts, including
// delayed puts of items already stored.
func TestCPAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		conf := DefaultConfig()
		conf.CPBudget = 1024
		e := newEnv(conf)
		for i, op := range ops {
			name := fmt.Sprintf("op%d", op%8)
			rows := 1 + int(op%5)
			switch i % 3 {
			case 0, 1:
				e.cache.PutCP(li(name, ""), data.Ones(rows, 8), float64(op%8)*1e-3, 1+int(op/8%3), false, false)
			case 2:
				if en, hit := e.cache.Probe(li(name, "")); hit {
					e.cache.Matrix(en)
				}
			}
			var cached int64
			for _, en := range allEntries(e.cache) {
				if en.Backend == BackendCP && en.Status == StatusCached && en.Matrix != nil {
					cached += en.Size
				}
			}
			if e.cache.cpUsed != cached || e.cache.cpUsed > conf.CPBudget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGPUToHostEvictionOnRecycle(t *testing.T) {
	e := newEnv(DefaultConfig())
	p, err := e.gm.Allocate(256, 2, 1.0) // expensive to recompute
	if err != nil {
		t.Fatal(err)
	}
	e.gm.Device().CopyIn(p, data.Rand(4, 8, 0, 1, 1, 5))
	want := p.Value().Clone()
	e.cache.PutGPU(li("conv", ""), p, 1.0, 1)
	e.gm.Release(p)
	// Fill the device so the next allocation recycles the cached pointer.
	if _, err := e.gm.Allocate((1<<20)-256, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.gm.Allocate(256, 1, 0); err != nil {
		t.Fatal(err)
	}
	// The entry must have migrated to the driver cache, not vanished.
	got, hit := e.cache.Probe(li("conv", ""))
	if !hit {
		t.Fatal("expensive entry must survive recycling via D2H eviction")
	}
	if got.Backend != BackendCP {
		t.Fatalf("backend = %v, want CP", got.Backend)
	}
	if !data.AllClose(e.cache.Matrix(got), want, 0) {
		t.Fatal("offloaded value corrupted")
	}
	if e.cache.Stats.GPUToHost != 1 {
		t.Fatalf("GPUToHost = %d", e.cache.Stats.GPUToHost)
	}
}

func TestCheapGPUEntryDroppedOnRecycle(t *testing.T) {
	e := newEnv(DefaultConfig())
	p, _ := e.gm.Allocate(256, 2, 0) // free to recompute
	e.gm.Device().CopyIn(p, data.Ones(4, 8))
	e.cache.PutGPU(li("relu", ""), p, 0, 1)
	e.gm.Release(p)
	if _, err := e.gm.Allocate((1<<20)-256, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.gm.Allocate(256, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, hit := e.cache.Probe(li("relu", "")); hit {
		t.Fatal("cheap entry must be dropped, not offloaded")
	}
	if e.cache.Stats.GPUInvalidated != 1 {
		t.Fatalf("GPUInvalidated = %d", e.cache.Stats.GPUInvalidated)
	}
}

// TestEvictionTiesGoToTheOlderEntry: three equally scored entries and one
// more put evict the first of the three, on every one of 200 fresh caches,
// for the driver cache with the planner off and on and for the Spark reuse
// share (where Eq. (1) scores every unreferenced RDD 0). Map iteration
// order used to decide.
func TestEvictionTiesGoToTheOlderEntry(t *testing.T) {
	cases := []struct {
		name string
		run  func() (evicted []string)
	}{
		{"cp", func() []string { return cpTie(false) }},
		{"cp-planned", func() []string { return cpTie(true) }},
		{"spark", sparkTie},
	}
	for _, c := range cases {
		seen := map[string]int{}
		for i := 0; i < 200; i++ {
			evicted := c.run()
			seen[fmt.Sprint(evicted)]++
		}
		if len(seen) != 1 || seen["[a]"] != 200 {
			t.Errorf("%s: evicted %v over 200 runs, want [a] every time", c.name, seen)
		}
	}
}

// cpTie puts a, b and c with equal cost, size and last access into a
// driver cache that fits three, puts d, and returns which of a, b, c went.
// Each costs 1 ms, below the disk round trip, so the victim is dropped.
func cpTie(planned bool) []string {
	conf := DefaultConfig()
	conf.CPBudget = 3 * 8 * 16
	e := newEnv(conf)
	if planned {
		e.cache.BeginPlanEpoch()
	}
	for _, n := range []string{"a", "b", "c"} {
		e.cache.PutCP(li(n, ""), data.Ones(4, 4), 1e-3, 1, false, false).LastAccess = 0
	}
	e.cache.PutCP(li("d", ""), data.Ones(4, 4), 1e-3, 1, false, false)
	return missing(e.cache, "a", "b", "c")
}

// sparkTie is cpTie for reuse RDDs.
func sparkTie() []string {
	conf := DefaultConfig()
	conf.SparkBudget = 3 * 40 * 4 * 8
	e := newEnv(conf)
	for _, n := range []string{"a", "b", "c", "d"} {
		r := e.sc.Parallelize(data.Ones(40, 4), 4, "X")
		e.cache.PutRDD(li(n, ""), r, nil, nil, 1, 1, spark.StorageMemory)
	}
	return missing(e.cache, "a", "b", "c")
}

// missing lists the named entries no longer in the cache.
func missing(c *Cache, names ...string) []string {
	var out []string
	for _, n := range names {
		if c.Lookup(li(n, "")) == nil {
			out = append(out, n)
		}
	}
	return out
}
