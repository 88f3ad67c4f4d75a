package runtime

import (
	"testing"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/gpu"
	"memphis/internal/lineage"
)

// demotableSetup binds a cached live GPU pointer to variable name, the
// shape the demotion ladder operates on.
func demotableSetup(t *testing.T, ctx *Context, name string, m *data.Matrix, cost float64) *gpu.Pointer {
	t.Helper()
	p, err := ctx.GM.Allocate(m.SizeBytes(), 2, cost)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	ctx.GM.Device().CopyIn(p, m)
	e := ctx.Cache.PutGPU(lineage.NewLeaf("read", name), p, cost, 1)
	if e == nil {
		t.Fatal("PutGPU returned no entry")
	}
	ctx.bindCell(ctx.LMap.cell(name), NewGPUValue(p, m.Rows, m.Cols))
	return p
}

// TestDemoteGPUChargesD2HOnce is the satellite-2 regression: demoting a
// cached live pointer to the host must charge exactly one D2H transfer
// (plus the cudaFree of the surrendered device memory) — the recycle
// callback must not fire a second transfer when the pointer is freed.
func TestDemoteGPUChargesD2HOnce(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	m := data.RandNorm(16, 16, 0, 1, 7)
	p := demotableSetup(t, ctx, "x", m, 0.5)

	before := ctx.Clock.Now()
	freed := ctx.demoteGPUToHost(p.Size())
	delta := ctx.Clock.Now() - before

	want := costs.Transfer(m.SizeBytes(), ctx.Model.D2HBW, ctx.Model.CopyLatency) +
		ctx.Model.CudaFree
	if delta != want {
		t.Fatalf("vtime delta %v, want exactly one D2H + cudaFree = %v", delta, want)
	}
	if freed != m.SizeBytes() {
		t.Fatalf("freed %d, want %d", freed, m.SizeBytes())
	}
	if p.Valid() {
		t.Fatal("pointer still owns device memory after demotion")
	}
	if got := ctx.Cache.Stats.GPUToHost; got != 1 {
		t.Fatalf("GPUToHost = %d, want 1", got)
	}
	v := ctx.Var("x")
	if v.GPU != nil || v.M == nil {
		t.Fatalf("variable not rewired to host copy: GPU=%v M=%v", v.GPU, v.M)
	}
	if v.M.Checksum() != m.Checksum() {
		t.Fatal("demoted host copy differs from device value")
	}
	// The value survived the ladder: it is now a CP cache entry.
	if ctx.Cache.CPUsed() != m.SizeBytes() {
		t.Fatalf("CPUsed = %d, want %d", ctx.Cache.CPUsed(), m.SizeBytes())
	}
	snap := ctx.Arb.Snapshot()
	var gpuDemoted int64
	for _, s := range snap {
		if s.Name == gpu.PoolName {
			gpuDemoted = s.DemotedBytes
		}
	}
	if gpuDemoted != m.SizeBytes() {
		t.Fatalf("arbiter gpu DemotedBytes = %d, want %d", gpuDemoted, m.SizeBytes())
	}
}

// TestAllocateStep5DemotesThroughArbiter fills the device with cached live
// pointers and allocates once more: Algorithm 1 must reach step 5, demote
// the LRU-scored pointer to the host cache, and satisfy the allocation —
// with the variable transparently rewired to its host copy — while the
// arbiter lists the pools in their fixed order.
func TestAllocateStep5DemotesThroughArbiter(t *testing.T) {
	conf := testConfig(ReuseMemphis)
	conf.GPUCapacity = 4 << 10 // room for exactly two 2KB blocks
	ctx := New(conf)
	defer ctx.Close()
	ma := data.RandNorm(16, 16, 0, 1, 1)
	mb := data.RandNorm(16, 16, 0, 1, 2)
	pa := demotableSetup(t, ctx, "a", ma, 0.5)
	pb := demotableSetup(t, ctx, "b", mb, 0.5)

	p, err := ctx.GM.Allocate(2<<10, 1, 0)
	if err != nil {
		t.Fatalf("Allocate after full device: %v", err)
	}
	if !p.Valid() {
		t.Fatal("allocation invalid")
	}
	if ctx.GM.Stats.HostEvictions != 1 {
		t.Fatalf("HostEvictions = %d, want 1", ctx.GM.Stats.HostEvictions)
	}
	// The earlier-allocated pointer has the lower recency score and is
	// demoted first; the other stays device-resident.
	if pa.Valid() {
		t.Fatal("LRU pointer a still on device")
	}
	if !pb.Valid() {
		t.Fatal("pointer b was demoted unnecessarily")
	}
	if va := ctx.Var("a"); va.M == nil || va.M.Checksum() != ma.Checksum() {
		t.Fatal("variable a lost its value across demotion")
	}
	snap := ctx.Arb.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
		if s.Name == gpu.PoolName && s.Pressure == 0 {
			t.Fatal("gpu pool reports no pressure")
		}
	}
	// Fixed registration order: cp, spark-reuse, spark, gpu.
	want := []string{"cp", "spark-reuse", "spark", "gpu"}
	for i := range want {
		if i >= len(names) || names[i] != want[i] {
			t.Fatalf("pool order %v, want %v", names, want)
		}
	}
}

// TestDemotionCascadesToDiskSpill drives the full ladder: a GPU demotion
// lands in a driver cache too small to hold it alongside existing entries,
// so the CP rung spills or drops victims — the value remains correct and
// reachable end to end.
func TestDemotionCascadesToDiskSpill(t *testing.T) {
	conf := testConfig(ReuseMemphis)
	conf.Cache.CPBudget = 3 << 10 // one 2KB matrix + slack, not two
	ctx := New(conf)
	defer ctx.Close()

	// An expensive CP entry occupying most of the budget: the cascade must
	// push it out (spill, given its high compute cost).
	mc := data.RandNorm(16, 16, 0, 1, 3)
	ec := ctx.Cache.PutCP(lineage.NewLeaf("read", "c"), mc, 10.0, 1, false, false)
	if ec == nil {
		t.Fatal("PutCP failed")
	}

	mg := data.RandNorm(16, 16, 0, 1, 4)
	pg := demotableSetup(t, ctx, "g", mg, 0.5)
	if got := ctx.demoteGPUToHost(pg.Size()); got != mg.SizeBytes() {
		t.Fatalf("demoted %d, want %d", got, mg.SizeBytes())
	}
	if ctx.Cache.Stats.SpillsCP != 1 {
		t.Fatalf("SpillsCP = %d, want 1 (cascade to disk)", ctx.Cache.Stats.SpillsCP)
	}
	if v := ctx.Var("g"); v.M == nil || v.M.Checksum() != mg.Checksum() {
		t.Fatal("demoted value lost in cascade")
	}
	// The spilled entry is still reachable: restoring charges a disk read.
	if m := ctx.Cache.Matrix(ec); m == nil || m.Checksum() != mc.Checksum() {
		t.Fatal("spilled CP entry not restorable")
	}
}

// hogPool is a report-only pool holding the given bytes against no budget.
type hogPool struct{ used int64 }

func (h *hogPool) Name() string  { return "hog" }
func (h *hogPool) Used() int64   { return h.used }
func (h *hogPool) Budget() int64 { return 0 }

// TestGPUDemotionIgnoresGlobalHeadroom: Algorithm 1's step 5 demotes by
// the device's own rule and consults no other pool. With a hog pool taking
// every other pool's headroom, a full device still demotes its LRU cached
// pointer, counts one gpu pressure event, and serves the allocation.
func TestGPUDemotionIgnoresGlobalHeadroom(t *testing.T) {
	conf := testConfig(ReuseMemphis)
	conf.GPUCapacity = 4 << 10 // room for exactly two 2KB blocks
	ctx := New(conf)
	defer ctx.Close()
	pa := demotableSetup(t, ctx, "a", data.RandNorm(16, 16, 0, 1, 1), 0.5)
	pb := demotableSetup(t, ctx, "b", data.RandNorm(16, 16, 0, 1, 2), 0.5)
	hog := &hogPool{}
	for _, s := range ctx.Arb.Snapshot() {
		hog.used += s.Budget - s.Used
	}
	ctx.Arb.Register(hog)

	if _, err := ctx.GM.Allocate(2<<10, 1, 0); err != nil {
		t.Fatalf("Allocate on a full device with no global headroom: %v", err)
	}
	var gpuPressure int64 = -1
	for _, s := range ctx.Arb.Snapshot() {
		if s.Name == gpu.PoolName {
			gpuPressure = s.PressureEvents
		}
	}
	if gpuPressure != 1 {
		t.Fatalf("gpu pressure events = %d, want 1", gpuPressure)
	}
	if pa.Valid() || !pb.Valid() || ctx.GM.Stats.HostEvictions != 1 || ctx.Cache.Stats.GPUToHost != 1 {
		t.Fatalf("a valid %v (want demoted), b valid %v, host evictions %d, GPUToHost %d",
			pa.Valid(), pb.Valid(), ctx.GM.Stats.HostEvictions, ctx.Cache.Stats.GPUToHost)
	}
}
