package gpu

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func newTestManager(capacity int64) (*Manager, *Device) {
	d, _ := newTestDevice(capacity)
	return NewManager(d), d
}

func TestRecycleExactSize(t *testing.T) {
	// Capacity for exactly one allocation: the second request hits memory
	// pressure and must recycle rather than cudaMalloc.
	m, d := newTestManager(1024)
	p, err := m.Allocate(1024, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(p)
	if m.FreeCount() != 1 || m.LiveCount() != 0 {
		t.Fatalf("free=%d live=%d after release", m.FreeCount(), m.LiveCount())
	}
	p2, err := m.Allocate(1024, 2, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatal("exact-size allocation must recycle the free pointer")
	}
	if m.Stats.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", m.Stats.Recycled)
	}
	// Recycling avoids cudaMalloc entirely.
	if d.Stats.Mallocs != 1 {
		t.Fatalf("Mallocs = %d, want 1", d.Stats.Mallocs)
	}
}

func TestRecycleInvalidatesCacheEntry(t *testing.T) {
	m, _ := newTestManager(512)
	var invalidated []*Pointer
	m.SetOnRecycle(func(p *Pointer) { invalidated = append(invalidated, p) })
	p, _ := m.Allocate(512, 1, 0)
	m.Release(p)
	_, _ = m.Allocate(512, 1, 0)
	if len(invalidated) != 1 || invalidated[0] != p {
		t.Fatal("recycle must invoke the cache-invalidation callback")
	}
}

// TestPopFreeAnyTiesGoToLowerAddress: of three equally scored free pointers
// (one per size, so they sit under three map keys) the lowest device
// address is released first, on every one of 200 fresh managers. Map
// iteration order used to decide.
func TestPopFreeAnyTiesGoToLowerAddress(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 200; i++ {
		m, _ := newTestManager(1 << 20)
		var ps []*Pointer
		for _, size := range []int64{300, 200, 100} {
			p, err := m.Allocate(size, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			p.LastAccess = 0
			ps = append(ps, p)
		}
		for _, p := range ps {
			m.Release(p)
		}
		m.EvictPercent(0.01) // one pointer
		for _, p := range ps {
			if !p.Valid() {
				seen[p.addr]++
			}
		}
	}
	if len(seen) != 1 || seen[0] != 200 {
		t.Fatalf("released addresses %v over 200 runs, want address 0 every time", seen)
	}
}

func TestFreeJustLargerWhenNoExact(t *testing.T) {
	m, d := newTestManager(3000)
	a, _ := m.Allocate(1000, 1, 0)
	b, _ := m.Allocate(2000, 1, 0)
	m.Release(a)
	m.Release(b)
	// Request 1500: no exact match; device is full, so the just-larger
	// (2000) free pointer must be released and the request served.
	p, err := m.Allocate(1500, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1500 {
		t.Fatalf("size = %d", p.Size())
	}
	if m.Stats.FreedForSpace != 1 {
		t.Fatalf("FreedForSpace = %d, want 1", m.Stats.FreedForSpace)
	}
	if d.Stats.Frees != 1 {
		t.Fatalf("device Frees = %d, want 1", d.Stats.Frees)
	}
	// The 1000-byte free pointer must still be cached.
	if m.FreeCount() != 1 {
		t.Fatalf("FreeCount = %d, want 1", m.FreeCount())
	}
}

func TestRepeatedFreeUntilFits(t *testing.T) {
	m, _ := newTestManager(3000)
	var ptrs []*Pointer
	for i := 0; i < 3; i++ {
		p, err := m.Allocate(1000, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		m.Release(p)
	}
	// 2500 > any single free pointer: manager must free several.
	p, err := m.Allocate(2500, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2500 {
		t.Fatal("wrong size")
	}
}

func TestAllocateOOMWithLivePointers(t *testing.T) {
	m, _ := newTestManager(1000)
	_, err := m.Allocate(800, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(500, 1, 0); !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM (live pointers cannot be evicted)", err)
	}
}

func TestHostEvictorInvoked(t *testing.T) {
	m, d := newTestManager(1000)
	p, _ := m.Allocate(800, 1, 0)
	evicted := false
	m.SetHostEvictor(func(need int64) int64 {
		evicted = true
		// Simulate the cache evicting its live pointer to the host.
		delete(m.live, p)
		d.Free(p)
		return p.Size()
	})
	p2, err := m.Allocate(500, 1, 0)
	if err != nil || !evicted {
		t.Fatalf("err=%v evicted=%v", err, evicted)
	}
	if p2.Size() != 500 {
		t.Fatal("wrong size")
	}
	if m.Stats.HostEvictions != 1 {
		t.Fatalf("HostEvictions = %d", m.Stats.HostEvictions)
	}
}

func TestRetainMovesFreeToLive(t *testing.T) {
	m, _ := newTestManager(1 << 20)
	p, _ := m.Allocate(256, 1, 0)
	m.Release(p)
	if !m.Retain(p) {
		t.Fatal("Retain on a free pointer must succeed")
	}
	if m.FreeCount() != 0 || m.LiveCount() != 1 || p.RefCount != 1 {
		t.Fatalf("free=%d live=%d ref=%d", m.FreeCount(), m.LiveCount(), p.RefCount)
	}
	if m.Stats.ReuseTakes != 1 {
		t.Fatalf("ReuseTakes = %d", m.Stats.ReuseTakes)
	}
}

func TestRefCountingMultipleVariables(t *testing.T) {
	m, _ := newTestManager(1 << 20)
	p, _ := m.Allocate(256, 1, 0)
	m.Retain(p) // second variable references the same pointer
	m.Release(p)
	if m.FreeCount() != 0 {
		t.Fatal("pointer with remaining references must stay live")
	}
	m.Release(p)
	if m.FreeCount() != 1 {
		t.Fatal("pointer must be freed when refcount reaches zero")
	}
}

func TestRetainFreedPointerFails(t *testing.T) {
	m, _ := newTestManager(4000)
	p, _ := m.Allocate(1000, 1, 0)
	m.Release(p)
	// Force the manager to release p's memory entirely.
	if released := m.EvictPercent(1.0); released != 1000 {
		t.Fatalf("EvictPercent released %d, want 1000", released)
	}
	if m.Retain(p) {
		t.Fatal("Retain on a released pointer must fail")
	}
}

func TestEvictionScoreOrdering(t *testing.T) {
	m, _ := newTestManager(256)
	dev := m.Device()
	// Cheap, old, tall-lineage pointer: lowest score, recycled first.
	cheap, _ := m.Allocate(128, 10, 0.0001)
	dev.clock.Advance(1)
	// Expensive, recent, short-lineage pointer: highest score, kept.
	expensive, _ := m.Allocate(128, 1, 1.0)
	dev.clock.Advance(1)
	m.Release(cheap)
	m.Release(expensive)
	got, _ := m.Allocate(128, 1, 0)
	if got != cheap {
		t.Fatal("eviction policy must recycle the cheap/old pointer first")
	}
}

func TestEvictPercentPartial(t *testing.T) {
	m, _ := newTestManager(1 << 20)
	var ptrs []*Pointer
	for i := 0; i < 10; i++ {
		p, _ := m.Allocate(100, 1, 0)
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		m.Release(p)
	}
	released := m.EvictPercent(0.5)
	if released != 500 {
		t.Fatalf("released %d, want 500", released)
	}
	if m.FreeCount() != 5 {
		t.Fatalf("FreeCount = %d, want 5", m.FreeCount())
	}
}

func TestDefragmentation(t *testing.T) {
	m, d := newTestManager(100)
	var ptrs []*Pointer
	for i := 0; i < 10; i++ {
		p, err := m.Allocate(10, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Release every other pointer, then fully release their memory so the
	// device itself is fragmented (50 free, max contiguous 10).
	for i := 0; i < 10; i += 2 {
		m.Release(ptrs[i])
	}
	m.EvictPercent(1.0)
	if !d.Fragmented() {
		t.Fatal("expected device fragmentation")
	}
	// A 30-byte request fits total free space only after defragmentation.
	p, err := m.Allocate(30, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 30 || m.Stats.Defrags != 1 {
		t.Fatalf("size=%d defrags=%d", p.Size(), m.Stats.Defrags)
	}
	// Live pointers must still be valid after compaction.
	for i := 1; i < 10; i += 2 {
		if !ptrs[i].Valid() {
			t.Fatal("live pointer invalidated by defragmentation")
		}
	}
}

// Property: live+free accounting matches the device's used bytes.
func TestManagerAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, d := newTestManager(10000)
		var live []*Pointer
		for step := 0; step < 100; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := int64(1+rng.Intn(20)) * 8
				p, err := m.Allocate(size, 1+rng.Intn(5), rng.Float64())
				if err != nil {
					continue
				}
				live = append(live, p)
			} else {
				i := rng.Intn(len(live))
				m.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			var liveBytes int64
			for _, p := range live {
				liveBytes += p.Size()
			}
			if d.Used() != liveBytes+m.FreeBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: mini-batch loops with fixed sizes reach a recycling steady
// state with no new cudaMallocs.
func TestMiniBatchSteadyState(t *testing.T) {
	// The pool grows to capacity during the first epoch, then recycling
	// serves every request without cudaMalloc (Figure 8 steady state).
	m, d := newTestManager(8 * 1024)
	for epoch := 0; epoch < 5; epoch++ {
		var batch []*Pointer
		for i := 0; i < 8; i++ {
			p, err := m.Allocate(1024, 2, 0.001)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, p)
		}
		for _, p := range batch {
			m.Release(p)
		}
		if epoch == 0 && d.Stats.Mallocs != 8 {
			t.Fatalf("first epoch Mallocs = %d, want 8", d.Stats.Mallocs)
		}
	}
	if d.Stats.Mallocs != 8 {
		t.Fatalf("Mallocs = %d, want 8 (steady-state recycling)", d.Stats.Mallocs)
	}
	if m.Stats.Recycled != 32 {
		t.Fatalf("Recycled = %d, want 32", m.Stats.Recycled)
	}
}

func TestPolicyPoolOOMOnPatternShift(t *testing.T) {
	// PyTorch-style pool: recycles exact sizes but never frees mismatched
	// blocks, so an allocation-pattern shift on a full device OOMs until a
	// manual cleanup (the paper's empty_cache comparison).
	m, _ := newTestManager(3000)
	m.Policy = PolicyPool
	var ptrs []*Pointer
	for i := 0; i < 3; i++ {
		p, err := m.Allocate(1000, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		m.Release(p)
	}
	// Same size recycles fine.
	if _, err := m.Allocate(1000, 1, 0); err != nil {
		t.Fatal(err)
	}
	// New size cannot be served: the pool does not evict mismatches.
	if _, err := m.Allocate(1500, 1, 0); !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM under pattern shift", err)
	}
	// Manual empty_cache() (EvictPercent 1.0) fixes it.
	m.EvictPercent(1.0)
	if _, err := m.Allocate(1500, 1, 0); err != nil {
		t.Fatalf("after cleanup: %v", err)
	}
}

func TestPolicyNoneFreesImmediately(t *testing.T) {
	m, d := newTestManager(4000)
	m.Policy = PolicyNone
	p, _ := m.Allocate(1000, 1, 0)
	m.Release(p)
	if d.Stats.Frees != 1 {
		t.Fatalf("Frees = %d, want immediate cudaFree", d.Stats.Frees)
	}
	if m.FreeCount() != 0 {
		t.Fatal("PolicyNone must not pool freed pointers")
	}
}

func TestReleaseBeyondLastReferenceIsNoOp(t *testing.T) {
	// Two variables can alias one pointer and each drop their name; the
	// second Release arrives with RefCount already at zero. It must not
	// insert the pointer into the free list a second time — the duplicate
	// would be freed twice when the list drains (Close, EvictPercent, or
	// an allocation under pressure), panicking the device allocator.
	m, _ := newTestManager(4096)
	p, err := m.Allocate(1024, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(p)
	m.Release(p)
	if m.FreeCount() != 1 {
		t.Fatalf("FreeCount = %d after double release, want 1", m.FreeCount())
	}
	m.Close() // drains the free list; a duplicate entry would double free
}

// refClose is the free-list drain Close used before it released the list
// in one pass, kept as its oracle: the lowest-score pointer first, every
// remaining pointer rescored for each release.
func refClose(m *Manager) {
	for {
		p := m.popFreeAny()
		if p == nil {
			break
		}
		m.releaseFreePointer(p)
	}
	for p := range m.live {
		delete(m.live, p)
		p.RefCount = 0
		if m.onRecycle != nil {
			m.onRecycle(p)
		}
		m.dev.Free(p)
	}
}

// TestCloseMatchesReferenceDrain: Close's one-pass drain by address leaves
// the device exactly as the scored drain did — stats, allocator free
// regions and the clock — over many free pointers of mixed sizes, scores
// and heights, with live pointers interleaved in the address space.
func TestCloseMatchesReferenceDrain(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		build := func() (*Manager, *Device) {
			m, d := newTestManager(1 << 20)
			r := rand.New(rand.NewSource(seed))
			var ps []*Pointer
			for i := 0; i < 300; i++ {
				size := int64(64 * (1 + r.Intn(12)))
				p, err := m.Allocate(size, 1+r.Intn(5), r.Float64())
				if err != nil {
					t.Fatal(err)
				}
				d.clock.Advance(r.Float64() * 1e-3)
				ps = append(ps, p)
			}
			for _, p := range ps {
				if r.Intn(5) > 0 {
					m.Release(p)
				}
			}
			return m, d
		}
		got, gd := build()
		want, wd := build()
		if got.FreeCount() < 200 {
			t.Fatalf("seed %d: only %d free pointers", seed, got.FreeCount())
		}
		got.Close()
		refClose(want)
		if gd.Stats != wd.Stats {
			t.Fatalf("seed %d: device stats %+v, reference %+v", seed, gd.Stats, wd.Stats)
		}
		if gd.alloc.used != wd.alloc.used || !slices.Equal(gd.alloc.free, wd.alloc.free) {
			t.Fatalf("seed %d: allocator %d used %v free, reference %d used %v free",
				seed, gd.alloc.used, gd.alloc.free, wd.alloc.used, wd.alloc.free)
		}
		if gd.clock.Now() != wd.clock.Now() {
			t.Fatalf("seed %d: clock %v, reference %v", seed, gd.clock.Now(), wd.clock.Now())
		}
		if got.FreeCount() != 0 || got.LiveCount() != 0 || gd.Used() != 0 {
			t.Fatalf("seed %d: %d free, %d live, %d bytes used after Close", seed, got.FreeCount(), got.LiveCount(), gd.Used())
		}
	}
}

// scorePointers are the six fixed objects of the driver cache's score
// tests (core.scoreEntries) as free pointers of one size, in index order.
func scorePointers() []*Pointer {
	ps := []*Pointer{
		{ComputeCost: 0.010, Height: 1, LastAccess: 0.10},
		{ComputeCost: 0.002, Height: 4, LastAccess: 0.90},
		{ComputeCost: 0.500, Height: 2, LastAccess: 0.50},
		{ComputeCost: 0.050, Height: 8, LastAccess: 0.95},
		{ComputeCost: 0.0001, Height: 0, LastAccess: 0.01},
		{ComputeCost: 0.020, Height: 16, LastAccess: 0.70},
	}
	for i, p := range ps {
		p.addr, p.size = int64(i)*64, 64
	}
	return ps
}

// TestScoreOrderingPinned pins the order in which popFreeExact recycles
// the fixed pointers under Eq. (2), recency + 1/height + cost, and in which
// DemotableLive lists them as cached live pointers: the deep (h=16) cheap
// pointer 5 goes first, the max-cost pointer 2 last.
func TestScoreOrderingPinned(t *testing.T) {
	m, d := newTestManager(1 << 20)
	d.clock.Advance(1)
	m.maxCost = 0.5
	want := []int{5, 4, 0, 1, 3, 2}
	ps := scorePointers()
	m.free[64] = slices.Clone(ps)
	var got []int
	for p := m.popFreeExact(64); p != nil; p = m.popFreeExact(64) {
		got = append(got, slices.Index(ps, p))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recycle order = %v, want %v", got, want)
	}
	// Equal scores keep the first pointer of the list.
	a, b := &Pointer{Height: 1, size: 64}, &Pointer{Height: 1, size: 64, addr: 64}
	m.free[64] = []*Pointer{a, b}
	if p := m.popFreeExact(64); p != a {
		t.Fatal("an equally scored later pointer was recycled first")
	}

	// The same pointers, cached and live, in the demotion candidate order.
	for _, p := range ps {
		p.Cached = true
		m.live[p] = struct{}{}
	}
	got = got[:0]
	for _, p := range m.DemotableLive() {
		got = append(got, slices.Index(ps, p))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("demotion order = %v, want %v", got, want)
	}
	// Equal scores go in address order.
	m.live = map[*Pointer]struct{}{}
	a, b = &Pointer{Height: 1, Cached: true, addr: 64}, &Pointer{Height: 1, Cached: true}
	m.live[a], m.live[b] = struct{}{}, struct{}{}
	if got := m.DemotableLive(); len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatal("equally scored pointers are not listed in address order")
	}
}

// TestScoreZeroGuards pins the degenerate normalizers: at time zero with
// no costed allocation only 1/h is left, and a zero pointer (height
// clamped to 1) stays finite.
func TestScoreZeroGuards(t *testing.T) {
	m, d := newTestManager(1 << 20)
	if now := d.clock.Now(); now != 0 {
		t.Fatalf("fresh clock reads %v", now)
	}
	if got := m.score(&Pointer{ComputeCost: 0.1, Height: 2, LastAccess: 0.5}); got != 0.5 {
		t.Fatalf("zero now/maxCost keeps only 1/h: got %v, want 0.5", got)
	}
	d.clock.Advance(1)
	m.maxCost = 1
	if got := m.score(&Pointer{}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero pointer must stay finite, got %v", got)
	}
}
