package gpu

import (
	"sort"

	"memphis/internal/faults"
	"memphis/internal/memctl"
)

// Policy selects the allocator behaviour, emulating the systems compared in
// the paper's GPU experiments (§6.3).
type Policy int

const (
	// PolicyMemphis is the full Algorithm-1 behaviour: exact-size
	// recycling, just-larger freeing, repeated freeing, full cleanup,
	// device-to-host eviction, and defragmentation.
	PolicyMemphis Policy = iota
	// PolicyPool emulates PyTorch's caching allocator: exact-size
	// recycling and plain cudaMalloc, but no eviction of mismatched free
	// blocks — allocation-pattern shifts OOM without a manual
	// empty_cache() (the paper's PyTorch vs PyTorch-Clr comparison).
	PolicyPool
	// PolicyNone disables recycling entirely: every release is an
	// immediate cudaFree (SystemDS Base without MEMPHIS's manager).
	PolicyNone
)

// ManagerStats counts memory-manager events.
type ManagerStats struct {
	Recycled      int64 // exact-size free pointers handed back to new outputs
	FreshMallocs  int64 // allocations served by cudaMalloc
	FreedForSpace int64 // free pointers released to satisfy an allocation
	FullCleanups  int64 // times the whole free list was released
	HostEvictions int64 // device-to-host eviction rounds
	Defrags       int64 // full defragmentations
	ReuseTakes    int64 // free->live transitions due to lineage reuse
	InjectedOOMs  int64 // cudaMalloc failures injected by the fault plan
}

// Manager is MEMPHIS's unified GPU memory manager with moving boundaries
// between live (in-use) and free (recyclable cache) pointers (paper §4.2,
// Figure 8, Algorithm 1). All pointers from allocation to deallocation are
// managed here; the free "list" is a map from size to the pointers of that
// size, ordered on demand by the Eq. 2 eviction score
//
//	score(o) = T_a(o) + 1/h(o) + c(o)
//
// where T_a is the normalized last-access time, h the lineage height, and c
// the normalized compute cost; the minimum score is recycled first.
type Manager struct {
	dev *Device
	// Policy selects the allocator behaviour; default PolicyMemphis.
	Policy Policy
	live   map[*Pointer]struct{}
	free   map[int64][]*Pointer

	maxCost float64 // running max compute cost for normalization

	// onRecycle is invoked when a free pointer's memory is recycled or
	// released, so the lineage cache can invalidate entries wrapping it.
	onRecycle func(*Pointer)

	// hostEvictor, when set, is asked to release at least `need` bytes of
	// live cached pointers by evicting them to the host. It returns the
	// bytes actually released.
	hostEvictor func(need int64) int64

	// inj injects deterministic cudaMalloc failures (simulated OOM) so the
	// Algorithm-1 recovery ladder is exercised under test; nil means none.
	inj *faults.Injector

	Stats ManagerStats
}

// NewManager returns a memory manager over dev.
func NewManager(dev *Device) *Manager {
	return &Manager{
		dev:  dev,
		live: make(map[*Pointer]struct{}),
		free: make(map[int64][]*Pointer),
	}
}

// Device returns the managed device.
func (m *Manager) Device() *Device { return m.dev }

// SetOnRecycle installs the cache-invalidation callback.
func (m *Manager) SetOnRecycle(f func(*Pointer)) { m.onRecycle = f }

// SetHostEvictor installs the device-to-host eviction hook.
func (m *Manager) SetHostEvictor(f func(need int64) int64) { m.hostEvictor = f }

// SetInjector installs the fault injector (nil disables injection).
func (m *Manager) SetInjector(inj *faults.Injector) { m.inj = inj }

// LiveCount returns the number of live pointers.
func (m *Manager) LiveCount() int { return len(m.live) }

// FreeCount returns the number of free (recyclable) pointers.
func (m *Manager) FreeCount() int {
	n := 0
	for _, q := range m.free {
		n += len(q)
	}
	return n
}

// FreeBytes returns the bytes held by free pointers.
func (m *Manager) FreeBytes() int64 {
	var b int64
	for size, q := range m.free {
		b += size * int64(len(q))
	}
	return b
}

// candidate lifts a pointer into the shared scoring shape.
func candidate(p *Pointer) memctl.Candidate {
	return memctl.Candidate{
		ComputeCost: p.ComputeCost,
		Size:        p.size,
		Height:      p.Height,
		LastAccess:  p.LastAccess,
	}
}

// score computes the Eq. 2 eviction score via the shared policy instance
// (memctl.GPUWeights: recency + 1/height + normalized compute cost);
// lower is recycled first.
func (m *Manager) score(p *Pointer) float64 {
	return memctl.Score(candidate(p), memctl.GPUWeights,
		memctl.Norms{Now: m.dev.clock.Now(), MaxCost: m.maxCost})
}

// popFreeExact removes and returns the lowest-score free pointer of exactly
// the given size, or nil. All free pointers — including those wrapped by
// lineage cache entries — are subject to recycling (paper §4.2); the Eq. 2
// score's compute-cost term is what preserves the valuable ones when
// alternatives exist.
func (m *Manager) popFreeExact(size int64) *Pointer {
	q := m.free[size]
	best := -1
	for i := range q {
		if best < 0 || m.score(q[i]) < m.score(q[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	p := q[best]
	q = append(q[:best], q[best+1:]...)
	if len(q) == 0 {
		delete(m.free, size)
	} else {
		m.free[size] = q
	}
	return p
}

// popFreeJustLarger removes and returns a free pointer with the smallest
// size strictly larger than size (lowest score among that size), or nil.
func (m *Manager) popFreeJustLarger(size int64) *Pointer {
	var sizes []int64
	for s := range m.free {
		if s > size {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 {
		return nil
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return m.popFreeExact(sizes[0])
}

// popFreeAny removes and returns the lowest-score free pointer across all
// sizes, or nil. Equal scores go to the lower device address, as in
// DemotableLive, so the order never depends on map iteration.
func (m *Manager) popFreeAny() *Pointer {
	var best *Pointer
	bestScore := 0.0
	for _, q := range m.free {
		for _, p := range q {
			if s := m.score(p); best == nil || s < bestScore || s == bestScore && p.addr < best.addr {
				best, bestScore = p, s
			}
		}
	}
	if best != nil {
		m.removeFromFree(best)
	}
	return best
}

func (m *Manager) removeFromFree(p *Pointer) {
	q := m.free[p.size]
	for i, c := range q {
		if c == p {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(m.free, p.size)
	} else {
		m.free[p.size] = q
	}
}

// releaseFreePointer hands a free pointer's memory back to the device and
// invalidates any cache entry wrapping it.
func (m *Manager) releaseFreePointer(p *Pointer) {
	if m.onRecycle != nil {
		m.onRecycle(p)
	}
	m.dev.Free(p)
}

// Allocate serves an output allocation request following Algorithm 1.
// While device memory is available, the pool grows with plain cudaMalloc;
// once the memory is full, free pointers are recycled as a form of
// eviction (paper §4.2, Figure 8(d)): first an exact-size pointer, then
// the just-larger one is freed, then pointers are freed repeatedly, then
// the whole free list, then device-to-host eviction, and finally a full
// defragmentation. In steady-state mini-batch processing the memory stays
// full, so recycling serves every request without cudaMalloc/cudaFree.
func (m *Manager) Allocate(size int64, height int, computeCost float64) (*Pointer, error) {
	if computeCost > m.maxCost {
		m.maxCost = computeCost
	}
	// Step 1: under memory pressure, recycle an exact-size free pointer
	// (no cudaMalloc or cudaFree at all).
	if m.Policy != PolicyNone && size > m.dev.LargestFree() {
		if p := m.recycleExact(size, height, computeCost); p != nil {
			return p, nil
		}
	}
	// Step 2: plain cudaMalloc (grows the pool while memory is available).
	// An injected failure models a transient cudaMalloc error / simulated
	// OOM: the call overhead is still charged, and the Algorithm-1 recovery
	// ladder below must absorb it.
	if m.inj.Fail(faults.GPUAlloc) {
		m.Stats.InjectedOOMs++
		m.dev.clock.Advance(m.dev.model.CudaMalloc)
	} else if p, err := m.dev.Malloc(size); err == nil {
		m.Stats.FreshMallocs++
		p.Height = height
		p.ComputeCost = computeCost
		m.live[p] = struct{}{}
		return p, nil
	}
	// Malloc can fail despite the pressure check (fragmentation): retry
	// the exact-size recycle.
	if m.Policy != PolicyNone {
		if p := m.recycleExact(size, height, computeCost); p != nil {
			return p, nil
		}
	}
	if m.Policy != PolicyMemphis {
		return nil, ErrOOM
	}
	// Step 3: free the just-larger pointer and retry (may fragment).
	if p := m.popFreeJustLarger(size); p != nil {
		m.releaseFreePointer(p)
		m.Stats.FreedForSpace++
		if np, err := m.dev.Malloc(size); err == nil {
			m.Stats.FreshMallocs++
			np.Height = height
			np.ComputeCost = computeCost
			m.live[np] = struct{}{}
			return np, nil
		}
	}
	// Step 4: repeatedly free free pointers until the malloc succeeds.
	for {
		p := m.popFreeAny()
		if p == nil {
			break
		}
		m.releaseFreePointer(p)
		m.Stats.FreedForSpace++
		if np, err := m.dev.Malloc(size); err == nil {
			m.Stats.FreshMallocs++
			np.Height = height
			np.ComputeCost = computeCost
			m.live[np] = struct{}{}
			return np, nil
		}
	}
	m.Stats.FullCleanups++
	// Step 5: device-to-host eviction of cached live pointers. Gated on
	// the device actually being full: an injected transient cudaMalloc
	// failure with room available is recovered by the retries below, and
	// demoting there would perturb virtual time for chaos replays.
	if m.hostEvictor != nil && m.dev.Available() < size {
		if released := m.hostEvictor(size); released > 0 {
			m.Stats.HostEvictions++
			if np, err := m.dev.Malloc(size); err == nil {
				m.Stats.FreshMallocs++
				np.Height = height
				np.ComputeCost = computeCost
				m.live[np] = struct{}{}
				return np, nil
			}
		}
	}
	// Step 6: full defragmentation (rare in practice).
	if m.dev.Available() >= size && m.dev.Fragmented() {
		m.Defragment()
		if np, err := m.dev.Malloc(size); err == nil {
			m.Stats.FreshMallocs++
			np.Height = height
			np.ComputeCost = computeCost
			m.live[np] = struct{}{}
			return np, nil
		}
	}
	// Final plain retry. Free on genuine OOM (a failing Malloc charges
	// nothing) but recovers injected transient failures when the device
	// actually has room and the free list was empty.
	if np, err := m.dev.Malloc(size); err == nil {
		m.Stats.FreshMallocs++
		np.Height = height
		np.ComputeCost = computeCost
		m.live[np] = struct{}{}
		return np, nil
	}
	return nil, ErrOOM
}

// Release decrements a pointer's reference count; at zero the pointer moves
// from the live list to the free list, keeping its device memory as
// recyclable cache (Figure 8(b)).
func (m *Manager) Release(p *Pointer) {
	if p.freed {
		return
	}
	if p.RefCount > 0 {
		p.RefCount--
	}
	if p.RefCount == 0 {
		// A release beyond the last reference (e.g. two variables aliasing
		// one value, each dropping its name) must not insert the pointer
		// into the free list a second time: the duplicate would be freed
		// twice when the list drains. Only a live pointer transitions.
		if _, live := m.live[p]; !live {
			return
		}
		delete(m.live, p)
		if m.Policy == PolicyNone {
			m.releaseFreePointer(p)
			return
		}
		m.free[p.size] = append(m.free[p.size], p)
	}
}

// Retain marks another live reference to p. If p sits in the free list
// (lineage reuse of a no-longer-live output, Figure 8(c)) it moves back to
// the live list.
func (m *Manager) Retain(p *Pointer) bool {
	if p.freed {
		return false
	}
	if p.RefCount == 0 {
		m.removeFromFree(p)
		m.live[p] = struct{}{}
		m.Stats.ReuseTakes++
	}
	p.RefCount++
	p.LastAccess = m.dev.clock.Now()
	return true
}

// EvictPercent releases the given fraction (0..1] of free-list bytes in
// eviction-score order. This implements the compiler-injected evict
// instruction for allocation-pattern shifts (paper §5.2).
func (m *Manager) EvictPercent(frac float64) int64 {
	if frac <= 0 {
		return 0
	}
	return m.evictFreeBytes(int64(float64(m.FreeBytes()) * frac))
}

// evictFreeBytes releases free-list pointers in eviction-score order until
// target bytes are returned to the device (or the list is empty).
func (m *Manager) evictFreeBytes(target int64) int64 {
	var released int64
	for released < target {
		p := m.popFreeAny()
		if p == nil {
			break
		}
		released += p.size
		m.releaseFreePointer(p)
	}
	return released
}

// Defragment compacts all live allocations. Free-list pointers are
// released first since their addresses would be invalidated anyway.
func (m *Manager) Defragment() {
	for {
		p := m.popFreeAny()
		if p == nil {
			break
		}
		m.releaseFreePointer(p)
	}
	live := make([]*Pointer, 0, len(m.live))
	for p := range m.live {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].addr < live[j].addr })
	m.dev.defragment(live)
	m.Stats.Defrags++
}

// Close releases every pointer the manager owns — the recyclable free list
// first, then any still-live pointers — returning all device memory. The
// lineage cache must be cleared before Close so the recycle callback finds
// no entries to invalidate (and charges no device-to-host eviction time).
// After Close the manager is empty but reusable.
//
// The free list drains in one pass, by device address: with no entries
// left to invalidate, the order is unobservable (every cudaFree costs the
// same, and the allocator coalesces the same regions in any order), so
// Close does not pay popFreeAny's rescoring of every remaining pointer.
func (m *Manager) Close() {
	var free []*Pointer
	for _, q := range m.free {
		free = append(free, q...)
	}
	clear(m.free)
	sort.Slice(free, func(i, j int) bool { return free[i].addr < free[j].addr })
	for _, p := range free {
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

// PoolName is the arbiter pool name of GPU device memory.
const PoolName = "gpu"

// DemotableLive returns the live cached pointers (those wrapped by lineage
// cache entries) in ascending eviction-score order, tie-broken by device
// address for determinism — the candidate list for the device-to-host rung
// of the demotion ladder.
func (m *Manager) DemotableLive() []*Pointer {
	var out []*Pointer
	for p := range m.live {
		if p.Cached && !p.freed {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := m.score(out[i]), m.score(out[j])
		if si != sj {
			return si < sj
		}
		return out[i].addr < out[j].addr
	})
	return out
}

// Surrender removes a pointer from the manager and frees its device memory
// without invoking the recycle callback: the caller (the demotion ladder)
// has already detached the lineage-cache side and charged the D2H transfer,
// so invoking the callback would charge it a second time.
func (m *Manager) Surrender(p *Pointer) {
	if p.freed {
		return
	}
	delete(m.live, p)
	m.removeFromFree(p)
	p.RefCount = 0
	m.dev.Free(p)
}

// memPool adapts the manager to memctl.Reclaimer. Used/Budget are the raw
// device occupancy; Evict releases recyclable free-list pointers; Demote
// runs the runtime-installed demoter, which moves cached live pointers down
// to the host cache through the lineage cache.
type memPool struct {
	m       *Manager
	demoter func(need int64) int64
}

func (p memPool) Name() string  { return PoolName }
func (p memPool) Used() int64   { return p.m.dev.Used() }
func (p memPool) Budget() int64 { return p.m.dev.Capacity() }

func (p memPool) Evict(need int64) int64 { return p.m.evictFreeBytes(need) }

func (p memPool) Demote(need int64) int64 {
	if p.demoter == nil {
		return 0
	}
	return p.demoter(need)
}

// MemPool returns the arbiter pool view of device memory. demoter (may be
// nil) implements the device-to-host rung of the demotion ladder.
func (m *Manager) MemPool(demoter func(need int64) int64) memctl.Reclaimer {
	return memPool{m: m, demoter: demoter}
}

// recycleExact serves an allocation by recycling the lowest-score free
// pointer of the exact size, invalidating its cache entry.
func (m *Manager) recycleExact(size int64, height int, computeCost float64) *Pointer {
	p := m.popFreeExact(size)
	if p == nil {
		return nil
	}
	if m.onRecycle != nil {
		m.onRecycle(p)
	}
	m.Stats.Recycled++
	p.Cached = false
	p.RefCount = 1
	p.Height = height
	p.ComputeCost = computeCost
	p.LastAccess = m.dev.clock.Now()
	p.value = nil
	m.live[p] = struct{}{}
	return p
}
