package memctl

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Pool is one memory region registered with the Arbiter for reporting:
// its resident bytes and budget enter the snapshots and the global
// headroom. Every pool keeps its own eviction mechanism (the CP cache's
// MAKE_SPACE, the GPU manager's Algorithm 1, the block manager's partition
// eviction, the arena's trim) and its own victim ranking, and reports what
// they do through NotePressure, NoteEviction and NoteDemotion. A pool the
// arbiter may also reclaim from implements Reclaimer.
//
// Pool methods are called under the owner's execution discipline: the
// runtime's pools are single-threaded on the driver, the serving layer's
// pools are concurrency-safe. The arbiter itself is safe for both.
type Pool interface {
	// Name identifies the pool in snapshots and counters.
	Name() string
	// Used returns the pool's resident bytes.
	Used() int64
	// Budget returns the pool's byte budget (device capacity, cache
	// budget, storage region size, or tenant share).
	Budget() int64
}

// Reclaimer is a Pool whose pressure reaches the arbiter: MakeSpace on it
// runs the pool's one relief method. The GPU device pool demotes cached
// device pointers to the host cache; the serving layer's shared-cache pools
// evict oldest-first.
type Reclaimer interface {
	Pool
	// Reclaim releases room for need bytes inside the pool, by demoting or
	// by evicting, and returns the bytes released.
	Reclaim(need int64) int64
}

// PeakReporter is an optional Pool extension: pools that track a resident
// high-water mark expose it for snapshots (memphis-bench -mem peak-bytes
// column and the planner acceptance tests). Pools without it report their
// current Used as the peak.
type PeakReporter interface {
	// Peak returns the highest Used the pool has observed.
	Peak() int64
}

// Counters aggregates one pool's pressure activity. All fields are
// monotone; snapshots copy them atomically.
type Counters struct {
	// PressureEvents counts MakeSpace invocations against the pool.
	PressureEvents int64 `json:"pressure_events"`
	// Evictions/EvictedBytes count objects dropped (or unpersisted) with
	// no lower tier keeping the value.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	// Demotions/DemotedBytes count objects moved down the ladder (device
	// to host, memory to disk) where the value stays reachable.
	Demotions    int64 `json:"demotions"`
	DemotedBytes int64 `json:"demoted_bytes"`
}

// PoolStats is one pool's snapshot row.
type PoolStats struct {
	Name     string  `json:"name"`
	Used     int64   `json:"used"`
	Budget   int64   `json:"budget"`
	Pressure float64 `json:"pressure"` // Used/Budget
	// PeakUsed is the pool's resident high-water mark when the pool
	// implements PeakReporter, else the Used at snapshot time.
	PeakUsed int64 `json:"peak_used"`
	Counters
}

// counters is the internal atomic form of Counters.
type counters struct {
	pressureEvents atomic.Int64
	evictions      atomic.Int64
	evictedBytes   atomic.Int64
	demotions      atomic.Int64
	demotedBytes   atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		PressureEvents: c.pressureEvents.Load(),
		Evictions:      c.evictions.Load(),
		EvictedBytes:   c.evictedBytes.Load(),
		Demotions:      c.demotions.Load(),
		DemotedBytes:   c.demotedBytes.Load(),
	}
}

// Arbiter is the single registry of memory pools. It owns the per-pool
// counters and routes MakeSpace to the pools that implement Reclaimer.
// Registration order is preserved in snapshots so output is stable.
type Arbiter struct {
	mu    sync.RWMutex
	pools []Pool
	stats map[string]*counters
}

// NewArbiter returns an empty arbiter.
func NewArbiter() *Arbiter {
	return &Arbiter{stats: make(map[string]*counters)}
}

// Register adds a pool. Registering a second pool under an existing name
// replaces the pool but keeps its counters (two racing first touches of a
// serving tenant both register its pool).
func (a *Arbiter) Register(p Pool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	name := p.Name()
	for i, q := range a.pools {
		if q.Name() == name {
			a.pools[i] = p
			return
		}
	}
	a.pools = append(a.pools, p)
	if a.stats[name] == nil {
		a.stats[name] = &counters{}
	}
}

// Pool returns the registered pool with the given name, or nil.
func (a *Arbiter) Pool(name string) Pool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, p := range a.pools {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// counter returns (creating on demand) the named pool's counters; it
// also serves pools that report activity before being registered.
func (a *Arbiter) counter(name string) *counters {
	a.mu.RLock()
	c := a.stats[name]
	a.mu.RUnlock()
	if c != nil {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c = a.stats[name]; c == nil {
		c = &counters{}
		a.stats[name] = c
	}
	return c
}

// NoteEviction records n objects (bytes total) evicted from the pool.
// Pools call this from their own eviction mechanisms so arbiter counters
// stay truthful even for evictions the arbiter did not initiate.
func (a *Arbiter) NoteEviction(pool string, n, bytes int64) {
	c := a.counter(pool)
	c.evictions.Add(n)
	c.evictedBytes.Add(bytes)
}

// NoteDemotion records n objects (bytes total) demoted down the ladder.
func (a *Arbiter) NoteDemotion(pool string, n, bytes int64) {
	c := a.counter(pool)
	c.demotions.Add(n)
	c.demotedBytes.Add(bytes)
}

// NotePressure records a pressure event (a MAKE_SPACE entry) against the
// pool without going through MakeSpace.
func (a *Arbiter) NotePressure(pool string) {
	a.counter(pool).pressureEvents.Add(1)
}

// GlobalHeadroom returns total unused budget bytes across all pools — the
// joint signal that distinguishes "one tier is hot" (demoting helps) from
// "the system is full" (demoting only moves the problem).
func (a *Arbiter) GlobalHeadroom() int64 {
	used, budget := a.totals()
	if h := budget - used; h > 0 {
		return h
	}
	return 0
}

func (a *Arbiter) totals() (used, budget int64) {
	// Copy the pool list under the lock: Register replaces slice elements
	// in place (same-name re-registration), so iterating the shared backing
	// array after releasing the lock would race with it. The pool method
	// calls still happen outside the lock — pools may call back into the
	// arbiter (NoteEviction and friends take it again).
	a.mu.RLock()
	pools := make([]Pool, len(a.pools))
	copy(pools, a.pools)
	a.mu.RUnlock()
	for _, p := range pools {
		used += p.Used()
		budget += p.Budget()
	}
	return used, budget
}

// Demote runs demote, a pool's move of need bytes down the ladder, while
// the system as a whole has headroom to absorb them, and returns the bytes
// it released. Demotion keeps the value reachable in a lower tier but does
// not destroy bytes; with no headroom left it would only move the problem,
// so Demote releases nothing then. The GPU device pool's Reclaim goes
// through it.
func (a *Arbiter) Demote(need int64, demote func(need int64) int64) int64 {
	if a.GlobalHeadroom() <= 0 {
		return 0
	}
	return demote(need)
}

// MakeSpace is the arbiter-driven MAKE_SPACE: count a pressure event
// against the named pool and have it reclaim room for need bytes. Returns
// the bytes released. Pools report the objects they evict or demote
// themselves, through NoteEviction and NoteDemotion, so self-initiated
// pressure is counted identically. A pool that only reports (not a
// Reclaimer) is left alone: MakeSpace returns 0 and counts nothing.
func (a *Arbiter) MakeSpace(name string, need int64) int64 {
	p, ok := a.Pool(name).(Reclaimer)
	if !ok || need <= 0 {
		return 0
	}
	a.counter(name).pressureEvents.Add(1)
	return p.Reclaim(need)
}

// Snapshot returns per-pool stats in registration order.
func (a *Arbiter) Snapshot() []PoolStats {
	a.mu.RLock()
	pools := make([]Pool, len(a.pools))
	copy(pools, a.pools)
	extra := make([]string, 0)
	seen := make(map[string]bool, len(pools))
	for _, p := range pools {
		seen[p.Name()] = true
	}
	for name := range a.stats {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	a.mu.RUnlock()
	out := make([]PoolStats, 0, len(pools)+len(extra))
	for _, p := range pools {
		st := PoolStats{Name: p.Name(), Used: p.Used(), Budget: p.Budget(),
			Counters: a.counter(p.Name()).snapshot()}
		if st.Budget > 0 {
			st.Pressure = float64(st.Used) / float64(st.Budget)
		}
		if pr, ok := p.(PeakReporter); ok {
			st.PeakUsed = pr.Peak()
		} else {
			st.PeakUsed = st.Used
		}
		out = append(out, st)
	}
	// Counter-only rows (activity noted before registration) sort last.
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, PoolStats{Name: name, Counters: a.counter(name).snapshot()})
	}
	return out
}
