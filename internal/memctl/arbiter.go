package memctl

import (
	"sync"
	"sync/atomic"
)

// Pool is one memory region registered with the Arbiter for reporting: its
// resident bytes and budget enter the snapshots. Every pool keeps its own
// eviction mechanism (the CP cache's MAKE_SPACE, the GPU manager's
// Algorithm 1, the block manager's partition eviction, the arena's trim)
// and its own victim ranking, and reports what they do through the Meter
// that Register returned. A pool the arbiter may also reclaim from
// implements Reclaimer.
//
// Pool methods are called under the owner's execution discipline: the
// runtime's pools are single-threaded on the driver, the serving layer's
// pools are concurrency-safe. The arbiter itself is safe for both.
type Pool interface {
	// Name identifies the pool in snapshots and in MakeSpace.
	Name() string
	// Used returns the pool's resident bytes.
	Used() int64
	// Budget returns the pool's byte budget (device capacity, cache
	// budget, storage region size, or tenant share).
	Budget() int64
}

// Reclaimer is a Pool whose pressure reaches the arbiter: MakeSpace on it
// runs the pool's one relief method. No pool of the program implements it;
// it stays while a benchmark probe times MakeSpace.
type Reclaimer interface {
	Pool
	// Reclaim releases room for need bytes inside the pool and returns the
	// bytes released.
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

// Counters is one pool's pressure activity as a snapshot copies it from
// the pool's Meter. All fields are monotone.
type Counters struct {
	// PressureEvents counts MAKE_SPACE entries: the pool's own, noted
	// through its Meter, and MakeSpace calls on a Reclaimer.
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

// Meter is one registered pool's entry in the arbiter: the pool and its
// atomic counters. Register returns it, and the pool's eviction paths
// report through it. A nil Meter (a pool that was never registered)
// records nothing.
type Meter struct {
	pool           Pool
	pressureEvents atomic.Int64
	evictions      atomic.Int64
	evictedBytes   atomic.Int64
	demotions      atomic.Int64
	demotedBytes   atomic.Int64
}

// NotePressure records one pressure event (a MAKE_SPACE entry).
func (m *Meter) NotePressure() {
	if m != nil {
		m.pressureEvents.Add(1)
	}
}

// NoteEviction records n objects (bytes total) evicted from the pool.
func (m *Meter) NoteEviction(n, bytes int64) {
	if m != nil {
		m.evictions.Add(n)
		m.evictedBytes.Add(bytes)
	}
}

// NoteDemotion records n objects (bytes total) demoted down the ladder.
func (m *Meter) NoteDemotion(n, bytes int64) {
	if m != nil {
		m.demotions.Add(n)
		m.demotedBytes.Add(bytes)
	}
}

func (m *Meter) snapshot() PoolStats {
	p := m.pool
	st := PoolStats{Name: p.Name(), Used: p.Used(), Budget: p.Budget(), Counters: Counters{
		PressureEvents: m.pressureEvents.Load(),
		Evictions:      m.evictions.Load(),
		EvictedBytes:   m.evictedBytes.Load(),
		Demotions:      m.demotions.Load(),
		DemotedBytes:   m.demotedBytes.Load(),
	}}
	if st.Budget > 0 {
		st.Pressure = float64(st.Used) / float64(st.Budget)
	}
	st.PeakUsed = st.Used
	if pr, ok := p.(PeakReporter); ok {
		st.PeakUsed = pr.Peak()
	}
	return st
}

// Arbiter is the registry of memory pools. It decides nothing: each pool
// evicts by its own rule, and MakeSpace hands a Reclaimer's pressure to
// its own Reclaim. Registration order is kept so snapshots are stable.
type Arbiter struct {
	mu     sync.RWMutex
	meters []*Meter // only appended to, so a copied prefix is never written
}

// NewArbiter returns an empty arbiter.
func NewArbiter() *Arbiter { return &Arbiter{} }

// Register adds a pool and returns the Meter it reports through. Each pool
// registers once, under a name no other pool of the arbiter uses.
func (a *Arbiter) Register(p Pool) *Meter {
	m := &Meter{pool: p}
	a.mu.Lock()
	a.meters = append(a.meters, m)
	a.mu.Unlock()
	return m
}

// MakeSpace is the arbiter-driven MAKE_SPACE: count a pressure event
// against the named pool and have it reclaim room for need bytes. Returns
// the bytes released. Pools note the objects they evict themselves, so a
// pool's own pressure is counted the same way. A pool that only reports
// (not a Reclaimer) is left alone: MakeSpace returns 0 and counts nothing.
func (a *Arbiter) MakeSpace(name string, need int64) int64 {
	if need <= 0 {
		return 0
	}
	a.mu.RLock()
	meters := a.meters
	a.mu.RUnlock()
	for _, m := range meters {
		if m.pool.Name() != name {
			continue
		}
		r, ok := m.pool.(Reclaimer)
		if !ok {
			return 0
		}
		m.pressureEvents.Add(1)
		return r.Reclaim(need)
	}
	return 0
}

// Snapshot returns per-pool stats in registration order. The pool methods
// run outside the lock: a pool may register or note while it reports.
func (a *Arbiter) Snapshot() []PoolStats {
	a.mu.RLock()
	meters := a.meters
	a.mu.RUnlock()
	out := make([]PoolStats, len(meters))
	for i, m := range meters {
		out[i] = m.snapshot()
	}
	return out
}
