package data

import (
	"fmt"
	"sort"
	"sync"
)

// Arena is a pooled, shape-keyed buffer allocator for kernel outputs on the
// hot path. Fused elementwise kernels draw their output buffers from it and
// the runtime returns those buffers at the planner's KindFree last-use
// points (or at block end when no plan covers the block), so steady-state
// elementwise chains run without touching the garbage collector.
//
// Buffers are pooled by cell count, not by exact Rows x Cols: the backing
// slice is flat, so a recycled 64x32 buffer serves a later 32x64 request.
// Get does NOT zero recycled buffers — callers must write every cell (the
// fused interpreter does). Matrices handed to long-lived owners (the
// lineage cache, the shared serving cache) must be announced via Escape so
// the arena never recycles storage that something else can still read.
//
// The arena registers with the memctl arbiter as itself, a report-only
// pool: its method set satisfies memctl.Pool without data importing memctl.
// Used is the retained free-list footprint. The arena evicts on its own
// path: a Put that takes Used over the budget trims free shape classes
// (largest first, deterministically) — idle buffers are the only thing an
// arena can give back without breaking a live kernel.
//
// Methods are safe for concurrent use, though the expected discipline is
// the runtime driver's single-threaded execution loop; the lock exists for
// arbiter snapshots taken from other goroutines.
type Arena struct {
	mu     sync.Mutex
	budget int64
	free   map[int][]*Matrix // cell count -> idle buffers (LIFO)
	vended map[*Matrix]int   // outstanding buffers -> debug id
	used   int64             // bytes retained on free lists
	peak   int64

	gets    int64 // total Get calls
	reuses  int64 // Gets served from a free list
	puts    int64
	escapes int64
	evicted int64 // bytes trimmed by budget overflow
	debug   bool
	nextID  int
	events  []ArenaEvent
}

// DefaultArenaBudget bounds the bytes an arena retains on its free lists
// before it trims itself.
const DefaultArenaBudget = 8 << 20

// NewArena returns an empty arena retaining at most budget bytes of idle
// buffers (DefaultArenaBudget when budget <= 0).
func NewArena(budget int64) *Arena {
	if budget <= 0 {
		budget = DefaultArenaBudget
	}
	return &Arena{
		budget: budget,
		free:   map[int][]*Matrix{},
		vended: map[*Matrix]int{},
	}
}

// SetDebug toggles event recording for VerifyArenaTrace; tests enable it
// to assert that a whole workload's get/put/escape sequence is well formed.
func (a *Arena) SetDebug(on bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.debug = on
}

// Get returns an uninitialized rows x cols matrix, recycling an idle buffer
// of the same cell count when one exists. The contents of a recycled buffer
// are unspecified: callers must store to every cell.
func (a *Arena) Get(rows, cols int) *Matrix {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gets++
	cells := rows * cols
	var m *Matrix
	if fl := a.free[cells]; len(fl) > 0 {
		m = fl[len(fl)-1]
		a.free[cells] = fl[:len(fl)-1]
		a.used -= int64(cells) * 8
		m.Rows, m.Cols = rows, cols
		a.reuses++
	} else {
		m = &Matrix{Rows: rows, Cols: cols, Data: make([]float64, cells)}
	}
	id := a.nextID
	a.nextID++
	a.vended[m] = id
	if a.debug {
		a.events = append(a.events, ArenaEvent{Op: "get", ID: id})
	}
	return m
}

// Put returns a vended buffer to its shape class. Buffers the arena did not
// vend — or that have escaped to a long-lived owner — are ignored, so the
// runtime can call Put unconditionally at free points; with debug on the
// bad call is still recorded for VerifyArenaTrace.
func (a *Arena) Put(m *Matrix) {
	if m == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.vended[m]
	if !ok {
		if a.debug {
			a.events = append(a.events, ArenaEvent{Op: "put", ID: -1})
		}
		return
	}
	delete(a.vended, m)
	a.puts++
	cells := len(m.Data)
	a.free[cells] = append(a.free[cells], m)
	a.used += int64(cells) * 8
	if a.used > a.peak {
		a.peak = a.used
	}
	if a.debug {
		a.events = append(a.events, ArenaEvent{Op: "put", ID: id})
	}
	if a.used > a.budget {
		a.trimLocked(a.used - a.budget)
	}
}

// Escape abandons ownership of a vended buffer: it will never be recycled.
// Call it whenever a matrix is handed to an owner that outlives the block
// (the lineage cache, a serving-layer shared cache, a user-visible value).
func (a *Arena) Escape(m *Matrix) {
	if m == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.vended[m]
	if !ok {
		return
	}
	delete(a.vended, m)
	a.escapes++
	if a.debug {
		a.events = append(a.events, ArenaEvent{Op: "escape", ID: id})
	}
}

// Vended reports whether the arena currently owns m (vended, not yet put
// back or escaped).
func (a *Arena) Vended(m *Matrix) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.vended[m]
	return ok
}

// trimLocked drops idle buffers until at least need bytes are released,
// visiting shape classes largest-first (ties impossible: keys are unique)
// so eviction order is a pure function of arena contents.
func (a *Arena) trimLocked(need int64) int64 {
	keys := make([]int, 0, len(a.free))
	for c := range a.free {
		if len(a.free[c]) > 0 {
			keys = append(keys, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(keys)))
	var freed int64
	for _, c := range keys {
		fl := a.free[c]
		for len(fl) > 0 && freed < need {
			fl = fl[:len(fl)-1]
			freed += int64(c) * 8
		}
		if len(fl) == 0 {
			delete(a.free, c)
		} else {
			a.free[c] = fl
		}
		if freed >= need {
			break
		}
	}
	a.used -= freed
	a.evicted += freed
	return freed
}

// Stats returns cumulative counters: total gets, gets served by recycling,
// puts, and escapes.
func (a *Arena) Stats() (gets, reuses, puts, escapes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets, a.reuses, a.puts, a.escapes
}

// Events returns a copy of the recorded trace (debug mode only).
func (a *Arena) Events() []ArenaEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ArenaEvent, len(a.events))
	copy(out, a.events)
	return out
}

// --- memctl.Pool surface -------------------------------------------------

// Name implements memctl.Pool.
func (a *Arena) Name() string { return "arena" }

// Used implements memctl.Pool: bytes retained on free lists. Vended buffers
// are live kernel outputs and not evictable, so they are not counted here.
func (a *Arena) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Budget implements memctl.Pool.
func (a *Arena) Budget() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// Peak implements memctl.PeakReporter: high-water mark of retained bytes.
func (a *Arena) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// --- trace checker (mirrors memplan.VerifyStream) -------------------------

// ArenaEvent is one step of an arena ownership trace: Op is "get", "put",
// "use", or "escape"; ID names the buffer. The runtime records get/put/
// escape in debug mode; tests may interleave explicit "use" events to model
// kernel reads.
type ArenaEvent struct {
	Op string
	ID int
}

// VerifyArenaTrace statically checks an ownership trace the way
// memplan.VerifyStream checks a rewritten instruction stream: every put
// must return a currently-vended buffer (no double-put, no put-of-unvended,
// no put-after-escape), and no buffer may be used after it was put back
// without an intervening get. Returns nil for a well-formed trace.
func VerifyArenaTrace(events []ArenaEvent) error {
	const (
		stVended = iota
		stFree
		stEscaped
	)
	state := map[int]int{}
	for i, e := range events {
		switch e.Op {
		case "get":
			if s, ok := state[e.ID]; ok && s == stVended {
				return fmt.Errorf("arena trace: event %d gets buffer %d twice without put", i, e.ID)
			}
			state[e.ID] = stVended
		case "put":
			s, ok := state[e.ID]
			if !ok || e.ID < 0 {
				return fmt.Errorf("arena trace: event %d puts unvended buffer %d", i, e.ID)
			}
			switch s {
			case stFree:
				return fmt.Errorf("arena trace: event %d double-puts buffer %d", i, e.ID)
			case stEscaped:
				return fmt.Errorf("arena trace: event %d puts escaped buffer %d", i, e.ID)
			}
			state[e.ID] = stFree
		case "use":
			s, ok := state[e.ID]
			if !ok {
				return fmt.Errorf("arena trace: event %d uses unvended buffer %d", i, e.ID)
			}
			if s == stFree {
				return fmt.Errorf("arena trace: event %d uses buffer %d after put (use-after-free)", i, e.ID)
			}
		case "escape":
			s, ok := state[e.ID]
			if !ok {
				return fmt.Errorf("arena trace: event %d escapes unvended buffer %d", i, e.ID)
			}
			if s == stFree {
				return fmt.Errorf("arena trace: event %d escapes buffer %d after put", i, e.ID)
			}
			state[e.ID] = stEscaped
		default:
			return fmt.Errorf("arena trace: event %d has unknown op %q", i, e.Op)
		}
	}
	return nil
}
