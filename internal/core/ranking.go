package core

import "memphis/internal/memctl"

// ranked is one victim candidate with its key in the victim order.
type ranked struct {
	e     *Entry
	life  memctl.Lifetime
	score float64
}

// before is the victim order: memctl.PreferVictim (the lower lifetime
// group, then the lower score), then the older entry. It is a total order
// over distinct entries, so its minimum is the victim a scan of the
// candidates returns.
func (a ranked) before(b ranked) bool {
	return memctl.PreferVictim(a.life, a.score, b.life, b.score) ||
		a.life == b.life && a.score == b.score && a.e.seq < b.e.seq
}

// ranking holds one pool's victim candidates, scored once, for the span of
// one MAKE_SPACE: a binary min-heap in the victim order, from which each
// victim request pops the next entry instead of rescanning the candidates.
// The scores hold only under the norms they were computed with, so the CP
// ranking is rebuilt when the clock or the maximum ratio moves
// (Cache.cpRankHolds); the Spark norms never move. The plan epoch, which
// the lifetimes depend on, cannot move within one call: BeginPlanEpoch
// runs when a planned block starts, never from inside an eviction. The
// buffer belongs to the Cache and is reused by the next ranking.
type ranking struct {
	heap  []ranked
	built bool

	// The norms the CP scores were computed under.
	now      float64
	maxRatio float64
	// maxLeft records that a popped victim had ratio maxRatio: the
	// maximum over the remaining candidates may be lower.
	maxLeft bool
}

// heapify makes the buffer a min-heap in the victim order and marks the
// ranking built.
func (r *ranking) heapify() {
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
	r.built = true
}

// pop removes and returns the first candidate in the victim order, or nil
// when none is left. The vacated slot is cleared.
func (r *ranking) pop() *Entry {
	n := len(r.heap) - 1
	if n < 0 {
		return nil
	}
	e := r.heap[0].e
	r.heap[0] = r.heap[n]
	r.heap[n] = ranked{}
	r.heap = r.heap[:n]
	r.down(0)
	return e
}

// down moves the candidate at i toward the leaves until neither child
// comes before it.
func (r *ranking) down(i int) {
	h := r.heap
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if k := m + 1; k < len(h) && h[k].before(h[m]) {
			m = k
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// drop ends the ranking, clearing its buffer so that no entry stays
// reachable through it; the next victim request builds a new one.
func (r *ranking) drop() {
	clear(r.heap)
	*r = ranking{heap: r.heap[:0]}
}
