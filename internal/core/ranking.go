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

// rankTop is how many candidates one ranking keeps: a MAKE_SPACE evicts a
// few objects out of thousands of residents, so a ranking keeps only the
// first rankTop in the victim order and ranks again if a call takes them
// all.
const rankTop = 32

// ranking holds one pool's first victim candidates, scored once, for the
// span of one MAKE_SPACE. Ranking offers every candidate to a max-heap of
// rankTop slots in the victim order, whose root is the last one kept, so
// most candidates are turned away by one compare; sort then puts the kept
// ones in victim order, and each victim request pops the next. As they are
// the rankTop minima of a total order, they pop in the order a heap of all
// candidates would. When a truncated ranking runs out, the next request
// ranks the candidates left, the victims popped so far having left the
// list. The scores hold only under the norms they were computed with, so
// the CP ranking is also rebuilt when the clock or the maximum ratio moves
// (Cache.cpRankHolds); the Spark norms never move. The plan epoch, which
// the lifetimes depend on, cannot move within one call: BeginPlanEpoch
// runs when a planned block starts, never from inside an eviction.
type ranking struct {
	top  [rankTop]ranked
	n    int // candidates kept in top
	next int // the next of them to pop

	built bool
	// truncated records that some candidates were not kept.
	truncated bool

	// The norms the CP scores were computed under.
	now      float64
	maxRatio float64
	// maxLeft records that a popped victim had ratio maxRatio: the
	// maximum over the remaining candidates may be lower.
	maxLeft bool
}

// reset starts a ranking of n candidates.
func (r *ranking) reset(n int) {
	r.drop()
	r.truncated = n > rankTop
}

// wants reports whether x is among the first rankTop candidates offered
// since reset, in the victim order. Once the heap is full, a candidate
// that does not come before its root is turned away by that one compare.
func (r *ranking) wants(x ranked) bool {
	return r.n < rankTop || x.before(r.top[0])
}

// keep adds a wanted candidate to the heap, in place of its root once the
// heap is full.
func (r *ranking) keep(x ranked) {
	if r.n < rankTop {
		r.top[r.n] = x
		r.up(r.n)
		r.n++
		return
	}
	r.top[0] = x
	r.down(0, rankTop)
}

// sort puts the kept candidates in victim order (a heapsort of the
// max-heap) and marks the ranking built.
func (r *ranking) sort() {
	for end := r.n - 1; end > 0; end-- {
		r.top[0], r.top[end] = r.top[end], r.top[0]
		r.down(0, end)
	}
	r.built = true
}

// holds reports whether the ranking is built and still has the next
// victim: it has one left, or it kept every candidate.
func (r *ranking) holds() bool {
	return r.built && (r.next < r.n || !r.truncated)
}

// pop removes and returns the first kept candidate in the victim order,
// or nil when none is left. The vacated slot is cleared.
func (r *ranking) pop() *Entry {
	if r.next == r.n {
		return nil
	}
	e := r.top[r.next].e
	r.top[r.next] = ranked{}
	r.next++
	return e
}

// up moves the candidate at i toward the root of the max-heap until its
// parent does not come before it.
func (r *ranking) up(i int) {
	h := &r.top
	for i > 0 {
		p := (i - 1) / 2
		if !h[p].before(h[i]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down moves the candidate at i of the max-heap top[:n] toward the leaves
// until it comes before neither child.
func (r *ranking) down(i, n int) {
	h := &r.top
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if k := m + 1; k < n && h[m].before(h[k]) {
			m = k
		}
		if !h[i].before(h[m]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// drop ends the ranking, clearing its slots so that no entry stays
// reachable through it; the next victim request builds a new one.
func (r *ranking) drop() { *r = ranking{} }
