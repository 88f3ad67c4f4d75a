package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/gpu"
	"memphis/internal/lineage"
	"memphis/internal/memctl"
	"memphis/internal/spark"
	"memphis/internal/vtime"
)

// The reference victim searches: the scans of the whole lineage map that the
// candidate lists replaced, kept to prove the lists pick the same victims.

// refCPVictim is cpVictim over every entry of the map, filtered by the
// candidate predicate of the driver cache.
func refCPVictim(c *Cache) *Entry {
	maxRatio := 0.0
	for _, e := range c.entries {
		for ; e != nil; e = e.same {
			if e.Backend != BackendCP || e.Status != StatusCached || e.Matrix == nil {
				continue
			}
			if r := cpRatio(e); r > maxRatio {
				maxRatio = r
			}
		}
	}
	now := c.clock.Now()
	var victim *Entry
	best := math.Inf(1)
	for _, e := range c.entries {
		for ; e != nil; e = e.same {
			if e.Backend != BackendCP || e.Status != StatusCached || e.Matrix == nil {
				continue
			}
			if s := cpScore(cpRatio(e), e.LastAccess, maxRatio, now); s < best || s == best && older(e, victim) {
				best, victim = s, e
			}
		}
	}
	return victim
}

// refSparkVictim is sparkVictim over every entry of the map, filtered by
// the candidate predicate of the Spark reuse share.
func refSparkVictim(c *Cache) *Entry {
	var victim *Entry
	best := math.Inf(1)
	for _, e := range c.entries {
		for ; e != nil; e = e.same {
			if e.Backend != BackendSpark || e.Status != StatusCached || e.RDD == nil {
				continue
			}
			if s := sparkScore(e); s < best || s == best && older(e, victim) {
				best, victim = s, e
			}
		}
	}
	return victim
}

// older reports whether e was inserted before the current victim v (false
// while there is none): the tie-break of the reference scans.
func older(e, v *Entry) bool { return v != nil && e.seq < v.seq }

// allEntries lists every entry of the map in insertion order, through the
// same-hash chains and never through the candidate lists.
func allEntries(c *Cache) []*Entry {
	var out []*Entry
	for _, e := range c.entries {
		for ; e != nil; e = e.same {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// checkLists verifies the lists against the map: every entry is found by
// its own key and sits in the list its backend, status and payload select,
// at its recorded slot, and the lists hold nothing else. Every CP score row
// equals, bit for bit, the row computed afresh from its candidate, and the
// placeholder list links exactly the map's placeholders, never more than
// the bound. With accounting set it also checks that the used-byte
// counters equal the sizes summed over the lists.
func checkLists(t *testing.T, c *Cache, accounting bool) {
	t.Helper()
	entries := allEntries(c)
	if len(entries) != c.NumEntries() {
		t.Fatalf("map holds %d entries, counter says %d", len(entries), c.NumEntries())
	}
	var nCP, nSpark, nPlaceholders int
	var cpBytes, sparkBytes int64
	for _, e := range entries {
		if c.find(e.Key) != e {
			t.Fatalf("entry %d is not found by its own key", e.seq)
		}
		want := unlisted
		switch {
		case e.Status == StatusToBeCached:
			want, nPlaceholders = listedPlaceholder, nPlaceholders+1
		case e.Backend == BackendCP && e.Status == StatusCached && e.Matrix != nil:
			want, nCP, cpBytes = listedCP, nCP+1, cpBytes+e.Size
		case e.Backend == BackendSpark && e.Status == StatusCached && e.RDD != nil:
			want, nSpark, sparkBytes = listedSpark, nSpark+1, sparkBytes+e.Size
		}
		if e.list != want {
			t.Fatalf("entry %d (%v, status %d) is in list %d, want %d", e.seq, e.Backend, e.Status, e.list, want)
		}
		if want == listedCP || want == listedSpark {
			if l := *c.candidates(want); int(e.slot) >= len(l) || l[e.slot] != e {
				t.Fatalf("entry %d is not at its slot %d of list %d", e.seq, e.slot, want)
			}
		}
		if want != listedPlaceholder && (e.prev != nil || e.next != nil) {
			t.Fatalf("entry %d is linked to the placeholder list from list %d", e.seq, e.list)
		}
	}
	if len(c.cpCands) != nCP || len(c.sparkCands) != nSpark {
		t.Fatalf("lists hold %d CP and %d Spark entries, the map %d and %d",
			len(c.cpCands), len(c.sparkCands), nCP, nSpark)
	}
	if len(c.cpRows) != nCP {
		t.Fatalf("%d CP score rows for %d candidates", len(c.cpRows), nCP)
	}
	for i, e := range c.cpCands {
		got, want := c.cpRows[i], cpRowOf(e)
		if math.Float64bits(got.ratio) != math.Float64bits(want.ratio) ||
			math.Float64bits(got.last) != math.Float64bits(want.last) {
			t.Fatalf("row %d of entry %d is %+v, its fields give %+v", i, e.seq, got, want)
		}
	}
	checkPlaceholders(t, c, nPlaceholders)
	if accounting && (c.cpUsed != cpBytes || c.sparkUsed != sparkBytes) {
		t.Fatalf("used bytes CP %d, Spark %d; listed entries sum to %d and %d",
			c.cpUsed, c.sparkUsed, cpBytes, sparkBytes)
	}
}

// checkPlaceholders walks the placeholder list from its first entry,
// checking every back link: it must link the map's n placeholders, no more
// than the bound, each once and each listed as one.
func checkPlaceholders(t *testing.T, c *Cache, n int) {
	t.Helper()
	l := &c.placeholders
	if l.n != n || n > maxPlaceholders {
		t.Fatalf("placeholder list counts %d, the map holds %d, the bound is %d", l.n, n, maxPlaceholders)
	}
	walked := 0
	var prev *Entry
	for e := l.first; e != nil; prev, e = e, e.next {
		if e.list != listedPlaceholder || e.Status != StatusToBeCached || e.prev != prev || c.find(e.Key) != e {
			t.Fatalf("placeholder list links entry %d (status %d, list %d) out of place", e.seq, e.Status, e.list)
		}
		if walked++; walked > n {
			t.Fatalf("placeholder list links more than its %d entries", n)
		}
	}
	if walked != n || l.last != prev {
		t.Fatalf("placeholder list walks %d entries to %s, counts %d ending at %s",
			walked, victimName(prev), n, victimName(l.last))
	}
}

// rankCounts tallies how the rankings served the victims popped through
// checkedSearches.
type rankCounts struct {
	pops         int // victims popped, CP and Spark
	rankings     int // rankings built for them
	reused       int // pops served by a ranking an earlier pop built
	clockMoves   int // CP re-ranks because a spill moved the clock
	maxLeft      int // CP re-ranks because the max-ratio entry left
	refills      int // CP re-ranks because a truncated ranking ran out
	sparkRefills int // Spark re-ranks because a truncated ranking ran out
}

// checkedSearches routes every victim an eviction pops through the
// reference scan as well, failing t when the two disagree or the lists do
// not match the map at the moment of the pop, and counts the pops and the
// rankings behind them.
func checkedSearches(t *testing.T) *rankCounts {
	n := new(rankCounts)
	cp, sp := searchCP, searchSpark
	t.Cleanup(func() { searchCP, searchSpark = cp, sp })
	searchCP = func(c *Cache) *Entry {
		checkLists(t, c, false)
		if r := &c.cpRank; c.cpRankHolds() {
			n.reused++
		} else {
			n.rankings++
			if r.built && r.now != c.clock.Now() {
				n.clockMoves++
			}
			if r.maxLeft {
				n.maxLeft++
			}
			if r.built && !r.holds() {
				n.refills++
			}
		}
		want := refCPVictim(c)
		if got := c.popCPVictim(); got != want {
			t.Fatalf("CP victim %s, the reference scan picks %s", victimName(got), victimName(want))
		}
		n.pops++
		return want
	}
	searchSpark = func(c *Cache) *Entry {
		checkLists(t, c, false)
		if r := &c.sparkRank; r.holds() {
			n.reused++
		} else {
			n.rankings++
			if r.built {
				n.sparkRefills++
			}
		}
		want := refSparkVictim(c)
		if got := c.popSparkVictim(); got != want {
			t.Fatalf("Spark victim %s, the reference scan picks %s", victimName(got), victimName(want))
		}
		n.pops++
		return want
	}
	return n
}

// firstVictims returns the first victims of fresh CP and Spark rankings,
// called while no MAKE_SPACE is in progress, and drops both rankings again.
func firstVictims(c *Cache) (cp, spark *Entry) {
	cp, spark = c.popCPVictim(), c.popSparkVictim()
	c.cpRank.drop()
	c.sparkRank.drop()
	return cp, spark
}

func victimName(e *Entry) string {
	if e == nil {
		return "none"
	}
	return fmt.Sprintf("entry %d", e.seq)
}

// collidingKey returns key k. Keys 2j and 2j+1 hash the same bytes
// ("k\x00" "\x00" j against "k" "\x00" "\x00"+j) but are not equal, so the
// map's same-hash chains hold more than one entry.
func collidingKey(k int) *lineage.Item {
	if k%2 == 0 {
		return lineage.NewLeaf("k\x00", strconv.Itoa(k/2))
	}
	return lineage.NewLeaf("k", "\x00"+strconv.Itoa(k/2))
}

// TestVictimOrderMatchesReferenceScan drives caches with all three backends
// through seeded random sequences of eager and delayed puts, GPU recycling
// and demotion, probes, restores of spilled entries under injected spill
// faults, MAKE_SPACE on both pools directly and through the arbiter, and
// clears. Every victim an eviction pops from a ranking must be what the
// reference scan picks at that moment, and after every step the candidate lists must equal the map filtered by
// their predicates, with the used-byte counters equal to the listed sizes,
// every score row must equal its candidate's fields, the placeholder list
// must link exactly the map's placeholders, and the first victims of fresh
// rankings must be the reference scans'.
func TestVictimOrderMatchesReferenceScan(t *testing.T) {
	if a, b := collidingKey(0), collidingKey(1); a.Hash() != b.Hash() || a.Equals(b) {
		t.Fatal("collidingKey(0) and collidingKey(1) must share a hash and differ")
	}
	var total Stats
	var counts rankCounts
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		conf := Config{CPBudget: int64(1+rng.Intn(4)) << 10, SparkBudget: int64(2+rng.Intn(3)) * 1280}
		// Seeds past 16 fill both pools with 3·rankTop small residents
		// first, and again after every Clear, so that one MAKE_SPACE can
		// take more than rankTop victims in a row.
		wide := seed > 16
		if wide {
			conf = Config{CPBudget: 8 << 10, SparkBudget: 4 << 10}
		}
		t.Run(fmt.Sprintf("seed%d_cp%d_spark%d", seed, conf.CPBudget, conf.SparkBudget), func(t *testing.T) {
			n := checkedSearches(t)
			clock := vtime.New()
			model := costs.Default()
			sc := spark.NewContext(clock, model, spark.DefaultConfig())
			gm := gpu.NewManager(gpu.NewDevice(clock, model, "gpu0", 2<<10)) // 8 pointers
			c := NewCache(clock, model, conf, sc, gm)
			arb := memctl.NewArbiter()
			c.SetArbiter(arb)
			c.SetInjector(faults.NewInjector(&faults.Plan{Seed: seed,
				Sites: map[faults.Site]faults.Trigger{faults.CPSpill: {Probability: 0.2}}}))

			const keys = 48
			// fill puts the wide seeds' residents: CP matrices of 64 B,
			// each cheaper than its disk round trip, and RDDs of 32 B.
			fill := func() {
				for i := 0; wide && i < 3*rankTop; i++ {
					c.PutCP(li("fill", strconv.Itoa(i)), data.Ones(1, 8), rng.Float64()*4e-3, 1, false, false)
					r := sc.Parallelize(data.Ones(1, 4), 2, "X")
					c.PutRDD(li("fill-rdd", strconv.Itoa(i)), r, nil, nil, rng.Float64(), 1, spark.StorageMemory)
				}
			}
			fill()
			delay := func() int {
				if rng.Intn(2) == 0 {
					return 1
				}
				return 1 + rng.Intn(4)
			}
			// pick returns a random entry of the map matching keep, or nil.
			pick := func(keep func(*Entry) bool) *Entry {
				var match []*Entry
				for _, e := range allEntries(c) {
					if keep(e) {
						match = append(match, e)
					}
				}
				if len(match) == 0 {
					return nil
				}
				return match[rng.Intn(len(match))]
			}
			for step := 0; step < 400; step++ {
				item := collidingKey(rng.Intn(keys))
				cost := rng.Float64() * 8e-3 // straddles the disk round trip: spills and drops
				switch op := rng.Intn(100); {
				case op < 26:
					m := data.Ones(1+rng.Intn(8), 8)
					if rng.Intn(3) == 0 {
						c.PutCPLazy(item, m.SizeBytes(), func() *data.Matrix { return m }, cost, delay(), rng.Intn(4) == 0)
					} else {
						c.PutCP(item, m, cost, delay(), rng.Intn(6) == 0, rng.Intn(4) == 0)
					}
				case op < 36:
					r := sc.Parallelize(data.Ones(10*(1+rng.Intn(4)), 4), 2, "X")
					c.PutRDD(item, r, nil, nil, rng.Float64(), delay(), spark.StorageMemory)
				case op < 46:
					gcost := 0.0 // cheap: dropped when recycled
					if rng.Intn(2) == 0 {
						gcost = cost * 100 // dear: moved to the driver when recycled
					}
					p, err := gm.Allocate(256, 1+rng.Intn(3), gcost)
					if err != nil {
						continue
					}
					gm.Device().CopyIn(p, data.Ones(4, 8))
					c.PutGPU(item, p, gcost, delay())
					if rng.Intn(3) == 0 && c.DemoteGPUPointer(p) != nil {
						gm.Surrender(p)
					} else {
						gm.Release(p) // recyclable: a later allocation may invalidate or move it
					}
				case op < 64:
					e, hit := c.Probe(item)
					if !hit {
						continue
					}
					switch e.Backend {
					case BackendCP:
						c.Matrix(e)
					case BackendSpark:
						c.OnRDDReuse(e)
					case BackendGPU:
						if c.ReuseGPU(e) {
							gm.Release(e.GPUPtr)
						}
					}
				case op < 70:
					if e := pick(func(e *Entry) bool { return e.Status == StatusSpilled }); e != nil {
						c.Matrix(e)
					}
				case op < 78:
					if rng.Intn(2) == 0 {
						c.MakeSpaceCP(rng.Int63n(conf.CPBudget))
					} else {
						c.MakeSpaceSpark(rng.Int63n(conf.SparkBudget))
					}
				case op < 98:
					// A need past the free room: MAKE_SPACE frees at
					// least the extra bytes, at least one victim.
					need := int64(1 + rng.Intn(1024))
					if rng.Intn(3) < 2 {
						c.MakeSpaceCP(conf.CPBudget - c.cpUsed + need)
					} else {
						c.MakeSpaceSpark(conf.SparkBudget - c.sparkUsed + need)
					}
				default:
					c.Clear()
					fill()
				}
				checkLists(t, c, true)
				if c.cpRank.built || c.sparkRank.built {
					t.Fatalf("step %d: a ranking outlived its call", step)
				}
				cp, sp := firstVictims(c)
				if want := refCPVictim(c); cp != want {
					t.Fatalf("step %d: next CP victim %s, the reference scan picks %s", step, victimName(cp), victimName(want))
				}
				if want := refSparkVictim(c); sp != want {
					t.Fatalf("step %d: next Spark victim %s, the reference scan picks %s", step, victimName(sp), victimName(want))
				}
			}
			counts.pops += n.pops
			counts.rankings += n.rankings
			counts.reused += n.reused
			counts.clockMoves += n.clockMoves
			counts.maxLeft += n.maxLeft
			counts.refills += n.refills
			counts.sparkRefills += n.sparkRefills
			s := c.Stats
			total.EvictionsCP += s.EvictionsCP
			total.SpillsCP += s.SpillsCP
			total.SpillErrorsCP += s.SpillErrorsCP
			total.RestoresCP += s.RestoresCP
			total.UnpersistsSpark += s.UnpersistsSpark
			total.GPUToHost += s.GPUToHost
			total.GPUInvalidated += s.GPUInvalidated
			total.DelayedStores += s.DelayedStores
		})
	}
	// Every transition the lists must follow happened somewhere.
	for name, n := range map[string]int64{
		"victim pops":                                      int64(counts.pops),
		"rankings reused for a later pop":                  int64(counts.reused),
		"re-ranks after a spill moved the clock":           int64(counts.clockMoves),
		"re-ranks after the max-ratio entry left":          int64(counts.maxLeft),
		"CP re-ranks after a truncated ranking ran out":    int64(counts.refills),
		"Spark re-ranks after a truncated ranking ran out": int64(counts.sparkRefills),
		"CP evictions":                                     total.EvictionsCP,
		"spills":                                           total.SpillsCP,
		"spill faults":                                     total.SpillErrorsCP,
		"restores":                                         total.RestoresCP,
		"Spark unpersists":                                 total.UnpersistsSpark,
		"GPU-to-host moves":                                total.GPUToHost,
		"GPU invalidations":                                total.GPUInvalidated,
		"delayed stores":                                   total.DelayedStores,
	} {
		if n == 0 {
			t.Errorf("the sequences made no %s", name)
		}
	}
	t.Logf("%d pops from %d rankings: %d reused, %d re-ranks after a clock move, %d after the max-ratio entry left, %d CP and %d Spark after a truncated ranking ran out",
		counts.pops, counts.rankings, counts.reused, counts.clockMoves, counts.maxLeft, counts.refills, counts.sparkRefills)
}

// TestMakeSpaceRanksOnce: a MAKE_SPACE that evicts several victims without
// spilling any (so the clock stays put) scores its candidates once, pops
// the reference scan's victims in order, and leaves no ranking and no
// entry in the ranking buffer behind.
func TestMakeSpaceRanksOnce(t *testing.T) {
	n := checkedSearches(t)
	conf := DefaultConfig()
	m := data.Ones(8, 8)
	conf.CPBudget = 64 * m.SizeBytes()
	e := newEnv(conf)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		// Under the disk round trip: every victim is dropped, none spilled.
		e.cache.PutCP(li("resident", strconv.Itoa(i)), m, 1e-4+rng.Float64()*1e-3, 1, false, false)
	}
	e.cache.MakeSpaceCP(10 * m.SizeBytes())
	s := e.cache.Stats
	if s.EvictionsCP != 10 || s.SpillsCP != 0 || n.pops != 10 || n.rankings != 1 {
		t.Fatalf("%d evictions, %d spills, %d pops from %d rankings; want 10, 0, 10 from 1",
			s.EvictionsCP, s.SpillsCP, n.pops, n.rankings)
	}
	r := &e.cache.cpRank
	if r.built || r.n != 0 {
		t.Fatalf("the ranking outlived the call: built %v with %d candidates", r.built, r.n)
	}
	for i, x := range r.top {
		if x.e != nil {
			t.Fatalf("the ranking still holds entry %d at slot %d", x.e.seq, i)
		}
	}
}

// TestMakeSpacePastTheBound: a MAKE_SPACE that evicts 2·rankTop+1 of
// 3·rankTop residents without spilling any runs out of two truncated
// rankings, ranks the candidates left each time, and pops the reference
// scan's victims in order from exactly three rankings; one that evicts all
// of rankTop+1 residents needs two. The dearest resident, put last, holds
// the maximum ratio and the latest access, so it scores last and its
// leaving never forces a re-rank.
func TestMakeSpacePastTheBound(t *testing.T) {
	for _, tc := range []struct{ resident, victims, rankings int }{
		{3 * rankTop, 2*rankTop + 1, 3},
		{rankTop + 1, rankTop + 1, 2},
	} {
		n := checkedSearches(t)
		conf := DefaultConfig()
		m := data.Ones(8, 8)
		conf.CPBudget = int64(tc.resident) * m.SizeBytes()
		e := newEnv(conf)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < tc.resident; i++ {
			// Under the disk round trip: every victim is dropped, none spilled.
			cost := 1e-4 + rng.Float64()*1e-3
			if i == tc.resident-1 {
				cost = 2e-3
			}
			e.cache.PutCP(li("resident", strconv.Itoa(i)), m, cost, 1, false, false)
		}
		e.cache.MakeSpaceCP(int64(tc.victims) * m.SizeBytes())
		s := e.cache.Stats
		if s.EvictionsCP != int64(tc.victims) || s.SpillsCP != 0 || n.pops != tc.victims ||
			n.rankings != tc.rankings || n.refills != tc.rankings-1 || n.maxLeft != 0 {
			t.Fatalf("%d residents: %d evictions, %d spills, %d pops from %d rankings (%d after a truncated one ran out); want %d, 0, %d from %d (%d)",
				tc.resident, s.EvictionsCP, s.SpillsCP, n.pops, n.rankings, n.refills,
				tc.victims, tc.victims, tc.rankings, tc.rankings-1)
		}
		if left := tc.resident - tc.victims; len(e.cache.cpCands) != left ||
			left > 0 && e.cache.Lookup(li("resident", strconv.Itoa(tc.resident-1))) == nil {
			t.Fatalf("%d residents left, want %d with the dearest among them", len(e.cache.cpCands), left)
		}
	}
}

// TestDelayedPutOfStoredItemCountsItsBytesOnce: a put of an item that is
// already stored returns the stored entry and stores nothing, whatever its
// delay. A delayed put used to store it again, counting its bytes twice,
// and a delayed PutRDD or PutGPU moved a CP entry to another backend
// without releasing its CP bytes.
func TestDelayedPutOfStoredItemCountsItsBytesOnce(t *testing.T) {
	for delay := 1; delay <= 3; delay++ {
		e := newEnv(DefaultConfig())
		var used []int64
		for i := 0; i < delay+2; i++ {
			e.cache.PutCP(li("x", ""), data.Ones(4, 4), 1, delay, false, false)
			used = append(used, e.cache.cpUsed)
		}
		if got := used[len(used)-1]; got != 128 || e.cache.NumEntries() != 1 {
			t.Errorf("delay %d: CPUsed after each put %v with %d entries, want 128 once stored, 1 entry",
				delay, used, e.cache.NumEntries())
		}
	}

	e := newEnv(DefaultConfig())
	for i := 0; i < 2; i++ {
		e.cache.PutCP(li("x", ""), data.Ones(4, 4), 1, 2, false, false)
	}
	r := e.sc.Parallelize(data.Ones(40, 4), 4, "X")
	if got := e.cache.PutRDD(li("x", ""), r, nil, nil, 1, 2, spark.StorageMemory); got == nil || got.Backend != BackendCP {
		t.Fatal("PutRDD of a stored CP item must return the CP entry")
	}
	p, err := e.gm.Allocate(256, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.cache.PutGPU(li("x", ""), p, 1, 2); got == nil || got.Backend != BackendCP {
		t.Fatal("PutGPU of a stored CP item must return the CP entry")
	}
	if e.cache.cpUsed != 128 || e.cache.sparkUsed != 0 || r.StorageLevel() != spark.StorageNone || p.Cached {
		t.Fatalf("CPUsed %d, SparkUsed %d, RDD level %v, pointer cached %v; want 128, 0, none, false",
			e.cache.cpUsed, e.cache.sparkUsed, r.StorageLevel(), p.Cached)
	}
	checkLists(t, e.cache, true)
}

// placeholderKey is the item of the k-th novel delayed put.
func placeholderKey(k int) *lineage.Item { return li("placeholder", strconv.Itoa(k)) }

// unlinked reports whether e is in no list and links no other entry.
func unlinked(e *Entry) bool { return e.list == unlisted && e.prev == nil && e.next == nil }

// TestPlaceholderBoundDropsLeastRecentlyTouched: the placeholder that would
// exceed the bound drops the least recently touched one from the map. Of
// never-repeated puts that is the oldest, unless a probe or a repeated put
// touched it since, which makes the next oldest go instead.
func TestPlaceholderBoundDropsLeastRecentlyTouched(t *testing.T) {
	m := data.Ones(2, 2)
	for _, tc := range []struct {
		name          string
		touch         func(*Cache)
		dropped, kept int
	}{
		{"untouched", func(*Cache) {}, 0, 1},
		{"probed", func(c *Cache) { c.Probe(placeholderKey(0)) }, 1, 0},
		{"put again", func(c *Cache) { c.PutCP(placeholderKey(0), m, 1, 3, false, false) }, 1, 0},
	} {
		e := newEnv(DefaultConfig())
		c := e.cache
		first := make([]*Entry, 2)
		for k := 0; k < maxPlaceholders; k++ {
			p := c.PutCP(placeholderKey(k), m, 1, 3, false, false)
			if k < len(first) {
				first[k] = p
			}
		}
		tc.touch(c)
		checkLists(t, c, true)
		c.PutCP(placeholderKey(maxPlaceholders), m, 1, 3, false, false)
		checkLists(t, c, true)
		if c.NumEntries() != maxPlaceholders || c.Stats.Placeholders != maxPlaceholders+1 {
			t.Fatalf("%s: %d entries after %d placeholders, want %d", tc.name, c.NumEntries(), c.Stats.Placeholders, maxPlaceholders)
		}
		if c.Lookup(placeholderKey(tc.dropped)) != nil || c.Lookup(placeholderKey(tc.kept)) != first[tc.kept] {
			t.Fatalf("%s: want placeholder %d dropped and %d kept", tc.name, tc.dropped, tc.kept)
		}
		if !unlinked(first[tc.dropped]) {
			t.Fatalf("%s: the dropped placeholder is still linked", tc.name)
		}
	}
}

// TestPlaceholderPromotionUnlinks: the put that stores a placeholder's
// object takes it off the placeholder list, on every backend.
func TestPlaceholderPromotionUnlinks(t *testing.T) {
	e := newEnv(DefaultConfig())
	c := e.cache
	r := e.sc.Parallelize(data.Ones(40, 4), 4, "X")
	p, err := e.gm.Allocate(256, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	puts := []func() *Entry{
		func() *Entry { return c.PutCP(li("cp", ""), data.Ones(2, 2), 1, 2, false, false) },
		func() *Entry { return c.PutRDD(li("rdd", ""), r, nil, nil, 1, 2, spark.StorageMemory) },
		func() *Entry { return c.PutGPU(li("gpu", ""), p, 1, 2) },
	}
	var held []*Entry
	for _, put := range puts {
		held = append(held, put())
	}
	checkLists(t, c, true)
	if c.placeholders.n != len(puts) {
		t.Fatalf("%d placeholders listed after %d first puts", c.placeholders.n, len(puts))
	}
	for i, put := range puts {
		if got := put(); got != held[i] || got.Status != StatusCached {
			t.Fatalf("put %d: the second put did not store its placeholder", i)
		}
		checkLists(t, c, true)
		if held[i].prev != nil || held[i].next != nil {
			t.Fatalf("put %d: the stored entry is still linked to the placeholder list", i)
		}
	}
	if l := c.placeholders; l.n != 0 || l.first != nil || l.last != nil {
		t.Fatalf("placeholder list %+v after every placeholder was stored", l)
	}
}

// TestClearEmptiesPlaceholders: Clear leaves no placeholder listed and no
// entry linked to another.
func TestClearEmptiesPlaceholders(t *testing.T) {
	e := newEnv(DefaultConfig())
	c := e.cache
	var held []*Entry
	for k := 0; k < 8; k++ {
		held = append(held, c.PutCP(placeholderKey(k), data.Ones(2, 2), 1, 2, false, false))
	}
	c.Clear()
	checkLists(t, c, true)
	if l := c.placeholders; l.n != 0 || l.first != nil || l.last != nil {
		t.Fatalf("placeholder list %+v after Clear", l)
	}
	for k, p := range held {
		if !unlinked(p) {
			t.Fatalf("placeholder %d is still linked after Clear", k)
		}
	}
	c.PutCP(placeholderKey(0), data.Ones(2, 2), 1, 2, false, false)
	checkLists(t, c, true)
}

// TestNovelDelayedPutsStayBounded: a long session of novel programs, where
// no delayed put ever repeats and one put in ten is eager, keeps every
// resident and exactly maxPlaceholders placeholders, however many it made.
func TestNovelDelayedPutsStayBounded(t *testing.T) {
	e := newEnv(DefaultConfig())
	c := e.cache
	m := data.Ones(2, 2)
	const puts = 10000
	for k := 0; k < puts; k++ {
		c.PutCP(placeholderKey(k), m, 1, 2, false, false)
		if k%10 == 0 {
			c.PutCP(li("resident", strconv.Itoa(k)), m, 1, 1, false, false)
		}
	}
	checkLists(t, c, true)
	if len(c.cpCands) != puts/10 || c.NumEntries() != len(c.cpCands)+maxPlaceholders {
		t.Fatalf("%d entries with %d residents, want %d residents plus %d placeholders",
			c.NumEntries(), len(c.cpCands), puts/10, maxPlaceholders)
	}
}

// TestMakeSpaceReranksAfterMaxRatioLeaves: once the entry with the maximum
// ratio is evicted, every remaining ratio term is normalized against a
// lower maximum, which can reorder the rest. X (ratio 1, accessed at 0)
// scores 1.00, A (ratio 0.5, accessed at 0.55) 1.05 and B (ratio 0.1,
// accessed at 0.96) 1.06, so X goes first; against A's ratio as the new
// maximum, A scores 1.55 and B 1.16, so B goes second, not A.
func TestMakeSpaceReranksAfterMaxRatioLeaves(t *testing.T) {
	n := checkedSearches(t)
	conf := DefaultConfig()
	m := data.Ones(8, 8)
	conf.CPBudget = 3 * m.SizeBytes()
	e := newEnv(conf)
	var entries []*Entry
	for _, name := range []string{"X", "A", "B"} {
		entries = append(entries, e.cache.PutCP(li("resident", name), m, 0, 1, false, false))
	}
	e.clock.Advance(1)
	now := e.clock.Now()
	for i, f := range []struct{ ratio, access float64 }{{1, 0}, {0.5, 0.55}, {0.1, 0.96}} {
		// Costs under the disk round trip: every victim is dropped, none spilled.
		entries[i].ComputeCost = f.ratio * 1e-3
		entries[i].LastAccess = f.access * now
		e.cache.rescore(entries[i])
	}
	e.cache.MakeSpaceCP(2 * m.SizeBytes())
	if e.cache.Lookup(li("resident", "A")) == nil || n.pops != 2 || n.rankings != 2 || n.maxLeft != 1 {
		t.Fatalf("A resident %v after %d pops from %d rankings (%d after the max-ratio entry left); want true after 2 from 2 (1)",
			e.cache.Lookup(li("resident", "A")) != nil, n.pops, n.rankings, n.maxLeft)
	}
}

// BenchmarkMakeSpaceVictims times the victim choice of one driver
// MAKE_SPACE in a fresh-miss session: 12 victims among 2 300 resident
// matrices (late in a session) or 9 000 (the most a session holds), and
// maxPlaceholders (4 096) delayed-caching placeholders. ranked pops them
// from one ranking, scan runs the reference scan of the whole map per
// victim. Nothing is evicted, so every iteration chooses from the same
// cache.
func BenchmarkMakeSpaceVictims(b *testing.B) {
	for _, resident := range []int{2300, 9000} {
		b.Run(strconv.Itoa(resident), func(b *testing.B) { benchmarkMakeSpaceVictims(b, resident) })
	}
}

func benchmarkMakeSpaceVictims(b *testing.B, resident int) {
	const placeholders, victims = maxPlaceholders, 12
	conf := DefaultConfig()
	m := data.Ones(8, 8)
	conf.CPBudget = int64(resident) * m.SizeBytes()
	e := newEnv(conf)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < resident; i++ {
		e.cache.PutCP(li("resident", strconv.Itoa(i)), m, rng.Float64()*1e-2, 1, false, false)
	}
	for i := 0; i < placeholders; i++ {
		e.cache.PutCP(li("placeholder", strconv.Itoa(i)), m, rng.Float64()*1e-2, 2, false, false)
	}
	c := e.cache
	if len(c.cpCands) != resident || c.NumEntries() != resident+placeholders {
		b.Fatalf("%d of %d entries resident, want %d of %d",
			len(c.cpCands), c.NumEntries(), resident, resident+placeholders)
	}
	if first, _ := firstVictims(c); first != refCPVictim(c) {
		b.Fatal("the ranking's first victim is not the reference scan's")
	}
	for _, s := range []struct {
		name string
		run  func(*testing.B)
	}{{"ranked", func(b *testing.B) {
		for v := 0; v < victims; v++ {
			if c.popCPVictim() == nil || !c.cpRankHolds() {
				b.Fatal("no victim, or the ranking did not hold")
			}
		}
		c.cpRank.drop()
	}}, {"scan", func(b *testing.B) {
		for v := 0; v < victims; v++ {
			if refCPVictim(c) == nil {
				b.Fatal("no victim")
			}
		}
	}}} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.run(b)
			}
		})
	}
}
