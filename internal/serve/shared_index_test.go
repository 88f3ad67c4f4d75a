package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"memphis/internal/data"
	"memphis/internal/lineage"
)

// The reference victim searches: the full scans the publish-order index
// replaced, kept to prove the index picks the same victims.

// eachEntry visits every entry of the shard through its entry map and
// same-hash chains, never through the publish-order lists. Caller holds
// sh.mu.
func eachEntry(sh *shard, visit func(*entryMeta)) {
	for _, md := range sh.entries {
		for ; md != nil; md = md.same {
			visit(md)
		}
	}
}

// refEvictOldest scans every entry of every shard for the lowest sequence of
// the order — among the tenant's entries, or all entries when acct is nil —
// and drops it.
func refEvictOldest(s *SharedCache, acct *tenantAccount) int64 {
	order := orderOf(acct)
	for {
		var best *entryMeta
		var bestShard *shard
		for _, sh := range s.shards {
			sh.mu.Lock()
			eachEntry(sh, func(md *entryMeta) {
				if (acct == nil || md.acct == acct) && (best == nil || md.seq[order] < best.seq[order]) {
					best, bestShard = md, sh
				}
			})
			sh.mu.Unlock()
		}
		if best == nil {
			return 0
		}
		bestShard.mu.Lock()
		resident := bestShard.find(best.key) == best
		if resident {
			bestShard.drop(best)
		}
		bestShard.mu.Unlock()
		if resident {
			return best.size
		}
	}
}

// withReferenceEviction makes s evict through the reference scans in place
// of its publish-order index.
func withReferenceEviction(s *SharedCache) {
	s.evictNext = func(acct *tenantAccount) int64 { return refEvictOldest(s, acct) }
}

// resident names every entry of s by lineage hash and global publish
// sequence (a key evicted and published again in one step is a new entry).
func resident(s *SharedCache) map[string]uint64 {
	out := make(map[string]uint64)
	for _, sh := range s.shards {
		sh.mu.Lock()
		eachEntry(sh, func(md *entryMeta) {
			out[fmt.Sprintf("%016x@%d", md.key.Hash(), md.seq[byGlobal])] = md.seq[byGlobal]
		})
		sh.mu.Unlock()
	}
	return out
}

// dropped lists the entries of before that are gone from after, in publish
// order.
func dropped(before, after map[string]uint64) []string {
	var out []string
	for k := range before {
		if _, ok := after[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return before[out[i]] < before[out[j]] })
	return out
}

// checkIndex verifies the publish-order index against the entry map: every
// list strictly ascending in its sequence with consistent back links, the
// shard list holding exactly the entries of the map (each found by its own
// key), and the tenant lists of a shard partitioning them. With accounting
// set it also checks that the byte counters equal the sums over the lists.
func checkIndex(t *testing.T, s *SharedCache, accounting bool) {
	t.Helper()
	s.accMu.RLock()
	accounts := make(map[string]*tenantAccount, len(s.accounts))
	for name, a := range s.accounts {
		accounts[name] = a
	}
	s.accMu.RUnlock()
	walk := func(what string, l metaList, order int, visit func(*entryMeta)) int {
		n := 0
		var prev *entryMeta
		for md := l.head; md != nil; prev, md = md, md.links[order].next {
			if md.links[order].prev != prev {
				t.Fatalf("%s: entry %d has a wrong back link", what, n)
			}
			if prev != nil && prev.seq[order] >= md.seq[order] {
				t.Fatalf("%s: sequence %d follows %d", what, md.seq[order], prev.seq[order])
			}
			visit(md)
			n++
		}
		if l.tail != prev {
			t.Fatalf("%s: tail is not the last entry", what)
		}
		return n
	}
	var total int64
	usage := make(map[*tenantAccount]int64)
	for _, sh := range s.shards {
		sh.mu.Lock()
		inMap := make(map[*entryMeta]bool)
		eachEntry(sh, func(md *entryMeta) {
			if sh.find(md.key) != md {
				t.Fatalf("shard %d: an entry is not found by its own key", sh.idx)
			}
			inMap[md] = true
		})
		if len(inMap) != sh.n {
			t.Fatalf("shard %d: map holds %d entries, counter says %d", sh.idx, len(inMap), sh.n)
		}
		n := walk(fmt.Sprintf("shard %d", sh.idx), sh.order, byGlobal, func(md *entryMeta) {
			if !inMap[md] {
				t.Fatalf("shard %d: listed entry is not in the map", sh.idx)
			}
			total += md.size
		})
		if n != sh.n {
			t.Fatalf("shard %d: list holds %d entries, map %d", sh.idx, n, sh.n)
		}
		perTenant := 0
		for name, a := range accounts {
			perTenant += walk(fmt.Sprintf("shard %d tenant %s", sh.idx, name), a.lists[sh.idx], byTenant, func(md *entryMeta) {
				if md.acct != a || !inMap[md] {
					t.Fatalf("shard %d tenant %s: foreign or dropped entry listed", sh.idx, name)
				}
				usage[a] += md.size
			})
		}
		if perTenant != sh.n {
			t.Fatalf("shard %d: tenant lists hold %d entries, map %d", sh.idx, perTenant, sh.n)
		}
		sh.mu.Unlock()
	}
	if !accounting {
		return
	}
	if got := s.bytesStored.Load(); got != total {
		t.Fatalf("bytesStored %d, entries sum to %d", got, total)
	}
	for name, a := range accounts {
		if got := a.usage.Load(); got != usage[a] {
			t.Fatalf("tenant %s usage %d, entries sum to %d", name, got, usage[a])
		}
	}
}

// TestVictimOrderMatchesReferenceScan drives two caches through the same
// randomized sequence of publishes, probes, clears, shard outages and
// explicit MAKE_SPACE calls — one evicting through the publish-order index,
// one through the retained full scans — and requires the same victims after
// every step, and equal byte, tenant and arbiter counters.
func TestVictimOrderMatchesReferenceScan(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(8)
		tenants := make([]string, 1+rng.Intn(6))
		for i := range tenants {
			tenants[i] = fmt.Sprintf("t%d", i)
		}
		conf := SharedConfig{Shards: shards, TenantBudget: int64(1+rng.Intn(4)) << 10}
		if seed%2 == 0 {
			conf.Budget = conf.TenantBudget * int64(len(tenants)) // tenant budgets fit: global path idle
		} else {
			conf.Budget = conf.TenantBudget * int64(len(tenants)) / 2 // overcommitted
			if conf.Budget < conf.TenantBudget {
				conf.Budget = conf.TenantBudget
			}
		}
		t.Run(fmt.Sprintf("seed%d_%dshards_%dtenants", seed, shards, len(tenants)), func(t *testing.T) {
			idx, ref := NewSharedCache(conf), NewSharedCache(conf)
			withReferenceEviction(ref)
			for _, tn := range tenants {
				// The same accounts, and pool rows, on both sides from the start.
				idx.account(tn)
				ref.account(tn)
			}
			evicted := 0

			leaf := lineage.NewLeaf("read", "X")
			item := func(i int) *lineage.Item {
				return lineage.NewItem("op", "", leaf, lineage.NewLeaf("lit", fmt.Sprint(i)))
			}
			type published struct {
				item *lineage.Item
				sig  uint64
			}
			var live []published
			both := func(f func(s *SharedCache)) { f(idx); f(ref) }
			for step := 0; step < 400; step++ {
				idxBefore, refBefore := resident(idx), resident(ref)
				cleared := false
				tn := tenants[rng.Intn(len(tenants))]
				switch op := rng.Intn(100); {
				case op < 62: // publish, mostly new keys, sometimes one seen before
					p := published{item(step), uint64(1 + rng.Intn(3))}
					if len(live) > 0 && rng.Intn(8) == 0 {
						p = live[rng.Intn(len(live))]
					}
					m := data.New(1+rng.Intn(48), 4) // 32 B .. 1.5 KB: some exceed a 1 KB tenant budget
					cost := rng.Float64()
					var stored [2]bool
					for i, s := range []*SharedCache{idx, ref} {
						_, stored[i] = s.Publish(tn, p.item, p.sig, m, cost)
					}
					if stored[0] != stored[1] {
						t.Fatalf("step %d: publish stored %v with the index, %v with the scan", step, stored[0], stored[1])
					}
					live = append(live, p)
				case op < 80:
					if len(live) == 0 {
						continue
					}
					p := live[rng.Intn(len(live))]
					var hit [2]bool
					for i, s := range []*SharedCache{idx, ref} {
						_, _, _, hit[i] = s.Probe(tn, p.item, p.sig)
					}
					if hit[0] != hit[1] {
						t.Fatalf("step %d: probe hit %v with the index, %v with the scan", step, hit[0], hit[1])
					}
				case op < 94: // explicit MAKE_SPACE on the global or a tenant pool
					need := int64(1 + rng.Intn(2048))
					tenantPool := rng.Intn(2) == 0
					both(func(s *SharedCache) {
						var acct *tenantAccount
						if tenantPool {
							acct = s.account(tn)
						}
						s.evictAtLeast(acct, need)
					})
				case op < 98:
					shard, on := rng.Intn(shards), rng.Intn(2) == 0
					both(func(s *SharedCache) { s.SetShardEnabled(shard, on) })
				default:
					both(func(s *SharedCache) { s.Clear() })
					cleared = true
				}

				if !cleared {
					got, want := dropped(idxBefore, resident(idx)), dropped(refBefore, resident(ref))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: victims diverge:\n index %v\n scan  %v", step, got, want)
					}
					evicted += len(got)
				}
				if a, b := idx.StatsSnapshot(), ref.StatsSnapshot(); !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: stats diverge:\n index %+v\n scan  %+v", step, a, b)
				}
				checkIndex(t, idx, true)
			}
			if evicted == 0 {
				t.Fatal("the sequence evicted nothing")
			}
		})
	}
}

// TestIndexInvariantsUnderConcurrency races publishers of several tenants
// (overcommitted, so both the tenant and the global order evict) against
// probers, explicit MAKE_SPACE calls and shard outages, and checks the index
// once they are done. With clears in the mix a Clear can interleave with a
// publisher's byte accounting, so that variant checks the lists alone.
func TestIndexInvariantsUnderConcurrency(t *testing.T) {
	for _, withClear := range []bool{false, true} {
		t.Run(fmt.Sprintf("clear=%v", withClear), func(t *testing.T) {
			const tenants, perTenant = 4, 400
			s := NewSharedCache(SharedConfig{Shards: 4, Budget: 12 << 10, TenantBudget: 4 << 10})
			leaf := lineage.NewLeaf("read", "X")
			item := func(i int) *lineage.Item {
				return lineage.NewItem("op", "", leaf, lineage.NewLeaf("lit", fmt.Sprint(i)))
			}
			m := data.New(16, 4) // 512 B
			var wg sync.WaitGroup
			for tn := 0; tn < tenants; tn++ {
				// Two publishers per tenant, so ticks of one tenant are drawn
				// concurrently too.
				for half := 0; half < 2; half++ {
					wg.Add(1)
					go func(tn, half int) {
						defer wg.Done()
						name := fmt.Sprintf("t%d", tn)
						for i := half; i < perTenant; i += 2 {
							s.Publish(name, item(i), uint64(tn+1), m, 1e-3)
							s.Probe(name, item(i/2), uint64((tn+1)%tenants+1))
						}
					}(tn, half)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perTenant; i++ {
					var acct *tenantAccount
					if i%2 == 1 {
						acct = s.account(fmt.Sprintf("t%d", i/2%tenants))
					}
					s.evictAtLeast(acct, 512)
					s.SetShardEnabled(i%4, i%8 < 6)
					if withClear && i%64 == 63 {
						s.Clear()
					}
				}
			}()
			wg.Wait()
			checkIndex(t, s, !withClear)
			if st := s.StatsSnapshot(); st.Evictions == 0 || st.Puts == 0 {
				t.Fatalf("nothing happened: %d puts, %d evictions", st.Puts, st.Evictions)
			}
		})
	}
}

// Clear drops every entry and resets usage (stats counters are kept): the
// tests' reset between phases.
func (s *SharedCache) Clear() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.entries = make(map[uint64]*entryMeta)
		sh.n = 0
		for md := sh.order.head; md != nil; md = md.links[byGlobal].next {
			md.acct.lists[sh.idx] = metaList{}
		}
		sh.order = metaList{}
		sh.mu.Unlock()
	}
	s.accMu.RLock()
	for _, a := range s.accounts {
		a.usage.Store(0)
	}
	s.accMu.RUnlock()
	s.bytesStored.Store(0)
}
