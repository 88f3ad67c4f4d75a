// Package serve is MEMPHIS's multi-tenant serving layer: a request queue
// and worker pool executing programs from many tenants against one shared,
// concurrency-safe lineage cache, so identical sub-programs submitted by
// different tenants reuse each other's results (the paper's holistic-reuse
// claim, §3.3/§6, applied across sessions instead of within one).
//
// Soundness. Session-level lineage keys input reads by variable NAME only,
// which two tenants may bind to different data. The shared level therefore
// keys every entry by (lineage item, content signature), where the
// signature folds the fingerprints of all read-leaf inputs the item depends
// on (runtime.Context.shareSig). Identical names with different data produce
// different keys and never alias.
//
// Storage. The shared cache is its own lock-sharded map from lineage hash to
// entries that hold the publisher's matrix itself; it keeps no clock and no
// session cache inside. Inside the server a buffer is shared and never
// written: a matrix leaves it only as the caller's own copy (Result.Values).
// Budgets are enforced per tenant, FIFO by publish order, through the
// serving layer's memory arbiter.
//
// Determinism. Each request runs on a fresh session with its own virtual
// clock; all shared-cache costs are charged from the analytic model, so a
// request's virtual latency depends only on which probes hit. Requests
// whose input sets overlap (same name AND content) are serialized in
// ticket order by the scheduler; requests that do not overlap can never
// observe each other's entries (their signatures differ). Hence per-tenant
// virtual times equal a serial replay in ticket order, regardless of worker
// count — provided per-tenant budgets do not overcommit the global budget
// (otherwise cross-tenant eviction couples latencies, and only throughput
// remains comparable).
package serve

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/lineage"
	"memphis/internal/memctl"
)

// SharedConfig sizes the cross-tenant cache.
type SharedConfig struct {
	// Shards is the lock-shard count (default 8). Keys spread by lineage
	// hash; one mutex per shard keeps REUSE/PUT/MAKE_SPACE race-free
	// without a global lock.
	Shards int
	// Budget is the global byte budget across all tenants (default 64 MB).
	Budget int64
	// TenantBudget caps each tenant's resident bytes (default Budget/8).
	// Keeping the sum of tenant budgets within Budget preserves the
	// per-tenant determinism guarantee; overcommitting trades it for
	// capacity.
	TenantBudget int64
}

func (c *SharedConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Budget <= 0 {
		c.Budget = 64 << 20
	}
	if c.TenantBudget <= 0 {
		c.TenantBudget = c.Budget / 8
	}
}

// tenantAccount tracks one tenant's shared-cache footprint and activity.
// The counters are atomics: stats are read concurrently by Snapshot while
// workers publish.
type tenantAccount struct {
	pool  string        // arbiter pool name, TenantPoolName(tenant)
	meter *memctl.Meter // the tenant pool's arbiter counters
	// mu serializes the tenant's publishes from the budget check through
	// the insert and the usage update.
	mu        sync.Mutex
	usage     atomic.Int64
	tick      atomic.Uint64 // per-tenant publish sequence (eviction order)
	probes    atomic.Int64
	hits      atomic.Int64
	crossHits atomic.Int64
	puts      atomic.Int64
	evictions atomic.Int64
	// lists[i] is the tenant's publish-order list inside shard i, guarded by
	// that shard's lock.
	lists []metaList
}

// The two publish orders every entry is linked into.
const (
	byGlobal = iota // all of a shard's entries, ascending global sequence
	byTenant        // one tenant's entries in a shard, ascending tenant tick
)

// entryMeta is one shared-cache entry: the stored matrix plus the serving
// layer's bookkeeping. Everything but the links is immutable once the entry
// is inserted.
type entryMeta struct {
	tenant      string
	acct        *tenantAccount
	key         *lineage.Item
	m           *data.Matrix // the publisher's value itself; never written
	size        int64
	computeCost float64
	// seq is the entry's publish sequence in each order: the global sequence
	// (overcommit eviction only) and the per-tenant tick.
	seq [2]uint64
	// links chains the entry into its shard's list of each order.
	links [2]struct{ prev, next *entryMeta }
	// same chains the shard's entries whose keys share a lineage hash.
	same *entryMeta
}

// metaList is an intrusive doubly-linked list of entries in publish order.
// The victim index is made of these: FIFO eviction reclaims entries in the
// order they were published, so the next victim of a list is its head and
// needs no search. Three invariants, all kept under the owning shard's lock:
//
//  1. A sequence is drawn and its entry appended in one critical section, so
//     every list is strictly ascending in its sequence.
//  2. An entry is in sh.entries exactly while it is linked into the shard's
//     byGlobal list and its tenant's byTenant list for that shard (inserted
//     by Publish, unlinked by drop).
//  3. Hence the oldest entry overall (or of a tenant) is the smallest of the
//     shard heads: comparing at most Shards entries replaces the scan.
type metaList struct{ head, tail *entryMeta }

func (l *metaList) pushBack(md *entryMeta, order int) {
	lk := &md.links[order]
	lk.prev, lk.next = l.tail, nil
	if l.tail != nil {
		l.tail.links[order].next = md
	} else {
		l.head = md
	}
	l.tail = md
}

func (l *metaList) remove(md *entryMeta, order int) {
	lk := &md.links[order]
	if lk.prev != nil {
		lk.prev.links[order].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != nil {
		lk.next.links[order].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	lk.prev, lk.next = nil, nil
}

// shard is one lock-guarded slice of the shared cache: its entries keyed by
// lineage hash, each hash's entries chained through entryMeta.same and told
// apart by lineage.Item.Equals.
type shard struct {
	front   *SharedCache
	idx     int // position in front.shards (and in every tenantAccount.lists)
	mu      sync.Mutex
	entries map[uint64]*entryMeta
	n       int      // resident entries
	order   metaList // every entry of the shard, byGlobal
	// disabled marks the shard degraded (simulated partial cache outage):
	// probes miss and publishes are rejected, with charges identical to
	// genuine misses/rejections so virtual times stay deterministic.
	// Sessions recompute instead of failing.
	disabled bool
}

// SharedCache is the sharded, concurrency-safe cross-tenant lineage cache
// that implements runtime.SharedCache. It owns no session state and no
// clock: probes return the stored matrices, which no holder writes, and
// virtual costs, all from the cost model, for the caller to charge.
type SharedCache struct {
	conf   SharedConfig
	model  *costs.Model // probe, copy and put charges
	shards []*shard
	// arb is the serving layer's own pool registry: one global pool plus
	// one pool per tenant. Publish relieves them directly (evictAtLeast)
	// and notes pressure and evictions on their meters, so their counters
	// read like the session-side pools'. Tenant pools partition the global
	// pool's bytes, so the global row overlaps the tenant rows.
	arb    *memctl.Arbiter
	global *memctl.Meter // the global pool's counters
	// evictNext drops the next FIFO victim of a pool: evictOldest, or in
	// the index tests the full scan it replaced.
	evictNext func(acct *tenantAccount) int64

	accMu    sync.RWMutex
	accounts map[string]*tenantAccount

	bytesStored atomic.Int64
	gseq        atomic.Uint64

	probes         atomic.Int64
	hits           atomic.Int64
	crossHits      atomic.Int64
	misses         atomic.Int64
	puts           atomic.Int64
	evictions      atomic.Int64
	degradedProbes atomic.Int64
}

// NewSharedCache builds the shared level, charging from costs.Default.
func NewSharedCache(conf SharedConfig) *SharedCache {
	conf.fill()
	s := &SharedCache{
		conf:     conf,
		model:    costs.Default(),
		arb:      memctl.NewArbiter(),
		accounts: make(map[string]*tenantAccount),
	}
	s.global = s.arb.Register(globalPool{s})
	s.evictNext = s.evictOldest
	s.shards = make([]*shard, conf.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{front: s, idx: i, entries: make(map[uint64]*entryMeta)}
	}
	return s
}

// SetShardEnabled enables or disables one shard (degraded mode). Disabling
// does not drop the shard's entries — they come back when re-enabled.
// Out-of-range indices are ignored.
func (s *SharedCache) SetShardEnabled(idx int, on bool) {
	if idx < 0 || idx >= len(s.shards) {
		return
	}
	sh := s.shards[idx]
	sh.mu.Lock()
	sh.disabled = !on
	sh.mu.Unlock()
}

// shareKey derives the shared-level key: the session item wrapped with the
// content signature, so equal sub-programs over equal data collide and
// everything else does not. Lineage hashes are content-based, so keys agree
// across sessions.
func shareKey(item *lineage.Item, sig uint64) *lineage.Item {
	return lineage.NewItem("xshare", strconv.FormatUint(sig, 16), item)
}

func (s *SharedCache) shardFor(key *lineage.Item) *shard {
	return s.shards[key.Hash()%uint64(len(s.shards))]
}

// account returns (creating and registering its pool on first use) the
// tenant's account.
func (s *SharedCache) account(tenant string) *tenantAccount {
	s.accMu.RLock()
	a := s.accounts[tenant]
	s.accMu.RUnlock()
	if a != nil {
		return a
	}
	s.accMu.Lock()
	if a = s.accounts[tenant]; a == nil {
		a = &tenantAccount{pool: TenantPoolName(tenant), lists: make([]metaList, len(s.shards))}
		a.meter = s.arb.Register(tenantPool{s: s, acct: a})
		s.accounts[tenant] = a
	}
	s.accMu.Unlock()
	return a
}

// orderOf is the publish order that ranks acct's entries (nil: all entries).
func orderOf(acct *tenantAccount) int {
	if acct == nil {
		return byGlobal
	}
	return byTenant
}

// oldest returns the shard's next FIFO victim among acct's entries (nil:
// among all entries), or nil when there is none. Caller holds sh.mu.
func (sh *shard) oldest(acct *tenantAccount) *entryMeta {
	if acct == nil {
		return sh.order.head
	}
	return acct.lists[sh.idx].head
}

// find returns the shard's entry keyed by key, or nil. Caller holds sh.mu.
func (sh *shard) find(key *lineage.Item) *entryMeta {
	for md := sh.entries[key.Hash()]; md != nil; md = md.same {
		if md.key.Equals(key) {
			return md
		}
	}
	return nil
}

// insert adds md to the entry map and to the tail of both publish orders.
// Caller holds sh.mu.
func (sh *shard) insert(md *entryMeta) {
	h := md.key.Hash()
	md.same = sh.entries[h]
	sh.entries[h] = md
	sh.n++
	sh.order.pushBack(md, byGlobal)
	md.acct.lists[sh.idx].pushBack(md, byTenant)
}

// drop removes a resident entry and maintains usage accounting. Caller
// holds sh.mu.
func (sh *shard) drop(md *entryMeta) {
	h := md.key.Hash()
	if p := sh.entries[h]; p == md {
		if md.same == nil {
			delete(sh.entries, h)
		} else {
			sh.entries[h] = md.same
		}
	} else {
		for p.same != md {
			p = p.same
		}
		p.same = md.same
	}
	md.same = nil
	sh.n--
	sh.order.remove(md, byGlobal)
	md.acct.lists[sh.idx].remove(md, byTenant)
	sh.front.bytesStored.Add(-md.size)
	md.acct.usage.Add(-md.size)
	sh.front.evictions.Add(1)
	md.acct.evictions.Add(1)
	// The entry left the shared level entirely (no lower tier), so both the
	// tenant pool and the global pool record an eviction.
	md.acct.meter.NoteEviction(1, md.size)
	sh.front.global.NoteEviction(1, md.size)
}

// Probe implements runtime.SharedCache: REUSE under the shard lock. A hit
// returns the stored matrix itself, which every holder only reads (the
// ownership contract of internal/data), so an eviction after the lock is
// released only drops the cache's reference to it. The charge is the probe
// plus a host-memory copy of the object: it models the copy the paper's
// cross-session reuse makes, which the host no longer performs.
func (s *SharedCache) Probe(tenant string, item *lineage.Item, sig uint64) (*data.Matrix, float64, float64, bool) {
	acct := s.account(tenant)
	s.probes.Add(1)
	acct.probes.Add(1)
	key := shareKey(item, sig)
	sh := s.shardFor(key)
	sh.mu.Lock()
	if sh.disabled {
		sh.mu.Unlock()
		s.misses.Add(1)
		s.degradedProbes.Add(1)
		return nil, 0, s.model.Probe, false
	}
	md := sh.find(key)
	if md == nil {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, 0, s.model.Probe, false
	}
	m, producer, computeCost := md.m, md.tenant, md.computeCost
	sh.mu.Unlock()
	s.hits.Add(1)
	acct.hits.Add(1)
	if producer != tenant {
		s.crossHits.Add(1)
		acct.crossHits.Add(1)
	}
	charge := s.model.Probe + costs.Transfer(m.SizeBytes(), s.model.MemBW, 0)
	return m, computeCost, charge, true
}

// Publish implements runtime.SharedCache: PUT with per-tenant budget
// enforcement (MAKE_SPACE evicts the publisher's own oldest entries first,
// keeping non-overlapping tenants decoupled) and a global-budget backstop.
// The entry stores m itself, not a copy: the publishing session never writes
// it again, and the server hands its callers copies (Result.Values). A row
// view keeps its whole base alive while it is resident, as it does in the
// session cache. The charge is one cache put, whatever the size.
func (s *SharedCache) Publish(tenant string, item *lineage.Item, sig uint64, m *data.Matrix, computeCost float64) (float64, bool) {
	charge := s.model.CachePut
	size := m.SizeBytes()
	if size > s.conf.TenantBudget || size > s.conf.Budget {
		return charge, false
	}
	// A degraded shard rejects the publish outright (same charge as any
	// rejected put) before any budget eviction can disturb other entries.
	key := shareKey(item, sig)
	sh := s.shardFor(key)
	sh.mu.Lock()
	degraded := sh.disabled
	sh.mu.Unlock()
	if degraded {
		return charge, false
	}
	// Both budget checks are MAKE_SPACE on the corresponding pool, which
	// drops oldest-first. The tenant's lock is held from its budget check
	// through the usage update, so its concurrent publishers never evict
	// for the same room. Publishers of other tenants may still drop this
	// tenant's entries, or any entries on the global path, between a
	// check and its eviction pass: a pass that finds nothing to evict
	// refuses only if no one else made the room meanwhile.
	acct := s.account(tenant)
	acct.mu.Lock()
	defer acct.mu.Unlock()
	for {
		over := acct.usage.Load() + size - s.conf.TenantBudget
		if over <= 0 {
			break
		}
		if s.evictAtLeast(acct, over) == 0 && acct.usage.Load()+size > s.conf.TenantBudget {
			return charge, false
		}
	}
	for {
		over := s.bytesStored.Load() + size - s.conf.Budget
		if over <= 0 {
			break
		}
		if s.evictAtLeast(nil, over) == 0 && s.bytesStored.Load()+size > s.conf.Budget {
			return charge, false
		}
	}
	sh.mu.Lock()
	if sh.find(key) != nil {
		sh.mu.Unlock()
		return charge, false
	}
	// Both sequences are drawn here, under the lock that also orders the
	// appends: that is what keeps each list ascending (invariant 1).
	sh.insert(&entryMeta{
		tenant:      tenant,
		acct:        acct,
		key:         key,
		m:           m,
		size:        size,
		computeCost: computeCost,
		seq:         [2]uint64{byGlobal: s.gseq.Add(1), byTenant: acct.tick.Add(1)},
	})
	sh.mu.Unlock()
	s.bytesStored.Add(size)
	acct.usage.Add(size)
	s.puts.Add(1)
	acct.puts.Add(1)
	return charge, true
}

// evictOldest drops the oldest entry — of the tenant (lowest publish tick),
// or with a nil account of the whole cache (lowest global sequence) — and
// returns its size, or 0 when there is none. Each shard offers the head of
// its list, the smallest sequence wins (metaList's invariants make that the
// entry a scan of everything would find). Victim search never holds two
// shard locks: heads are read one shard at a time, then the winner is
// dropped under its own lock.
//
// The global order is only reached when tenant budgets overcommit the global
// budget; that path is concurrency-safe but couples tenants, so virtual
// latencies are no longer interleaving-independent.
func (s *SharedCache) evictOldest(acct *tenantAccount) int64 {
	order := orderOf(acct)
	for {
		var best *entryMeta
		var bestShard *shard
		for _, sh := range s.shards {
			sh.mu.Lock()
			if md := sh.oldest(acct); md != nil && (best == nil || md.seq[order] < best.seq[order]) {
				best, bestShard = md, sh
			}
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
		// The candidate vanished between passes; look again.
	}
}

// TenantStats is one tenant's view of the shared cache.
type TenantStats struct {
	Probes    int64 `json:"probes"`
	Hits      int64 `json:"hits"`
	CrossHits int64 `json:"cross_hits"` // hits on entries published by another tenant
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
}

// SharedStats is the aggregate shared-cache surface of serve.Snapshot.
type SharedStats struct {
	Probes              int64                  `json:"probes"`
	Hits                int64                  `json:"hits"`
	CrossTenantHits     int64                  `json:"cross_tenant_hits"`
	Misses              int64                  `json:"misses"`
	Puts                int64                  `json:"puts"`
	Evictions           int64                  `json:"evictions"`
	BytesStored         int64                  `json:"bytes_stored"`
	Entries             int                    `json:"entries"`
	CrossTenantHitRatio float64                `json:"cross_tenant_hit_ratio"` // cross-tenant hits per probe
	DegradedProbes      int64                  `json:"degraded_probes"`        // probes answered "miss" by a disabled shard
	DisabledShards      int                    `json:"disabled_shards"`
	PerTenant           map[string]TenantStats `json:"per_tenant"`
	// Pools is the arbiter's per-pool pressure/eviction surface: the global
	// pool first, then one row per tenant, sorted by pool name so that the
	// report does not depend on which tenant touched the cache first.
	Pools []memctl.PoolStats `json:"pools,omitempty"`
}

// StatsSnapshot returns a consistent-enough view of the shared cache for
// monitoring (counters are atomics; entry counts take each shard lock).
func (s *SharedCache) StatsSnapshot() SharedStats {
	st := SharedStats{
		Probes:          s.probes.Load(),
		Hits:            s.hits.Load(),
		CrossTenantHits: s.crossHits.Load(),
		Misses:          s.misses.Load(),
		Puts:            s.puts.Load(),
		Evictions:       s.evictions.Load(),
		BytesStored:     s.bytesStored.Load(),
		PerTenant:       make(map[string]TenantStats),
	}
	st.DegradedProbes = s.degradedProbes.Load()
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Entries += sh.n
		if sh.disabled {
			st.DisabledShards++
		}
		sh.mu.Unlock()
	}
	if st.Probes > 0 {
		st.CrossTenantHitRatio = float64(st.CrossTenantHits) / float64(st.Probes)
	}
	s.accMu.RLock()
	for name, a := range s.accounts {
		st.PerTenant[name] = TenantStats{
			Probes:    a.probes.Load(),
			Hits:      a.hits.Load(),
			CrossHits: a.crossHits.Load(),
			Puts:      a.puts.Load(),
			Evictions: a.evictions.Load(),
			Bytes:     a.usage.Load(),
		}
	}
	s.accMu.RUnlock()
	st.Pools = s.arb.Snapshot()
	// The global pool registers first, in NewSharedCache.
	tenants := st.Pools[1:]
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	return st
}
