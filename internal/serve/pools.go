package serve

import (
	"sort"

	"memphis/internal/memctl"
)

// GlobalPoolName is the arbiter pool name of the whole shared cache.
const GlobalPoolName = "shared"

// TenantPoolName returns the arbiter pool name of one tenant's share.
func TenantPoolName(tenant string) string { return "tenant:" + tenant }

// victimsByAge lists eviction candidates oldest first, for one account or
// (nil) every tenant: the first max of each shard's publish-order list (all
// of it when max < 0), merged by sequence. Scores come from the shared
// policy's recency-only instance; ticks and global sequences are unique and
// monotone, so ascending score is ascending age and the first victim is the
// entry Publish would evict next.
func (s *SharedCache) victimsByAge(acct *tenantAccount, max int) []memctl.Victim {
	order, now := orderOf(acct), s.gseq.Load()
	if acct != nil {
		now = acct.tick.Load()
	}
	norms := memctl.Norms{Now: float64(now)}
	var out []memctl.Victim
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := 0
		for md := sh.oldest(acct); md != nil && (max < 0 || n < max); md = md.links[order].next {
			cand := memctl.Candidate{
				Size:        md.size,
				ComputeCost: md.computeCost,
				LastAccess:  float64(md.seq[order]),
			}
			out = append(out, memctl.Victim{Candidate: cand, Score: memctl.Score(cand, memctl.LRUWeights, norms)})
			n++
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	if max >= 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// evictAtLeast drops oldest-first from one account (nil: the whole cache)
// until need bytes are freed or nothing is left, and returns the bytes freed.
func (s *SharedCache) evictAtLeast(acct *tenantAccount, need int64) int64 {
	var freed int64
	for freed < need {
		n := s.evictOldest(acct)
		if n == 0 {
			break
		}
		freed += n
	}
	return freed
}

// globalPool is the arbiter view of the whole shared cache. There is no
// lower tier (a dropped entry is recomputed by the next session that needs
// it), so Demote returns 0 and MakeSpace falls through to eviction.
type globalPool struct{ s *SharedCache }

func (p globalPool) Name() string                    { return GlobalPoolName }
func (p globalPool) Used() int64                     { return p.s.bytesStored.Load() }
func (p globalPool) Budget() int64                   { return p.s.conf.Budget }
func (p globalPool) Victims(max int) []memctl.Victim { return p.s.victimsByAge(nil, max) }
func (p globalPool) Evict(need int64) int64          { return p.s.evictAtLeast(nil, need) }
func (p globalPool) Demote(need int64) int64         { return 0 }

// tenantPool is the arbiter view of one tenant's budgeted share. Eviction
// is oldest-first within the tenant's own entries, keeping non-overlapping
// tenants decoupled (the per-tenant determinism guarantee).
type tenantPool struct {
	s    *SharedCache
	acct *tenantAccount
}

func (p tenantPool) Name() string                    { return p.acct.pool }
func (p tenantPool) Used() int64                     { return p.acct.usage.Load() }
func (p tenantPool) Budget() int64                   { return p.s.conf.TenantBudget }
func (p tenantPool) Victims(max int) []memctl.Victim { return p.s.victimsByAge(p.acct, max) }
func (p tenantPool) Evict(need int64) int64          { return p.s.evictAtLeast(p.acct, need) }
func (p tenantPool) Demote(need int64) int64         { return 0 }
