package serve

// GlobalPoolName is the arbiter pool name of the whole shared cache.
const GlobalPoolName = "shared"

// TenantPoolName returns the arbiter pool name of one tenant's share.
func TenantPoolName(tenant string) string { return "tenant:" + tenant }

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

// globalPool is the arbiter view (a memctl.Reclaimer) of the whole shared
// cache. There is no lower tier (a dropped entry is recomputed by the next
// session that needs it), so Demote returns 0 and MakeSpace falls through
// to eviction.
type globalPool struct{ s *SharedCache }

func (p globalPool) Name() string            { return GlobalPoolName }
func (p globalPool) Used() int64             { return p.s.bytesStored.Load() }
func (p globalPool) Budget() int64           { return p.s.conf.Budget }
func (p globalPool) Evict(need int64) int64  { return p.s.evictAtLeast(nil, need) }
func (p globalPool) Demote(need int64) int64 { return 0 }

// tenantPool is the arbiter view of one tenant's budgeted share. Eviction
// is oldest-first within the tenant's own entries, keeping non-overlapping
// tenants decoupled (the per-tenant determinism guarantee).
type tenantPool struct {
	s    *SharedCache
	acct *tenantAccount
}

func (p tenantPool) Name() string            { return p.acct.pool }
func (p tenantPool) Used() int64             { return p.acct.usage.Load() }
func (p tenantPool) Budget() int64           { return p.s.conf.TenantBudget }
func (p tenantPool) Evict(need int64) int64  { return p.s.evictAtLeast(p.acct, need) }
func (p tenantPool) Demote(need int64) int64 { return 0 }
