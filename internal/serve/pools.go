package serve

// GlobalPoolName is the arbiter pool name of the whole shared cache.
const GlobalPoolName = "shared"

// TenantPoolName returns the arbiter pool name of one tenant's share.
func TenantPoolName(tenant string) string { return "tenant:" + tenant }

// evictAtLeast is MAKE_SPACE on one pool: it notes a pressure event on the
// meter of acct's pool (nil: the whole cache's), then drops oldest-first
// from that pool until need bytes are freed or nothing is left, and returns
// the bytes freed. There is no lower tier: a dropped entry is recomputed by
// the next session that needs it.
func (s *SharedCache) evictAtLeast(acct *tenantAccount, need int64) int64 {
	if acct == nil {
		s.global.NotePressure()
	} else {
		acct.meter.NotePressure()
	}
	var freed int64
	for freed < need {
		n := s.evictNext(acct)
		if n == 0 {
			break
		}
		freed += n
	}
	return freed
}

// globalPool is the arbiter's report-only view of the whole shared cache;
// Publish relieves it through evictAtLeast.
type globalPool struct{ s *SharedCache }

func (p globalPool) Name() string  { return GlobalPoolName }
func (p globalPool) Used() int64   { return p.s.bytesStored.Load() }
func (p globalPool) Budget() int64 { return p.s.conf.Budget }

// tenantPool is the arbiter's report-only view of one tenant's budgeted
// share. Eviction is oldest-first within the tenant's own entries, keeping
// non-overlapping tenants decoupled (the per-tenant determinism guarantee).
type tenantPool struct {
	s    *SharedCache
	acct *tenantAccount
}

func (p tenantPool) Name() string  { return p.acct.pool }
func (p tenantPool) Used() int64   { return p.acct.usage.Load() }
func (p tenantPool) Budget() int64 { return p.s.conf.TenantBudget }
