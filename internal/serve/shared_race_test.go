package serve

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"memphis/internal/data"
	"memphis/internal/lineage"
)

// TestSnapshotDuringTenantRegistration is the -race regression test for the
// shared-cache stats read path: Snapshot (which walks the memory arbiter's
// pool list) runs concurrently with first-touch tenant-pool registration
// and publish-driven eviction pressure.
func TestSnapshotDuringTenantRegistration(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 4
	// A tight shared budget keeps eviction (and the pressure and eviction
	// notes on the pools' meters) active on the publish path while new
	// tenants register.
	conf.Shared.Budget = 64 << 10
	conf.Shared.TenantBudget = 16 << 10
	srv := New(conf)
	defer srv.Close()

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				_ = len(snap.Shared.Pools)
				_ = srv.Shared().StatsSnapshot()
			}
		}()
	}

	// Every tenant is new: each first publish registers a fresh pool with
	// the arbiter while the pollers walk it.
	w := hcvWorkload()
	const tenants = 12
	futs := make([]*Future, tenants)
	for i := range futs {
		f, err := srv.Submit(fmt.Sprintf("tenant-%d", i), w.Prog,
			SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	close(stop)
	pollers.Wait()
}

// TestConcurrentFirstTouchRegistersOnce races the first publishes of each
// tenant: every worker touches the tenants in the same order, so each
// tenant's first touch is contended. Each tenant's pool is registered once,
// so the arbiter shows one tenant:<name> row per tenant, and its counters
// add up to the cache's own.
func TestConcurrentFirstTouchRegistersOnce(t *testing.T) {
	const workers, tenants, rounds = 8, 32, 4
	sc := NewSharedCache(SharedConfig{Shards: 4, Budget: 1 << 20, TenantBudget: 8 << 10})
	m := data.RandNorm(16, 16, 0, 1, 1) // 2 KB: a tenant holds four
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for tn := 0; tn < tenants; tn++ {
					item := lineage.NewItem("op", "", lineage.NewLeaf("read", fmt.Sprintf("X%d-%d", w, r)))
					sc.Publish(fmt.Sprintf("t%d", tn), item, 1, m, 1.0)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	st := sc.StatsSnapshot()
	if len(st.Pools) != 1+tenants || st.Pools[0].Name != GlobalPoolName {
		t.Fatalf("%d pool rows, want the global one and %d tenant rows", len(st.Pools), tenants)
	}
	size := m.SizeBytes()
	var evictions int64
	for _, row := range st.Pools[1:] {
		tn, ok := st.PerTenant[row.Name[len("tenant:"):]]
		if !ok || row.Name != TenantPoolName(row.Name[len("tenant:"):]) {
			t.Fatalf("row %q names no tenant", row.Name)
		}
		if row.Evictions != tn.Evictions || row.EvictedBytes != tn.Evictions*size || row.Used != tn.Bytes {
			t.Fatalf("row %+v disagrees with the tenant's own %+v", row, tn)
		}
		evictions += row.Evictions
	}
	if gl := st.Pools[0]; evictions != st.Evictions || gl.Evictions != st.Evictions || gl.Used != st.BytesStored {
		t.Fatalf("tenant rows evicted %d, global row %+v, cache %d evictions and %d B", evictions, gl, st.Evictions, st.BytesStored)
	}
}

// TestConcurrentPublishersKeepTenantBudgetExact races publishers whose every
// publish fits once the oldest entries go, so none may be refused, however
// the publishers interleave, and no tenant may end over its budget. Two
// cases: 8 publishers of one 8 KB tenant, and 8 publishers of two tenants
// each under a global budget that the 16 tenant budgets overcommit, where
// other tenants' publishes drop a tenant's entries between its budget check
// and its eviction pass.
func TestConcurrentPublishersKeepTenantBudgetExact(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	const publishers, perPublisher, tenantBudget = 8, 2000, 8 << 10
	for _, tc := range []struct {
		name   string
		budget int64
		tenant func(p, i int) string
	}{
		{"one tenant", 1 << 30, func(int, int) string { return "t" }},
		{"overcommitted", 32 << 10, func(p, i int) string { return fmt.Sprintf("t%d", 2*p+i%2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewSharedCache(SharedConfig{Shards: 4, Budget: tc.budget, TenantBudget: tenantBudget})
			m := data.RandNorm(16, 16, 0, 1, 1) // 2 KB: a tenant holds four
			var refused atomic.Int64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					<-start
					for i := 0; i < perPublisher; i++ {
						item := lineage.NewItem("op", "", lineage.NewLeaf("read", fmt.Sprintf("X%d-%d", p, i)))
						if _, stored := sc.Publish(tc.tenant(p, i), item, 1, m, 1.0); !stored {
							refused.Add(1)
						}
					}
				}(p)
			}
			close(start)
			wg.Wait()
			if n := refused.Load(); n != 0 {
				t.Errorf("%d of %d publishes refused, though each fits its budgets", n, publishers*perPublisher)
			}
			for name, tn := range sc.StatsSnapshot().PerTenant {
				if tn.Bytes > tenantBudget {
					t.Errorf("tenant %s holds %d B, over its %d B budget", name, tn.Bytes, tenantBudget)
				}
			}
		})
	}
}
