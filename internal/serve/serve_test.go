package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/ir"
	"memphis/internal/lineage"
	"memphis/internal/runtime"
	"memphis/internal/workloads"
)

// hcvWorkload builds a small grid-search cross-validation pipeline; fresh per
// server because program rewrites mutate the ir.Program in place.
func hcvWorkload() *workloads.Workload {
	return workloads.HCV(64, 8, 2, []float64{1e-3, 1e-2, 1e-1}, 7)
}

// runPair submits the same workload for two tenants (fresh inputs each, same
// seed, so contents are identical) and returns both results plus the final
// snapshot. When concurrent is false the first request completes before the
// second is even submitted — the serial-replay baseline.
func runPair(t *testing.T, workers int, concurrent bool) (*Result, *Result, Snapshot) {
	t.Helper()
	conf := DefaultConfig()
	conf.Workers = workers
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	fa, err := srv.Submit("alice", w.Prog, SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	if !concurrent {
		if _, err := fa.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	fb, err := srv.Submit("bob", w.Prog, SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	ra, errA := fa.Wait()
	rb, errB := fb.Wait()
	if errA != nil {
		t.Fatal(errA)
	}
	if errB != nil {
		t.Fatal(errB)
	}
	srv.Close()
	return ra, rb, srv.Snapshot()
}

// TestCrossTenantReuseDeterministic is the tentpole acceptance test: two
// tenants submitting the same program concurrently must report exactly the
// per-session virtual times of a serial replay, with the second tenant
// hitting the shared cache.
func TestCrossTenantReuseDeterministic(t *testing.T) {
	serA, serB, _ := runPair(t, 1, false)
	conA, conB, snap := runPair(t, 4, true)

	if conA.VirtualSeconds != serA.VirtualSeconds {
		t.Fatalf("first tenant: concurrent vtime %v != serial %v", conA.VirtualSeconds, serA.VirtualSeconds)
	}
	if conB.VirtualSeconds != serB.VirtualSeconds {
		t.Fatalf("second tenant: concurrent vtime %v != serial %v", conB.VirtualSeconds, serB.VirtualSeconds)
	}
	if conB.Stats.SharedHits == 0 {
		t.Fatal("second tenant must hit the shared cache")
	}
	if conB.VirtualSeconds >= conA.VirtualSeconds {
		t.Fatalf("cross-tenant reuse must shorten the second request: %v >= %v",
			conB.VirtualSeconds, conA.VirtualSeconds)
	}
	if snap.Shared.CrossTenantHits == 0 || snap.Shared.CrossTenantHitRatio <= 0 {
		t.Fatalf("expected cross-tenant hits, got %+v", snap.Shared)
	}
	if !data.AllClose(conA.Values["best"], serA.Values["best"], 0) ||
		!data.AllClose(conB.Values["best"], serB.Values["best"], 0) {
		t.Fatal("concurrent results must be bitwise identical to serial results")
	}
	if !data.AllClose(conA.Values["best"], conB.Values["best"], 0) {
		t.Fatal("both tenants computed the same program over the same data")
	}
}

// ridgeProg is an inline (function-free) ridge grid over X and y.
func ridgeProg() *ir.Program {
	p := ir.NewProgram()
	p.Main = []ir.Block{
		ir.For("lambda", []float64{0.1, 0.5}, ir.BB(
			ir.Assign("G", ir.TSMM(ir.Var("X"))),
			ir.Assign("b", ir.MatMul(ir.T(ir.Var("X")), ir.Var("y"))),
			ir.Assign("beta", ir.Solve(ir.Add(ir.Var("G"), ir.Var("lambda")), ir.Var("b"))),
		)),
	}
	return p
}

func ridgeInputs(seed int64) map[string]*data.Matrix {
	return map[string]*data.Matrix{
		"X": data.RandNorm(96, 6, 0, 1, seed),
		"y": data.RandNorm(96, 1, 0, 1, seed+100),
	}
}

// TestDifferentContentNeverAliases is the soundness test: two tenants bind
// DIFFERENT data under the SAME variable names. Content signatures keep their
// entries apart — no cross-tenant hits, and each tenant's answer matches its
// own single-tenant run. Because their input sets do not overlap, the
// requests genuinely run in parallel.
func TestDifferentContentNeverAliases(t *testing.T) {
	expected := make(map[int64]*data.Matrix)
	for _, seed := range []int64{1, 2} {
		conf := DefaultConfig()
		conf.Workers = 1
		solo := New(conf)
		f, err := solo.Submit("solo", ridgeProg(), SubmitOptions{Inputs: ridgeInputs(seed), Fetch: []string{"beta"}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		expected[seed] = r.Values["beta"]
		solo.Close()
	}

	conf := DefaultConfig()
	conf.Workers = 2
	srv := New(conf)
	defer srv.Close()
	prog := ridgeProg()
	type sub struct {
		fut  *Future
		seed int64
	}
	var subs []sub
	for round := 0; round < 3; round++ {
		for i, seed := range []int64{1, 2} {
			f, err := srv.Submit(fmt.Sprintf("tenant-%d", i), prog,
				SubmitOptions{Inputs: ridgeInputs(seed), Fetch: []string{"beta"}})
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub{f, seed})
		}
	}
	for _, s := range subs {
		r, err := s.fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !data.AllClose(r.Values["beta"], expected[s.seed], 0) {
			t.Fatalf("tenant with seed %d got a wrong beta: shared entries aliased", s.seed)
		}
	}
	srv.Close()
	snap := srv.Snapshot()
	if snap.Shared.CrossTenantHits != 0 {
		t.Fatalf("identical names over different data must never alias: %d cross hits",
			snap.Shared.CrossTenantHits)
	}
	// Each tenant's own repeated submissions do reuse its own entries.
	if snap.Shared.Hits == 0 {
		t.Fatal("repeated identical requests should hit the shared cache")
	}
}

// TestServerRaceSoakManyTenants exercises the acceptance criterion that
// `go test -race ./internal/serve/...` passes with at least 8 concurrent
// tenants: 10 tenants in two input groups hammer an 8-worker pool.
func TestServerRaceSoakManyTenants(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 8
	conf.Shared.Budget = 32 << 20
	conf.Shared.TenantBudget = 4 << 20
	srv := New(conf)
	defer srv.Close()

	const tenants, perTenant = 10, 3
	groups := []*workloads.Workload{
		workloads.L2SVMMicro(48, 6, 2, []float64{0.1, 0.2}, 11),
		workloads.L2SVMMicro(48, 6, 2, []float64{0.1, 0.2}, 22),
	}
	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for i := 0; i < tenants; i++ {
		w := groups[i%len(groups)]
		tenant := fmt.Sprintf("tenant-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perTenant; j++ {
				f, err := srv.Submit(tenant, w.Prog, SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"acc"}})
				if err != nil {
					errs <- err
					return
				}
				if _, err := f.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Close()
	snap := srv.Snapshot()
	if snap.Completed != tenants*perTenant || snap.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", snap.Completed, snap.Failed, tenants*perTenant)
	}
	// Five tenants share each input group, so cross-tenant reuse must occur.
	if snap.Shared.CrossTenantHits == 0 {
		t.Fatal("tenants in the same input group must reuse each other's results")
	}
	if snap.Shared.BytesStored > conf.Shared.Budget {
		t.Fatalf("shared cache overran its budget: %d > %d", snap.Shared.BytesStored, conf.Shared.Budget)
	}
}

func trivialProg() *ir.Program {
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(ir.Assign("z", ir.Lit(1)))}
	return p
}

// TestAdmissionControl submits to a server whose worker has not started,
// so every request stays queued, and verifies the per-tenant and
// queue-depth rejections.
func TestAdmissionControl(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 1
	conf.MaxQueue = 3
	conf.MaxPerTenant = 2
	srv := newServer(conf)

	var futs []*Future
	for i := 0; i < 2; i++ {
		f, err := srv.Submit("t", trivialProg(), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if _, err := srv.Submit("t", trivialProg(), SubmitOptions{}); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("third in-flight request for one tenant: got %v, want ErrTenantLimit", err)
	}
	f, err := srv.Submit("u", trivialProg(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	futs = append(futs, f)
	if _, err := srv.Submit("v", trivialProg(), SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: got %v, want ErrQueueFull", err)
	}

	srv.startWorkers()
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if _, err := srv.Submit("t", trivialProg(), SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: got %v, want ErrClosed", err)
	}
	if snap := srv.Snapshot(); snap.Rejected != 2 {
		t.Fatalf("rejected=%d, want 2", snap.Rejected)
	}
}

// TestAdmissionMapsForgetDrainedTenants: once every request of many
// distinct tenants has run or been delivered as a coalesced follower (one
// that waited for its leader, or one that joined after it finished), the
// admission maps hold no tenant. They used to keep a key for every tenant
// ever seen.
func TestAdmissionMapsForgetDrainedTenants(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 1
	conf.Coalesce = true
	srv := newServer(conf)
	defer srv.Close()
	// The worker starts after the submissions: each below queues or joins
	// a group.
	const tenants = 48
	var futs []*Future
	for i := 0; i < tenants; i++ {
		// Equal programs and inputs: the first leads a coalesce group, the
		// rest join it as followers.
		f, err := srv.Submit(fmt.Sprintf("tenant-%d", i), trivialProg(), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < tenants; i++ {
		// A distinct input per tenant: each request queues on its own.
		in := map[string]*data.Matrix{"X": data.Fill(1, 1, float64(i))}
		f, err := srv.Submit(fmt.Sprintf("queued-%d", i), trivialProg(), SubmitOptions{Inputs: in})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	srv.startWorkers()
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The group's leader has finished: this follower is served inside Submit.
	late, err := srv.Submit("late", trivialProg(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := late.Wait(); err != nil || !res.Coalesced {
		t.Fatalf("late joiner not served as a follower: %v", err)
	}
	srv.Close()
	if snap := srv.Snapshot(); snap.Coalesced != tenants || snap.Completed != 2*tenants+1 {
		t.Fatalf("%d coalesced, %d completed: want %d and %d", snap.Coalesced, snap.Completed, tenants, 2*tenants+1)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.tenantLoad) != 0 || len(srv.tenantActive) != 0 {
		t.Fatalf("after draining %d tenants the admission maps hold %d and %d keys, want 0 and 0",
			2*tenants+1, len(srv.tenantLoad), len(srv.tenantActive))
	}
}

// TestSharedCacheTenantBudgetEviction publishes past a tenant's budget and
// checks FIFO (oldest-first) eviction confined to that tenant.
func TestSharedCacheTenantBudgetEviction(t *testing.T) {
	sc := NewSharedCache(SharedConfig{Shards: 4, Budget: 64 << 10, TenantBudget: 8 << 10})
	m := data.RandNorm(32, 16, 0, 1, 3) // 4 KB
	items := make([]*lineage.Item, 6)
	for i := range items {
		items[i] = lineage.NewItem("tsmm", "", lineage.NewLeaf("read", fmt.Sprintf("X%d", i)))
		if _, stored := sc.Publish("a", items[i], uint64(i+1), m, 1.0); !stored {
			t.Fatalf("publish %d rejected", i)
		}
	}
	st := sc.StatsSnapshot()
	if got := st.PerTenant["a"].Bytes; got > 8<<10 {
		t.Fatalf("tenant bytes %d exceed the 8KB budget", got)
	}
	if st.Evictions != 4 || sc.bytesStored.Load() != 8<<10 || st.Entries != 2 {
		t.Fatalf("evictions=%d bytes=%d entries=%d, want 4/8192/2", st.Evictions, sc.bytesStored.Load(), st.Entries)
	}
	if _, _, _, ok := sc.Probe("a", items[5], 6); !ok {
		t.Fatal("newest entry must survive")
	}
	if _, _, _, ok := sc.Probe("a", items[0], 1); ok {
		t.Fatal("oldest entry must be evicted first")
	}

	// A second tenant hitting the survivor counts as a cross-tenant hit and
	// receives a private clone.
	got, cost, charge, ok := sc.Probe("b", items[5], 6)
	if !ok || cost != 1.0 {
		t.Fatalf("cross-tenant probe: ok=%v cost=%v", ok, cost)
	}
	if charge <= sc.model.Probe {
		t.Fatal("a hit must also charge the transfer of the object")
	}
	if got == m || &got.Data[0] == &m.Data[0] {
		t.Fatal("probe must return a private clone, never shared storage")
	}
	if !data.AllClose(got, m, 0) {
		t.Fatal("clone content mismatch")
	}
	if st := sc.StatsSnapshot(); st.CrossTenantHits != 1 {
		t.Fatalf("cross hits=%d, want 1", st.CrossTenantHits)
	}

	// Objects larger than the tenant budget are refused outright.
	big := data.RandNorm(64, 32, 0, 1, 4) // 16 KB
	if _, stored := sc.Publish("a", lineage.NewLeaf("read", "big"), 99, big, 1.0); stored {
		t.Fatal("oversized publish must be refused")
	}

	sc.Clear()
	if sc.bytesStored.Load() != 0 || sc.StatsSnapshot().Entries != 0 {
		t.Fatal("Clear must drop everything")
	}
}

// TestSharedCacheGlobalBudget overcommits tenant budgets and checks the
// global backstop evicts the globally oldest entry.
func TestSharedCacheGlobalBudget(t *testing.T) {
	sc := NewSharedCache(SharedConfig{Shards: 2, Budget: 8 << 10, TenantBudget: 8 << 10})
	m := data.RandNorm(32, 16, 0, 1, 5) // 4 KB
	item := lineage.NewItem("tsmm", "", lineage.NewLeaf("read", "X"))
	for i, tenant := range []string{"a", "b", "c"} {
		if _, stored := sc.Publish(tenant, item, uint64(i+1), m, 1.0); !stored {
			t.Fatalf("publish by %s rejected", tenant)
		}
	}
	if sc.bytesStored.Load() > 8<<10 {
		t.Fatalf("global budget overrun: %d", sc.bytesStored.Load())
	}
	if _, _, _, ok := sc.Probe("a", item, 1); ok {
		t.Fatal("globally oldest entry must have been evicted")
	}
	for i, tenant := range []string{"b", "c"} {
		if _, _, _, ok := sc.Probe(tenant, item, uint64(i+2)); !ok {
			t.Fatalf("%s's entry must survive", tenant)
		}
	}
}

// TestSharedCachePoolStats drives tenant-budget evictions and checks the
// arbiter surface: the global pool row first, then per-tenant rows with
// truthful pressure/eviction counters.
func TestSharedCachePoolStats(t *testing.T) {
	sc := NewSharedCache(SharedConfig{Shards: 4, Budget: 64 << 10, TenantBudget: 8 << 10})
	m := data.RandNorm(32, 16, 0, 1, 3) // 4 KB
	for i := 0; i < 6; i++ {
		item := lineage.NewItem("tsmm", "", lineage.NewLeaf("read", fmt.Sprintf("X%d", i)))
		if _, stored := sc.Publish("a", item, uint64(i+1), m, 1.0); !stored {
			t.Fatalf("publish %d rejected", i)
		}
	}
	st := sc.StatsSnapshot()
	if len(st.Pools) != 2 || st.Pools[0].Name != GlobalPoolName {
		t.Fatalf("pools %v, want [shared tenant:a]", st.Pools)
	}
	ta := st.Pools[1]
	if ta.Name != TenantPoolName("a") {
		t.Fatalf("tenant pool name %q", ta.Name)
	}
	if ta.Used != 8<<10 || ta.Budget != 8<<10 || ta.Pressure != 1.0 {
		t.Fatalf("tenant pool used=%d budget=%d pressure=%v", ta.Used, ta.Budget, ta.Pressure)
	}
	// Four publishes went over budget; each evicted exactly one 4KB entry.
	if ta.PressureEvents != 4 || ta.Evictions != 4 || ta.EvictedBytes != 16<<10 {
		t.Fatalf("tenant counters %+v, want 4 pressure / 4 evictions / 16KB", ta.Counters)
	}
	if ta.Demotions != 0 {
		t.Fatalf("serve pools have no lower tier, got %d demotions", ta.Demotions)
	}
	// Global pool: no pressure (64KB budget), but every eviction is also a
	// departure from the shared level.
	gl := st.Pools[0]
	if gl.Used != 8<<10 || gl.PressureEvents != 0 || gl.Evictions != 4 {
		t.Fatalf("global pool %+v", gl)
	}
}

// TestServerChargesSharedCacheWithItsModel: the server resolves one cost
// model (the session template's, else the default) and its shared cache
// charges with it; a cache built on its own charges with the default.
func TestServerChargesSharedCacheWithItsModel(t *testing.T) {
	if got, want := *NewSharedCache(SharedConfig{}).model, *costs.Default(); got != want {
		t.Fatalf("a lone shared cache charges with %+v, want the default model", got)
	}
	conf := DefaultConfig()
	model := costs.Default()
	model.Probe *= 3
	conf.Runtime.Model = model
	srv := New(conf)
	defer srv.Close()
	if srv.shared.model != model {
		t.Fatal("the server's shared cache does not charge with the session template's model")
	}
	plain := New(DefaultConfig())
	defer plain.Close()
	if plain.shared.model != plain.model || *plain.model != *costs.Default() {
		t.Fatal("with no template model, the server and its shared cache do not share the default model")
	}
}

// TestSharedPublishOfTransposeResult: a CP transpose binds a deferred value
// (no buffer) in the producing session; publishing it to the shared cache
// must hand over the built matrix, so a second tenant with the same input
// hits it and reads t(X) bit for bit.
func TestSharedPublishOfTransposeResult(t *testing.T) {
	prog := func() *ir.Program {
		p := ir.NewProgram()
		p.Main = []ir.Block{ir.BB(
			ir.Assign("Xt", ir.T(ir.Var("X"))),
			ir.Assign("g", ir.MatMul(ir.Var("Xt"), ir.Var("y"))),
		)}
		return p
	}
	conf := DefaultConfig()
	conf.Workers = 1
	srv := New(conf)
	defer srv.Close()
	in := ridgeInputs(5)
	want := data.Transpose(in["X"])
	for i, tenant := range []string{"producer", "consumer"} {
		f, err := srv.Submit(tenant, prog(), SubmitOptions{Inputs: ridgeInputs(5), Fetch: []string{"Xt", "g"}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !data.AllClose(r.Values["Xt"], want, 0) {
			t.Fatalf("request %d: Xt is not t(X)", i)
		}
		if !data.AllClose(r.Values["g"], data.MatMul(want, in["y"]), 0) {
			t.Fatalf("request %d: g is not t(X) %%*%% y", i)
		}
	}
	srv.Close()
	if snap := srv.Snapshot(); snap.Shared.CrossTenantHits < 2 {
		t.Fatalf("consumer did not hit the producer's published t and mm results: %+v", snap.Shared)
	}
}

// TestAdmissionFingerprintsMatchBindHost: the sums Submit computes before
// taking the lock and hands to the session are the ones BindHost computes
// for itself, per input and end to end — a session that binds the same
// inputs through BindHost finds every entry a served request published, and
// a served request whose sums were handed over finds them too, at the same
// virtual cost.
func TestAdmissionFingerprintsMatchBindHost(t *testing.T) {
	w := hcvWorkload()
	inputs := w.HostInputs()
	in := hashInputs(inputs)
	if len(in.names) != len(inputs) || !sort.StringsAreSorted(in.names) {
		t.Fatalf("names %v: want all %d inputs, sorted", in.names, len(inputs))
	}
	for i, n := range in.names {
		if in.sums[i] != inputs[n].Fingerprint() {
			t.Fatalf("input %s: admission sum %016x, Fingerprint %016x", n, in.sums[i], inputs[n].Fingerprint())
		}
		if in.sums[i] != inputs[n].Clone().Fingerprint() {
			t.Fatalf("input %s: a copy fingerprints differently", n)
		}
	}

	conf := DefaultConfig()
	conf.Workers = 1
	srv := New(conf)
	defer srv.Close()
	serve := func(tenant string) *Result {
		fut, err := srv.Submit(tenant, w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if first := serve("alice"); first.Stats.SharedPuts == 0 {
		t.Fatal("the first request published nothing")
	}
	serve("bob") // publishes what alice's own session cache kept from the shared level
	handed := serve("dave")

	ctx := runtime.New(conf.Runtime)
	defer ctx.Close()
	ctx.AttachShared(srv.shared, "carol")
	workloads.BindHostInputs(ctx, inputs)
	if err := ctx.RunProgram(w.Prog); err != nil {
		t.Fatal(err)
	}
	if handed.Stats.SharedHits == 0 || ctx.Stats.SharedHits != handed.Stats.SharedHits ||
		ctx.Stats.SharedProbes != handed.Stats.SharedProbes {
		t.Fatalf("BindHost session: %d hits / %d probes; handed-over request: %d / %d",
			ctx.Stats.SharedHits, ctx.Stats.SharedProbes, handed.Stats.SharedHits, handed.Stats.SharedProbes)
	}
	if ctx.Clock.Now() != handed.VirtualSeconds {
		t.Fatalf("BindHost session took %v virtual seconds, handed-over request %v", ctx.Clock.Now(), handed.VirtualSeconds)
	}
}
