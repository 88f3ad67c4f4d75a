package serve

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/runtime"
)

// chaosRun runs a faulted serve workload mix: `n` tenants submit the same
// program over identical inputs (so requests conflict and serialize in ticket
// order) under the given plan. It requires every request to succeed — the
// acceptance bar for chaos mode is zero request failures at default
// probabilities — and returns per-ticket virtual latencies, the fetched
// results, and the final snapshot.
func chaosRun(t *testing.T, seed int64, workers, n int) ([]float64, []*data.Matrix, Snapshot) {
	t.Helper()
	conf := DefaultConfig()
	conf.Workers = workers
	conf.Faults = faults.Default(seed)
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		f, err := srv.Submit(fmt.Sprintf("t%d", i), w.Prog,
			SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	vtimes := make([]float64, n)
	vals := make([]*data.Matrix, n)
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("request %d failed under default chaos plan: %v", i, err)
		}
		vtimes[i] = res.VirtualSeconds
		vals[i] = res.Values["best"]
	}
	srv.Close()
	return vtimes, vals, srv.Snapshot()
}

// TestChaosDeterminism is the chaos acceptance test: for several seeds, a
// faulted serve run (a) completes every request via retries and fallbacks,
// (b) replays with bitwise-identical virtual latencies, results, and per-site
// fault counts, and (c) produces the same trace at every worker count.
func TestChaosDeterminism(t *testing.T) {
	for _, seed := range []int64{11, 42, 99} {
		v1, m1, s1 := chaosRun(t, seed, 1, 4)
		v2, m2, s2 := chaosRun(t, seed, 1, 4)
		v4, m4, s4 := chaosRun(t, seed, 4, 4)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("seed %d: replay diverged at request %d: %v != %v", seed, i, v1[i], v2[i])
			}
			if v1[i] != v4[i] {
				t.Fatalf("seed %d: worker count changed request %d latency: %v != %v", seed, i, v1[i], v4[i])
			}
			if !data.AllClose(m1[i], m2[i], 0) || !data.AllClose(m1[i], m4[i], 0) {
				t.Fatalf("seed %d: request %d results differ across runs", seed, i)
			}
		}
		if len(s1.Faults) != len(s2.Faults) || len(s1.Faults) != len(s4.Faults) {
			t.Fatalf("seed %d: fault site sets differ: %v / %v / %v", seed, s1.Faults, s2.Faults, s4.Faults)
		}
		for site, n := range s1.Faults {
			if s2.Faults[site] != n || s4.Faults[site] != n {
				t.Fatalf("seed %d: fault counts at %s differ: %d / %d / %d",
					seed, site, n, s2.Faults[site], s4.Faults[site])
			}
		}
		if s1.Retries != s2.Retries || s1.Retries != s4.Retries {
			t.Fatalf("seed %d: retry counts differ: %d / %d / %d", seed, s1.Retries, s2.Retries, s4.Retries)
		}
	}
}

// missCompileCache is the reference side of the compile-cache property: it
// answers every lookup with a miss, so a session attached to it compiles
// every block on every execution.
type missCompileCache struct{}

func (missCompileCache) LookupCompiled(uint64) (*runtime.CompiledBlock, bool) { return nil, false }
func (missCompileCache) StoreCompiled(_ uint64, cb *runtime.CompiledBlock) *runtime.CompiledBlock {
	return cb
}

// TestCompileCacheBitwiseProperty is the compile-cache acceptance property:
// for every (worker count, fault plan) combination, running on the shared
// compile cache or compiling every block afresh (a Bind hook attaches the
// always-miss cache) changes neither a single result bit nor a single
// virtual latency. Compilation charges no virtual time and compiled streams
// are pure functions of (program, shapes, config), so cached and uncached
// executions are indistinguishable to tenants.
func TestCompileCacheBitwiseProperty(t *testing.T) {
	const n = 5
	run := func(workers int, cache bool, plan *faults.Plan) ([]float64, []*data.Matrix) {
		conf := DefaultConfig()
		conf.Workers = workers
		conf.Faults = plan
		srv := New(conf)
		defer srv.Close()
		w := hcvWorkload()
		opts := SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}}
		if !cache {
			opts.Bind = func(ctx *runtime.Context) { ctx.AttachCompileCache(missCompileCache{}, 0) }
		}
		futs := make([]*Future, n)
		for i := range futs {
			f, err := srv.Submit(fmt.Sprintf("t%d", i), w.Prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = f
		}
		vtimes := make([]float64, n)
		vals := make([]*data.Matrix, n)
		for i, f := range futs {
			res, err := f.Wait()
			if err != nil {
				t.Fatalf("workers=%d cache=%v: request %d failed: %v", workers, cache, i, err)
			}
			vtimes[i] = res.VirtualSeconds
			vals[i] = res.Values["best"]
		}
		if st := srv.Snapshot().CompileCache; !cache && st.Lookups != 0 {
			t.Fatalf("workers=%d: the reference side looked up %d blocks in the shared compile cache", workers, st.Lookups)
		} else if cache && st.Lookups == 0 {
			t.Fatalf("workers=%d: the cached side never used the shared compile cache", workers)
		}
		return vtimes, vals
	}
	for _, plan := range []*faults.Plan{nil, faults.Default(42)} {
		refV, refM := run(1, false, plan)
		for _, workers := range []int{1, 4, 8} {
			for _, cache := range []bool{false, true} {
				v, m := run(workers, cache, plan)
				for i := range v {
					if v[i] != refV[i] {
						t.Fatalf("chaos=%v workers=%d cache=%v: request %d vtime %v != reference %v",
							plan != nil, workers, cache, i, v[i], refV[i])
					}
					if !data.AllClose(m[i], refM[i], 0) {
						t.Fatalf("chaos=%v workers=%d cache=%v: request %d result differs bitwise",
							plan != nil, workers, cache, i)
					}
				}
			}
		}
	}
}

// TestChaosMatchesFaultFreeResults: the faulted mix computes the same answers
// as a fault-free run — every injected failure is absorbed by a recovery
// path, never by serving a wrong result.
func TestChaosMatchesFaultFreeResults(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 1
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	f, err := srv.Submit("clean", w.Prog, SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	_, vals, _ := chaosRun(t, 1234, 2, 3)
	for i, m := range vals {
		if !data.AllClose(clean.Values["best"], m, 0) {
			t.Fatalf("faulted request %d result differs from fault-free result", i)
		}
	}
}

// TestInjectedWorkerFaultRetries: a scripted serve.request crash on the first
// request fails two attempts; the retry loop absorbs both, charges backoff
// virtual time, and reports the retries in the result and snapshot.
func TestInjectedWorkerFaultRetries(t *testing.T) {
	run := func(plan *faults.Plan) (*Result, Snapshot, error) {
		conf := DefaultConfig()
		conf.Workers = 1
		conf.Faults = plan
		srv := New(conf)
		defer srv.Close()
		w := hcvWorkload()
		f, err := srv.Submit("a", w.Prog, SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Wait()
		srv.Close()
		return res, srv.Snapshot(), err
	}
	clean, _, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, snap, err := run(&faults.Plan{Seed: 5, Sites: map[faults.Site]faults.Trigger{
		faults.ServeRequest: {Nth: []int64{1}, Attempts: 2},
	}})
	if err != nil {
		t.Fatalf("request must succeed on its third attempt: %v", err)
	}
	if res.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", res.Retries)
	}
	if res.VirtualSeconds <= clean.VirtualSeconds {
		t.Fatalf("retried request must pay backoff: %v <= %v", res.VirtualSeconds, clean.VirtualSeconds)
	}
	if !data.AllClose(res.Values["best"], clean.Values["best"], 0) {
		t.Fatal("retried result differs from clean result")
	}
	if snap.Retries != 2 || snap.Faults["serve.request"] != 2 {
		t.Fatalf("snapshot accounting wrong: retries=%d faults=%v", snap.Retries, snap.Faults)
	}
	if snap.Failed != 0 {
		t.Fatalf("no request may fail, got %d", snap.Failed)
	}
}

// TestRequestFailsPastMaxRetries: a crash scripted for more attempts than the
// retry budget fails the request (and only that request).
func TestRequestFailsPastMaxRetries(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 1
	conf.Faults = &faults.Plan{Seed: 5, Sites: map[faults.Site]faults.Trigger{
		faults.ServeRequest: {Nth: []int64{1}, Attempts: 5},
	}}
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	f, err := srv.Submit("a", w.Prog, SubmitOptions{Inputs: w.HostInputs()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); err == nil {
		t.Fatalf("request scripted to fail 5 attempts must not succeed with %d retries", maxRetries)
	}
	// The server survives: an unfaulted second request (ticket 2) completes.
	f2, err := srv.Submit("a", w.Prog, SubmitOptions{Inputs: w.HostInputs()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Wait(); err != nil {
		t.Fatalf("post-failure request must succeed: %v", err)
	}
	srv.Close()
	if snap := srv.Snapshot(); snap.Failed != 1 || snap.Completed != 2 {
		t.Fatalf("failed=%d completed=%d, want 1/2", snap.Failed, snap.Completed)
	}
}

// TestShedThreshold: once the queue reaches the shed threshold, new
// submissions are rejected with ErrOverloaded instead of queueing.
func TestShedThreshold(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 1
	conf.ShedThreshold = 1
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	inputs := w.HostInputs()
	// A blocks inside its Bind hook until released, pinning the single
	// worker, so B is guaranteed to sit in the queue when C arrives.
	hold := make(chan struct{})
	started := make(chan struct{})
	if _, err := srv.Submit("a", trivialProg(), SubmitOptions{Bind: func(*runtime.Context) {
		close(started)
		<-hold
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := srv.Submit("b", w.Prog, SubmitOptions{Inputs: inputs}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("c", w.Prog, SubmitOptions{Inputs: inputs}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(hold)
	srv.Close()
	if snap := srv.Snapshot(); snap.Shed != 1 || snap.Rejected != 1 {
		t.Fatalf("shed=%d rejected=%d, want 1/1", snap.Shed, snap.Rejected)
	}
}

// TestDegradedShardsRecompute: with every shared-cache shard disabled,
// sessions get no cross-tenant hits — they recompute instead of failing —
// and the degradation is visible in the stats.
func TestDegradedShardsRecompute(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 1
	conf.Shared.Shards = 4
	conf.DisabledShards = []int{0, 1, 2, 3}
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	fa, err := srv.Submit("alice", w.Prog, SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := fa.Wait()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := srv.Submit("bob", w.Prog, SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := fb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rb.Stats.SharedHits != 0 {
		t.Fatalf("disabled shards must not serve hits, got %d", rb.Stats.SharedHits)
	}
	if !data.AllClose(ra.Values["best"], rb.Values["best"], 0) {
		t.Fatal("degraded mode changed a result")
	}
	srv.Close()
	snap := srv.Snapshot()
	if snap.Shared.DisabledShards != 4 || snap.Shared.DegradedProbes == 0 {
		t.Fatalf("degradation not visible: %+v", snap.Shared)
	}
	// Re-enabling a shard brings it back.
	srv.shared.SetShardEnabled(2, true)
	if n := srv.shared.StatsSnapshot().DisabledShards; n != 3 {
		t.Fatalf("DisabledShards = %d after re-enable, want 3", n)
	}
}

// TestCloseLeavesNoWorkerGoroutines: Server.Close under in-flight faulted
// requests drains everything and leaves no worker goroutines behind.
func TestCloseLeavesNoWorkerGoroutines(t *testing.T) {
	// Warm up process-wide pools (the dense kernel layer keeps persistent
	// workers) so the baseline goroutine count is stable.
	{
		conf := DefaultConfig()
		conf.Workers = 2
		srv := New(conf)
		w := hcvWorkload()
		f, err := srv.Submit("warm", w.Prog, SubmitOptions{Inputs: w.HostInputs()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	base := goruntime.NumGoroutine()

	conf := DefaultConfig()
	conf.Workers = 4
	plan := faults.Default(7)
	plan.Sites[faults.ServeRequest] = faults.Trigger{Probability: 0.5}
	conf.Faults = plan
	srv := New(conf)
	w := hcvWorkload()
	futs := make([]*Future, 6)
	for i := range futs {
		f, err := srv.Submit(fmt.Sprintf("t%d", i), w.Prog, SubmitOptions{Inputs: w.HostInputs()})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	// Close while requests are still in flight: it must drain the queue,
	// finish (or fail) every request, and stop all workers.
	srv.Close()
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("request %d not resolved after Close", i)
		}
	}
	for i := 0; i < 100 && goruntime.NumGoroutine() > base; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after Close\n%s",
			base, n, buf[:goruntime.Stack(buf, true)])
	}
}
