package serve

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"memphis/internal/data"
	"memphis/internal/faults"
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

// TestCompileCacheBitwiseProperty is the compile-cache acceptance property:
// for every (worker count, fault plan) combination, running on a cold
// compile cache or on one an identical earlier server warmed (handed to an
// unstarted server) changes neither a single result bit nor a single
// virtual latency. Compilation charges no virtual time and compiled streams
// are pure functions of (program, shapes, config), so cached and uncached
// executions are indistinguishable to tenants.
func TestCompileCacheBitwiseProperty(t *testing.T) {
	const n = 5
	// run serves n requests on a server that compiles through cc, a fresh
	// cache when nil, and returns their latencies, results and the cache.
	run := func(workers int, cc *CompileCache, plan *faults.Plan) ([]float64, []*data.Matrix, *CompileCache) {
		conf := DefaultConfig()
		conf.Workers = workers
		conf.Faults = plan
		srv := newServer(conf)
		warm := cc != nil
		if warm {
			srv.cc = cc
		}
		before := srv.cc.StatsSnapshot()
		srv.startWorkers()
		defer srv.Close()
		w := hcvWorkload()
		opts := SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}}
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
				t.Fatalf("workers=%d warm=%v: request %d failed: %v", workers, warm, i, err)
			}
			vtimes[i] = res.VirtualSeconds
			vals[i] = res.Values["best"]
		}
		st := srv.cc.StatsSnapshot()
		lookups, hits, stores := st.Lookups-before.Lookups, st.Hits-before.Hits, st.Stores-before.Stores
		if !warm && stores == 0 {
			t.Fatalf("workers=%d: the cold side compiled no block", workers)
		} else if warm && (lookups == 0 || hits != lookups || stores != 0) {
			t.Fatalf("workers=%d: the warm side made %d lookups, %d hits, %d stores; want every lookup a hit",
				workers, lookups, hits, stores)
		}
		return vtimes, vals, srv.cc
	}
	for _, plan := range []*faults.Plan{nil, faults.Default(42)} {
		refV, refM, _ := run(1, nil, plan)
		check := func(workers int, warm bool, v []float64, m []*data.Matrix) {
			for i := range v {
				if v[i] != refV[i] {
					t.Fatalf("chaos=%v workers=%d warm=%v: request %d vtime %v != reference %v",
						plan != nil, workers, warm, i, v[i], refV[i])
				}
				if !data.AllClose(m[i], refM[i], 0) {
					t.Fatalf("chaos=%v workers=%d warm=%v: request %d result differs bitwise",
						plan != nil, workers, warm, i)
				}
			}
		}
		for _, workers := range []int{1, 4, 8} {
			v, m, cc := run(workers, nil, plan)
			check(workers, false, v, m)
			v, m, _ = run(workers, cc, plan)
			check(workers, true, v, m)
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
