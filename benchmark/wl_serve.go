package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"memphis/internal/data"
	rt "memphis/internal/runtime"
	"memphis/internal/serve"
	wl "memphis/internal/workloads"
)

// serveWorkload is serve-zipf: a serve.Server configured as
// `memphis-serve -traffic` configures it (compile cache and coalescing on,
// MaxBatch 16, 8 shards) with one worker per core and the shared cache at a
// quarter of the CLI's budgets (16 MB, 4 MB per tenant), driven by one
// generator goroutine that keeps 8 requests outstanding (a closed loop:
// callers that each wait for their reply) and submits them in a fixed,
// seed-drawn order.
//
// 32 tenants with Zipf(1.1) popularity map round-robin (classByRank) onto four
// request classes; tenants of a class fall into two groups that bind the same
// inputs, so the popular tenants coalesce and hit each other's shared-cache
// entries. One request in ten binds an input never seen before, which misses
// everything, publishes, and makes the shared cache evict. The three small
// classes keep admission overhead (two input checksums per request, conflict
// and coalesce keys) dominant; hcv-wide's 1 MB input makes
// data.Matrix.Checksum and the shared-cache copies a visible share.
type serveWorkload struct{}

const (
	serveTenants = 32
	// Four callers per worker. With 32 the loop fills with requests of the
	// slowest class waiting on each other (hcv-wide p50 430 ms), half of all
	// requests then complete at once and half queue, and the median request
	// flips between the two from run to run; throughput is the same.
	serveWindow     = 8
	serveZipfSkew   = 1.1
	serveFreshEvery = 10 // every 10th request of a class binds a never-seen input
	serveGroups     = 2
	// freshVerified is how many never-seen inputs per phase the oracle
	// re-executes; the rest are only checked for failure.
	freshVerified = 16
)

type serveClass struct {
	name  string
	build func(seed int64) *wl.Workload
	fetch string
}

func serveClasses(quick bool) []serveClass {
	wide := 4096
	if quick {
		wide = 256
	}
	return []serveClass{
		{"hcv-small", func(s int64) *wl.Workload { return wl.HCV(96, 8, 3, []float64{1e-3, 1e-2, 1e-1, 1}, s) }, "best"},
		{"l2svm-small", func(s int64) *wl.Workload { return wl.L2SVMMicro(64, 8, 3, []float64{0.01, 0.1, 0.2, 0.5}, s) }, "acc"},
		{"pnmf-small", func(s int64) *wl.Workload { return wl.PNMF(60, 40, 4, 3, s) }, "obj"},
		{"hcv-wide", func(s int64) *wl.Workload { return wl.HCV(wide, 32, 3, []float64{1e-3, 1e-2, 1e-1, 1}, s) }, "best"},
	}
}

// serveRequest is one element of the generated sequence.
type serveRequest struct {
	tenant, class, group int
	fresh                int // >0: the k-th never-seen input
}

func (r serveRequest) key() string { return fmt.Sprintf("%d/%d/%d", r.class, r.group, r.fresh) }

type serveInstance struct {
	classes  []serveClass
	progs    []*wl.Workload              // one shared program per class
	inputs   [][]map[string]*data.Matrix // [class][group]
	srv      *serve.Server
	rng      *rng
	cdf      []float64
	fresh    int
	perClass []int // requests generated so far, by class
}

func (serveWorkload) setup(c config) (instance, error) {
	s := &serveInstance{classes: serveClasses(c.quick), rng: newRNG(c.seed, 3000)}
	s.perClass = make([]int, len(s.classes))
	for ci, cl := range s.classes {
		s.progs = append(s.progs, cl.build(1))
		groups := make([]map[string]*data.Matrix, serveGroups)
		for g := range groups {
			groups[g] = cl.build(seedFor(c.seed, uint64(3100+ci*serveGroups+g))).HostInputs()
			if best, ok := groups[g]["best"]; ok {
				// Both HCV classes start their running maximum at -1e18.
				// Requests sharing any (name, content) input pair serialise,
				// so left alike every hcv-small request would queue behind
				// the hcv-wide ones and a 1 ms class would show 150 ms. A
				// class-specific floor keeps the classes independent.
				groups[g]["best"] = data.Scalar(best.ScalarValue() * float64(ci+2))
			}
		}
		s.inputs = append(s.inputs, groups)
	}
	sum := 0.0
	s.cdf = make([]float64, serveTenants)
	for i := range s.cdf {
		sum += math.Pow(float64(i+1), -serveZipfSkew)
		s.cdf[i] = sum
	}
	for i := range s.cdf {
		s.cdf[i] /= sum
	}
	s.cdf[serveTenants-1] = 1

	conf := serve.DefaultConfig()
	conf.Workers = pinParallelism() // one per core
	conf.Shared.Shards = 8
	// At the CLI's 64 MB / 8 MB the cache takes ~2000 requests to fill, runs
	// 5x slower once it has (every publish then scans its shard for the
	// oldest entry), and a run straddles that cliff at a seed-dependent
	// point. At a quarter it is full and evicting inside the warm-up, so the
	// measured phase is the steady state a long-lived server is in.
	conf.Shared.Budget = 16 << 20
	conf.Shared.TenantBudget = 4 << 20
	conf.Coalesce = true
	conf.MaxBatch = 16
	s.srv = serve.New(conf)

	warm := 500
	if c.quick {
		warm = 24
	}
	ph := newPhase()
	s.drive(ph, nil, func(i int) bool { return i < warm })
	if ph.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %v", ph.failures)
	}
	return s, nil
}

// classByRank is the class the k-th most popular tenant of each four takes.
// pnmf-small gets the most popular ones. Three requests in four are served
// inside Submit (they join a finished coalesce group) for the price of their
// input checksums: 15-20 us for hcv-small and l2svm-small, 50 us for
// pnmf-small, 2 ms for hcv-wide. In this order those are 34 %, 31 % and 9 % of
// all requests, so the median request is in the middle of the pnmf-small ones
// and follows what a Submit costs. In declaration order the first two were
// 50.2 % of all requests and the median sat on the step from 25 to 48 us
// between them and pnmf-small, where it follows the mix instead.
var classByRank = [...]int{2, 0, 1, 3}

func (s *serveInstance) classOf(tenant int) int { return classByRank[tenant%len(classByRank)] }

func (s *serveInstance) nextRequest() serveRequest {
	t := sort.SearchFloat64s(s.cdf, s.rng.float64())
	r := serveRequest{tenant: t, class: s.classOf(t), group: (t / len(s.classes)) % serveGroups}
	// A fixed stride per class, not a coin flip: the one-in-ten share then
	// holds for every class on every seed, so the few expensive hcv-wide
	// misses do not swing a run's totals.
	if s.perClass[r.class]++; s.perClass[r.class]%serveFreshEvery == 0 {
		s.fresh++
		r.fresh = s.fresh
	}
	return r
}

// inputsFor returns the request's input binding: its group's matrices, with
// X replaced by a copy differing in one cell when the request is a fresh one.
func (s *serveInstance) inputsFor(r serveRequest) map[string]*data.Matrix {
	in := s.inputs[r.class][r.group]
	if r.fresh == 0 {
		return in
	}
	out := make(map[string]*data.Matrix, len(in))
	for k, v := range in {
		out[k] = v
	}
	x := in["X"].Clone()
	x.Data[0] += float64(r.fresh) / 1024
	out["X"] = x
	return out
}

// drive submits requests in sequence order while more(i) holds, at most
// serveWindow outstanding, and waits for all of them.
func (s *serveInstance) drive(ph *phase, tr *tracer, more func(i int) bool) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	window := make(chan struct{}, serveWindow)
	for i := 0; more(i); i++ {
		window <- struct{}{}
		r := s.nextRequest()
		in := s.inputsFor(r)
		ph.attempted++
		t0 := time.Now()
		fut, err := s.srv.Submit(fmt.Sprintf("t%03d", r.tenant), s.progs[r.class].Prog, serve.SubmitOptions{
			Inputs: in, Fetch: []string{s.classes[r.class].fetch},
		})
		t1 := time.Now()
		if err != nil {
			<-window
			ph.fail("request %d refused: %v", i, err)
			continue
		}
		select {
		case <-fut.Done():
			// Served inside Submit: no goroutine to wait in, whose start-up
			// and scheduling would be half of the 40 us measured.
			res, err := fut.Wait()
			t2 := time.Now()
			<-window
			mu.Lock()
			s.record(ph, tr, r, i, res, err, t0, t1, t2)
			mu.Unlock()
			continue
		default:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := fut.Wait()
			t2 := time.Now()
			<-window
			mu.Lock()
			defer mu.Unlock()
			s.record(ph, tr, r, i, res, err, t0, t1, t2)
		}()
	}
	wg.Wait()
}

// record books one completed request; the caller holds the phase's lock.
func (s *serveInstance) record(ph *phase, tr *tracer, r serveRequest, op int, res *serve.Result, err error, t0, t1, t2 time.Time) {
	if err != nil || res == nil {
		ph.fail("request %d (%s): %v", op, s.classes[r.class].name, err)
		return
	}
	ms := t2.Sub(t0).Seconds() * 1e3
	ph.wallMS = append(ph.wallMS, ms)
	ph.doneS = append(ph.doneS, t2.Sub(ph.start).Seconds())
	ph.classMS[s.classes[r.class].name] = append(ph.classMS[s.classes[r.class].name], ms)
	ph.vtime += res.VirtualSeconds
	sum := checksumAll(res.Values[s.classes[r.class].fetch])
	if r.fresh == 0 || len(ph.freshSeen) < freshVerified {
		if r.fresh > 0 {
			ph.freshSeen = append(ph.freshSeen, r)
		}
		// Every request of a key runs the same program on the same inputs:
		// a follower's copy, a shared-cache hit and a cold execution must
		// all give the same bits.
		if prev, seen := ph.outputs[r.key()]; seen && prev != sum {
			ph.fail("request %d (%s): result %016x differs from an earlier identical request's %016x", op, r.key(), sum, prev)
		} else {
			ph.outputs[r.key()] = sum
		}
	}
	if !res.Coalesced {
		st, cs := res.Stats, res.Cache
		ph.counts.add(counts{
			"rt.insts": float64(st.Instructions), "rt.cp": float64(st.CPInsts), "rt.sp": float64(st.SPInsts),
			"rt.gpu": float64(st.GPUInsts), "rt.reused": float64(st.Reused),
			"rt.func_calls": float64(st.FuncCalls), "rt.func_reuses": float64(st.FuncReuses),
			"rt.prefetches": float64(st.Prefetches), "rt.broadcasts": float64(st.Broadcasts),
			"rt.checkpoints": float64(st.Checkpoints),
			"core.probes":    float64(cs.Probes), "core.misses": float64(cs.Misses), "core.puts": float64(cs.Puts),
			"core.evictions": float64(cs.EvictionsCP), "core.delayed": float64(cs.DelayedStores),
			"vt.driver": res.VirtualSeconds,
		})
	}
	if tr != nil {
		root := tr.add("request", -1, op, t0, t2)
		tr.add("submit", root, op, t0, t1)
		if res.Coalesced {
			tr.add("coalesce_wait", root, op, t1, t2)
		} else {
			started := t2.Add(-time.Duration(res.WallSeconds * float64(time.Second)))
			if started.Before(t1) {
				started = t1
			}
			tr.add("queue", root, op, t1, started)
			tr.add("exec.request", root, op, started, t2)
		}
	}
}

func (s *serveInstance) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	before := s.srv.Snapshot()
	var am allocMeter
	am.begin()
	ph.start = time.Now()
	s.drive(ph, tr, func(int) bool { return time.Since(ph.start) < d })
	am.end(ph)
	// Requests complete in an order the scheduler chooses, so no prefix of
	// them repeats exactly: the counters cover the whole phase.
	ph.pinned, ph.unordered = len(ph.wallMS), true
	for ci := range s.classes {
		for g := 0; g < serveGroups; g++ {
			ph.pinnedKeys = append(ph.pinnedKeys, serveRequest{class: ci, group: g}.key())
		}
	}
	after := s.srv.Snapshot()

	const mb = 1 << 20
	sh0, sh1 := before.Shared, after.Shared
	ph.counts.add(counts{
		"serve.coalesced_share":   ratio(float64(after.Coalesced-before.Coalesced), float64(after.Submitted-before.Submitted)),
		"serve.shared_hit_ratio":  ratio(float64(sh1.Hits-sh0.Hits), float64(sh1.Probes-sh0.Probes)),
		"serve.cross_tenant_hits": float64(sh1.CrossTenantHits - sh0.CrossTenantHits),
		"serve.shared_evictions":  float64(sh1.Evictions - sh0.Evictions),
		"serve.shared_mb":         float64(sh1.BytesStored) / mb,
		"serve.retries":           float64(after.Retries - before.Retries),
		"serve.rejected":          float64(after.Rejected - before.Rejected),
		"serve.shed":              float64(after.Shed - before.Shed),
	})
	if c0, c1 := before.CompileCache, after.CompileCache; c0 != nil && c1 != nil {
		lookups := float64(c1.Lookups - c0.Lookups)
		ph.counts["serve.compile_cache_hit_rate"] = ratio(lookups-float64(c1.Entries-c0.Entries), lookups)
		ph.counts["serve.compile_cache_entries"] = float64(c1.Entries)
	}
	ph.counts.add(poolCounts(sh1.Pools).minus(poolCounts(sh0.Pools)))
	return ph, nil
}

// verify re-executes every distinct (class, group) input set, and the first
// freshVerified never-seen inputs of each phase, on a no-reuse runtime with
// no server in front of it, and compares the fetched values bit for bit.
func (s *serveInstance) verify(ph *phase) ([]string, float64) {
	var fails []string
	rc := serve.DefaultConfig().Runtime
	rc.Mode = rt.ReuseNone
	oracle := func(r serveRequest) (uint64, error) {
		ctx := rt.New(rc)
		defer ctx.Close()
		wl.BindHostInputs(ctx, s.inputsFor(r))
		w := s.classes[r.class].build(1) // the server rewrote its own copy
		if err := ctx.RunProgram(w.Prog); err != nil {
			return 0, err
		}
		return checksumAll(fetchAll(ctx, []string{s.classes[r.class].fetch})...), nil
	}
	check := func(ph *phase, r serveRequest) {
		got, ok := ph.outputs[r.key()]
		if !ok {
			return
		}
		want, err := oracle(r)
		if err != nil {
			fails = append(fails, fmt.Sprintf("oracle %s: %v", r.key(), err))
		} else if got != want {
			fails = append(fails, fmt.Sprintf("%s (%s): served result %016x differs from the no-reuse run's %016x",
				r.key(), s.classes[r.class].name, got, want))
		}
	}
	for ci := range s.classes {
		for g := 0; g < serveGroups; g++ {
			check(ph, serveRequest{class: ci, group: g})
		}
	}
	for _, r := range ph.freshSeen {
		check(ph, r)
	}
	return fails, 0
}

// probes runs hcv-wide once on a plain session for the lineage and compiler
// probes; its 4096x32 input is also the kernel and checksum shape.
func (s *serveInstance) probes(d time.Duration, ph *phase, out map[string]float64) {
	wide := len(s.classes) - 1
	ctx := rt.New(serve.DefaultConfig().Runtime)
	defer ctx.Close()
	in := s.inputs[wide][0]
	wl.BindHostInputs(ctx, in)
	w := s.classes[wide].build(1)
	rec := newRecordingCache(nil) // the server's own compile cache hands out no streams
	ctx.AttachCompileCache(rec, 0)
	if err := ctx.RunProgram(w.Prog); err != nil {
		return
	}
	env := probeEnv{ctx: ctx, prog: w.Prog, outputs: []string{s.classes[wide].fetch}, streams: rec.sortedStreams(),
		rows: in["X"].Rows, cols: in["X"].Cols, inner: 1, weight: make([]float64, len(s.classes))}
	prev := 0.0
	for t, cum := range s.cdf {
		env.weight[s.classOf(t)] += cum - prev
		prev = cum
	}
	for ci := range s.classes {
		env.requestInputs = append(env.requestInputs, s.inputs[ci][0])
	}
	runProbes(env, d, ph, out)
}

func (s *serveInstance) close() { s.srv.Close() }
