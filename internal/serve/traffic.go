package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/ir"
)

// This file is the deterministic SLO traffic bench: a seeded, Zipf-skewed,
// bursty multi-tenant request stream served at two scales. A *real* phase
// drives a few hundred requests through an actual Server (coalescing and
// the compile cache on) and measures per-class steady-state virtual service
// times; a *virtual* phase then replays 10^5+ arrivals through a
// discrete-event admission simulation parameterized by those measurements.
// Every number in the TrafficReport is a pure function of the seed and the
// configuration — virtual clocks, ticket-space coalescing, and the
// simulation share no wall-clock or scheduler state — so a fixed seed
// yields a byte-identical JSON report on every run, every worker count,
// and under the race detector.

// TrafficClass is one distinct (program, inputs, fetch set) a tenant may
// submit. Requests of the same class resolve to the same compiled plan and
// the same coalesce group key; tenants map onto classes round-robin
// (tenant t submits class t mod len(Classes)).
type TrafficClass struct {
	Name   string
	Prog   *ir.Program
	Inputs map[string]*data.Matrix
	Fetch  []string
}

// TrafficConfig parameterizes the bench. Zero values select the defaults
// noted on each field; the simulation's shape is fixed by the traffic*
// constants below.
type TrafficConfig struct {
	// Seed drives every random choice (tenant popularity draws, burst
	// modulation, arrival gaps) through a splitmix64 stream.
	Seed int64
	// Workload is a label recorded in the report (default "custom").
	Workload string
	// Classes are the distinct request classes (required).
	Classes []TrafficClass
	// Tenants is the tenant-population size (default 32). Tenant
	// popularity is Zipf(trafficZipfSkew)-distributed.
	Tenants int
	// RealRequests is the size of the measured phase: requests actually
	// executed by a Server to obtain per-class virtual service times and
	// real cache statistics (default 192; a warmup request per class runs
	// first and is not counted).
	RealRequests int
	// VirtualRequests is the size of the simulated phase (default 120000).
	VirtualRequests int
}

// The simulated phase's fixed shape.
const (
	// trafficZipfSkew is the skew of tenant popularity.
	trafficZipfSkew = 1.1
	// trafficServers is the simulated worker count W.
	trafficServers = 8
	// trafficLoad is the offered load: the mean arrival rate in calm state
	// is trafficLoad * trafficServers / meanService — deliberate overload,
	// so shedding is exercised.
	trafficLoad = 1.25
	// trafficBurstFactor speeds arrivals up while the burst state is
	// active; trafficBurstOn/trafficBurstOff are the per-arrival
	// probabilities of entering/leaving it.
	trafficBurstFactor = 12
	trafficBurstOn     = 0.02
	trafficBurstOff    = 0.10
	// trafficSLOFactor sets the latency objective: SLO = trafficSLOFactor *
	// the largest per-class service time — just above the worst sojourn a
	// full admission queue allows, so admitted requests generally meet the
	// SLO and shedding is what costs goodput.
	trafficSLOFactor = 4
	// trafficShedDepth sheds a simulated arrival when that many admitted
	// leaders are waiting to start.
	trafficShedDepth = 2 * trafficServers
	// trafficCoalesceWindow and trafficMaxBatch bound a simulated coalesce
	// group in arrival-sequence space. The simulation models its own batch
	// cap: it is not the measured server's MaxBatch.
	trafficCoalesceWindow = 256
	trafficMaxBatch       = 64
)

// TrafficReport is the bench output. It deliberately contains only
// deterministic quantities: virtual times, ticket-space counts, and the
// compile cache's lookup/entry counters (its raw hit/store counters can
// drift by benign double-compiles under races and are excluded).
type TrafficReport struct {
	Seed     int64   `json:"seed"`
	Workload string  `json:"workload"`
	Tenants  int     `json:"tenants"`
	Classes  int     `json:"classes"`
	ZipfSkew float64 `json:"zipf_skew"`

	// Real (measured) phase.
	RealRequests        int     `json:"real_requests"`
	RealCoalesced       int64   `json:"real_coalesced"`
	RealFailed          int64   `json:"real_failed"`
	CompileCacheLookups int64   `json:"compile_cache_lookups"`
	CompileCacheEntries int64   `json:"compile_cache_entries"`
	CompileCacheHitRate float64 `json:"compile_cache_hit_rate"`
	SharedHitRatio      float64 `json:"shared_hit_ratio"`
	CrossTenantHits     int64   `json:"cross_tenant_hits"`
	// ClassService is each class's steady-state virtual execution time
	// (the last non-coalesced request's latency); ClassCopy is the
	// fan-out copy charge a coalesced follower of that class pays.
	ClassService []float64 `json:"class_service_seconds"`
	ClassCopy    []float64 `json:"class_copy_seconds"`

	// Virtual (simulated) phase.
	VirtualRequests  int     `json:"virtual_requests"`
	VirtualServers   int     `json:"virtual_servers"`
	OfferedLoad      float64 `json:"offered_load"`
	SLOSeconds       float64 `json:"slo_seconds"`
	Admitted         int64   `json:"admitted"`
	Shed             int64   `json:"shed"`
	VirtualCoalesced int64   `json:"virtual_coalesced"`
	P50              float64 `json:"p50_virtual_seconds"`
	P99              float64 `json:"p99_virtual_seconds"`
	Goodput          float64 `json:"goodput"`
	VirtualMakespan  float64 `json:"virtual_makespan_seconds"`
}

// trafficRNG is a splitmix64 stream — the same generator the fault layer
// uses, so the bench inherits its replay properties: the n-th draw depends
// only on (seed, stream, n).
type trafficRNG struct{ state uint64 }

func newTrafficRNG(seed int64, stream uint64) *trafficRNG {
	return &trafficRNG{state: splitmix(uint64(seed)) ^ splitmix(stream*0x9e3779b97f4a7c15+1)}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *trafficRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *trafficRNG) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfSampler draws tenant indices from a Zipf(trafficZipfSkew) popularity
// distribution via a precomputed CDF and binary search.
type zipfSampler struct {
	cdf     []float64
	weights []float64 // normalized popularity, for load calculations
}

func newZipfSampler(n int) *zipfSampler {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -trafficZipfSkew)
		sum += w[i]
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := range w {
		w[i] /= sum
		acc += w[i]
		cdf[i] = acc
	}
	cdf[n-1] = 1 // guard against float drift at the tail
	return &zipfSampler{cdf: cdf, weights: w}
}

func (z *zipfSampler) draw(u float64) int { return sort.SearchFloat64s(z.cdf, u) }

// RunTraffic executes the traffic bench. The supplied server Config is used
// as the template for the real phase with every nondeterministic admission
// knob forced off (no fault plan, no shed threshold) and coalescing plus
// the compile cache forced on; admission limits are set to the request
// count so the measured phase never rejects (rejections would depend on
// drain timing). The caller's worker count, budgets, and runtime template
// are honored.
func RunTraffic(conf Config, tc TrafficConfig) (*TrafficReport, error) {
	if len(tc.Classes) == 0 {
		return nil, errors.New("serve: traffic bench needs at least one class")
	}
	if tc.Workload == "" {
		tc.Workload = "custom"
	}
	if tc.Tenants <= 0 {
		tc.Tenants = 32
	}
	if tc.RealRequests <= 0 {
		tc.RealRequests = 192
	}
	if tc.VirtualRequests <= 0 {
		tc.VirtualRequests = 120000
	}

	service, copyCost, snap, failed, err := trafficMeasure(conf, tc)
	if err != nil {
		return nil, err
	}

	rep := &TrafficReport{
		Seed:            tc.Seed,
		Workload:        tc.Workload,
		Tenants:         tc.Tenants,
		Classes:         len(tc.Classes),
		ZipfSkew:        trafficZipfSkew,
		RealRequests:    tc.RealRequests,
		RealCoalesced:   snap.Coalesced,
		RealFailed:      failed,
		CrossTenantHits: snap.Shared.CrossTenantHits,
		ClassService:    service,
		ClassCopy:       copyCost,
		VirtualRequests: tc.VirtualRequests,
		VirtualServers:  trafficServers,
		OfferedLoad:     trafficLoad,
	}
	if snap.Shared.Probes > 0 {
		rep.SharedHitRatio = float64(snap.Shared.Hits) / float64(snap.Shared.Probes)
	}
	rep.CompileCacheLookups = snap.CompileCache.Lookups
	rep.CompileCacheEntries = snap.CompileCache.Entries
	rep.CompileCacheHitRate = snap.CompileCache.HitRate()
	trafficSimulate(tc, service, copyCost, rep)
	return rep, nil
}

// trafficMeasure is the real phase: one warmup request per class (populates
// the compile and shared caches, and guarantees every class has a leader
// measurement), then RealRequests Zipf-drawn requests submitted in a single
// ticket order with a sliding in-flight window. It returns the last
// non-coalesced latency per class, the per-class follower copy charge, and
// the server's final snapshot.
func trafficMeasure(conf Config, tc TrafficConfig) (service, copyCost []float64, snap Snapshot, failed int64, err error) {
	conf.Coalesce = true
	conf.Faults = nil
	conf.ShedThreshold = 0
	total := tc.RealRequests + len(tc.Classes)
	conf.MaxQueue = total + 1
	conf.MaxPerTenant = total + 1
	srv := New(conf)
	defer srv.Close()

	tenantName := func(t int) string { return fmt.Sprintf("t%03d", t) }
	classOf := func(t int) int { return t % len(tc.Classes) }
	submit := func(t int) (*Future, error) {
		c := tc.Classes[classOf(t)]
		return srv.Submit(tenantName(t), c.Prog, SubmitOptions{
			Inputs: c.Inputs,
			Fetch:  c.Fetch,
		})
	}

	service = make([]float64, len(tc.Classes))
	copyCost = make([]float64, len(tc.Classes))
	record := func(class int, res *Result) {
		if res == nil || res.Coalesced {
			return
		}
		service[class] = res.VirtualSeconds
		cc := 0.0
		for _, m := range res.Values {
			cc += costs.Transfer(m.SizeBytes(), srv.model.MemBW, srv.model.CopyLatency)
		}
		copyCost[class] = cc
	}

	// Warmup: one request per class, waited sequentially so every class
	// compiles and publishes before the measured stream starts.
	for g := range tc.Classes {
		fut, serr := submit(g % tc.Tenants)
		if serr != nil {
			return nil, nil, snap, 0, fmt.Errorf("serve: traffic warmup class %d: %w", g, serr)
		}
		res, werr := fut.Wait()
		if werr != nil {
			return nil, nil, snap, 0, fmt.Errorf("serve: traffic warmup class %d: %w", g, werr)
		}
		record(g, res)
	}

	// Measured stream. The sliding window (64 in flight) bounds queue and
	// tenant load far below the raised admission limits, so every Submit
	// is admitted regardless of drain timing.
	rng := newTrafficRNG(tc.Seed, 0x6d656173) // "meas" stream
	zipf := newZipfSampler(tc.Tenants)
	const window = 64
	futs := make([]*Future, tc.RealRequests)
	classes := make([]int, tc.RealRequests)
	wait := func(i int) {
		res, werr := futs[i].Wait()
		if werr != nil {
			failed++
			return
		}
		record(classes[i], res)
	}
	for i := 0; i < tc.RealRequests; i++ {
		t := zipf.draw(rng.float64())
		classes[i] = classOf(t)
		fut, serr := submit(t)
		if serr != nil {
			return nil, nil, snap, 0, fmt.Errorf("serve: traffic request %d: %w", i, serr)
		}
		futs[i] = fut
		if i >= window {
			wait(i - window)
		}
	}
	for i := tc.RealRequests - window; i < tc.RealRequests; i++ {
		if i < 0 {
			continue
		}
		wait(i)
	}
	snap = srv.Snapshot()
	return service, copyCost, snap, failed, nil
}

// trafficSimulate is the virtual phase: a discrete-event admission
// simulation of tc.VirtualRequests arrivals over trafficServers virtual
// workers, with coalescing, queue-depth shedding, and an SLO check. It is
// a pure function of the seed and the measured per-class times.
//
// The model: arrivals i=0..N-1 occur at nondecreasing virtual times with
// exponential gaps whose mean is modulated by a two-state (calm/burst)
// Markov chain. An arrival whose class has an open group (leader within
// trafficCoalesceWindow arrivals, group below trafficMaxBatch) coalesces: it
// occupies no server and completes at max(leaderDone, t) + classCopy.
// Otherwise it is a leader: it is shed if trafficShedDepth admitted leaders
// are waiting to start, else it runs FCFS on the earliest-free server for
// classService seconds.
// Goodput is the fraction of all offered arrivals that complete within the
// SLO (shed arrivals count against it).
func trafficSimulate(tc TrafficConfig, service, copyCost []float64, rep *TrafficReport) {
	zipf := newZipfSampler(tc.Tenants)
	classOf := func(t int) int { return t % len(tc.Classes) }

	// The calm arrival rate targets trafficLoad against the system's
	// *effective* capacity: coalescing lets one leader execution serve up to
	// trafficMaxBatch arrivals, so the popularity-weighted mean *server*
	// cost per arrival is the service time amortized over a full batch
	// (fan-out copies are follower latency, not server work). A load > 1
	// therefore overloads the post-coalescing system, and burst periods
	// drive the queue into the shedding regime.
	meanEffective := 0.0
	maxService := 0.0
	for t := 0; t < tc.Tenants; t++ {
		c := classOf(t)
		meanEffective += zipf.weights[t] * service[c] / trafficMaxBatch
		if service[c] > maxService {
			maxService = service[c]
		}
	}
	if meanEffective <= 0 {
		meanEffective = 1e-9
	}
	slo := trafficSLOFactor * maxService
	calmGap := meanEffective / (trafficServers * trafficLoad)
	burstGap := calmGap / trafficBurstFactor

	type group struct {
		leaderSeq  int
		leaderDone float64
		size       int
	}
	open := make([]*group, len(tc.Classes))
	serverFree := make([]float64, trafficServers)
	startQ := make([]float64, 0, trafficShedDepth+1) // start times of admitted, not-yet-started leaders
	qhead := 0
	latencies := make([]float64, 0, tc.VirtualRequests)
	var admitted, shed, coalesced, sloOK int64
	makespan := 0.0

	rng := newTrafficRNG(tc.Seed, 0x73696d) // "sim" stream
	now := 0.0
	burst := false
	for i := 0; i < tc.VirtualRequests; i++ {
		// Draw order is fixed: state transition, gap, tenant.
		u := rng.float64()
		if burst {
			if u < trafficBurstOff {
				burst = false
			}
		} else if u < trafficBurstOn {
			burst = true
		}
		gap := calmGap
		if burst {
			gap = burstGap
		}
		now += -math.Log(1-rng.float64()) * gap
		tenant := zipf.draw(rng.float64())
		class := classOf(tenant)

		if g := open[class]; g != nil && i-g.leaderSeq <= trafficCoalesceWindow && g.size < trafficMaxBatch {
			done := math.Max(g.leaderDone, now) + copyCost[class]
			g.size++
			coalesced++
			admitted++
			lat := done - now
			latencies = append(latencies, lat)
			if lat <= slo {
				sloOK++
			}
			if done > makespan {
				makespan = done
			}
			continue
		}
		for qhead < len(startQ) && startQ[qhead] <= now {
			qhead++
		}
		if len(startQ)-qhead >= trafficShedDepth {
			shed++
			continue
		}
		// Leader: earliest-free server, FCFS.
		best := 0
		for w := 1; w < trafficServers; w++ {
			if serverFree[w] < serverFree[best] {
				best = w
			}
		}
		start := math.Max(now, serverFree[best])
		done := start + service[class]
		serverFree[best] = done
		startQ = append(startQ, start)
		admitted++
		lat := done - now
		latencies = append(latencies, lat)
		if lat <= slo {
			sloOK++
		}
		if done > makespan {
			makespan = done
		}
		open[class] = &group{leaderSeq: i, leaderDone: done, size: 1}
	}

	sort.Float64s(latencies)
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(math.Ceil(q*float64(len(latencies)))) - 1
		if idx < 0 {
			idx = 0
		}
		return latencies[idx]
	}
	rep.SLOSeconds = slo
	rep.Admitted = admitted
	rep.Shed = shed
	rep.VirtualCoalesced = coalesced
	rep.P50 = pct(0.50)
	rep.P99 = pct(0.99)
	rep.Goodput = float64(sloOK) / float64(tc.VirtualRequests)
	rep.VirtualMakespan = makespan
}
