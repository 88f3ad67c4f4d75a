package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"memphis/internal/data"
	"memphis/internal/ir"
)

// This file is the deterministic traffic bench: a seeded, Zipf-skewed
// multi-tenant request stream driven through a live Server (coalescing and
// the compile cache on). The report holds what the server did: how many
// requests coalesced or failed, the compile and shared caches' hit rates,
// and each class's steady-state virtual service time. Every number in it is
// a pure function of the seed and the configuration — virtual clocks and
// ticket-space coalescing share no wall-clock or scheduler state — so a
// fixed seed yields a byte-identical JSON report on every run, every worker
// count, and under the race detector.

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
// noted on each field.
type TrafficConfig struct {
	// Seed drives the tenant popularity draws through a splitmix64 stream.
	Seed int64
	// Workload is a label recorded in the report (default "custom").
	Workload string
	// Classes are the distinct request classes (required).
	Classes []TrafficClass
	// Tenants is the tenant-population size (default 32). Tenant
	// popularity is Zipf(trafficZipfSkew)-distributed.
	Tenants int
	// RealRequests is how many requests the server executes (default 192;
	// a warmup request per class runs first and is not counted).
	RealRequests int
}

// trafficZipfSkew is the skew of tenant popularity.
const trafficZipfSkew = 1.1

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

	RealRequests        int     `json:"real_requests"`
	RealCoalesced       int64   `json:"real_coalesced"`
	RealFailed          int64   `json:"real_failed"`
	CompileCacheLookups int64   `json:"compile_cache_lookups"`
	CompileCacheEntries int64   `json:"compile_cache_entries"`
	CompileCacheHitRate float64 `json:"compile_cache_hit_rate"`
	SharedHitRatio      float64 `json:"shared_hit_ratio"`
	CrossTenantHits     int64   `json:"cross_tenant_hits"`
	// ClassService is each class's steady-state virtual execution time
	// (the last non-coalesced request's latency).
	ClassService []float64 `json:"class_service_seconds"`
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
type zipfSampler struct{ cdf []float64 }

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
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) draw(u float64) int { return sort.SearchFloat64s(z.cdf, u) }

// RunTraffic executes the traffic bench. The supplied server Config is used
// as the template with the fault plan forced off and coalescing forced on;
// admission limits are set to the request count so the server never
// rejects (rejections would depend on drain timing). The caller's worker
// count, budgets, and runtime template are honored.
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

	service, snap, failed, err := trafficMeasure(conf, tc)
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
	}
	if snap.Shared.Probes > 0 {
		rep.SharedHitRatio = float64(snap.Shared.Hits) / float64(snap.Shared.Probes)
	}
	rep.CompileCacheLookups = snap.CompileCache.Lookups
	rep.CompileCacheEntries = snap.CompileCache.Entries
	rep.CompileCacheHitRate = snap.CompileCache.HitRate()
	return rep, nil
}

// trafficMeasure runs the bench: one warmup request per class (populates
// the compile and shared caches, and guarantees every class has a leader
// measurement), then RealRequests Zipf-drawn requests submitted in a single
// ticket order with a sliding in-flight window. It returns the last
// non-coalesced latency per class and the server's final snapshot.
func trafficMeasure(conf Config, tc TrafficConfig) (service []float64, snap Snapshot, failed int64, err error) {
	conf.Coalesce = true
	conf.Faults = nil
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
	record := func(class int, res *Result) {
		if !res.Coalesced {
			service[class] = res.VirtualSeconds
		}
	}

	// Warmup: one request per class, waited sequentially so every class
	// compiles and publishes before the measured stream starts.
	for g := range tc.Classes {
		fut, serr := submit(g % tc.Tenants)
		if serr != nil {
			return nil, snap, 0, fmt.Errorf("serve: traffic warmup class %d: %w", g, serr)
		}
		res, werr := fut.Wait()
		if werr != nil {
			return nil, snap, 0, fmt.Errorf("serve: traffic warmup class %d: %w", g, werr)
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
			return nil, snap, 0, fmt.Errorf("serve: traffic request %d: %w", i, serr)
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
	return service, snap, failed, nil
}
