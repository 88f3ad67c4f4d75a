// Package faults is MEMPHIS's deterministic fault-injection registry. The
// simulator's robustness machinery (GPU OOM recovery, Spark task retry,
// serve-level retry with backoff) is only trustworthy if the failures it
// reacts to are reproducible, so every injection decision is a pure function
// of (plan seed, injection site, per-site call index) computed with a
// counter-keyed splitmix64 hash — a vtime-friendly PRNG with no hidden
// stream state. Replaying a session with the same plan produces bitwise-
// identical failures, virtual-time traces, and results, regardless of worker
// interleaving or wall-clock timing.
//
// Two trigger forms are supported per site:
//
//   - Probability: each call at the site fails independently with the given
//     probability — but only on its first attempt, so a single retry always
//     converges. This keeps probabilistic chaos runs completing via
//     retries/fallbacks instead of aborting.
//   - Nth: scripted 1-based call indices that fail unconditionally, with
//     Attempts consecutive failing attempts. Scripted triggers are how tests
//     exercise max-attempt aborts and other give-up paths.
package faults

import (
	"sort"

	"memphis/internal/key"
)

// Site identifies one injection point in the stack.
type Site string

// The wired injection sites.
const (
	// GPUAlloc fails the device's plain cudaMalloc attempt (simulated OOM);
	// the memory manager's Algorithm-1 recovery ladder then runs.
	GPUAlloc Site = "gpu.alloc"
	// SparkTask fails a task (partition computation); the stage gives it
	// four attempts (spark.task.maxFailures) before aborting.
	SparkTask Site = "spark.task"
	// SparkFetch loses a cached shuffle file; the map side is recomputed.
	SparkFetch Site = "spark.fetch"
	// SparkSpill fails a block-manager spill write; the victim partition is
	// dropped and recomputed from lineage on next access.
	SparkSpill Site = "spark.spill"
	// SparkExec loses one executor: its cached blocks and shuffle files
	// vanish and an executor-replacement delay is charged.
	SparkExec Site = "spark.executor"
	// CPSpill fails a driver lineage-cache spill write; the entry is
	// dropped instead of spilled.
	CPSpill Site = "cp.spill"
	// ServeRequest fails a serving-layer request attempt before execution
	// (a simulated worker crash); the server retries with backoff. Keyed by
	// ticket, not call order, so traces are worker-count independent.
	ServeRequest Site = "serve.request"
)

// Trigger configures when a site fails.
type Trigger struct {
	// Probability is the chance that a call's first attempt fails. Retries
	// of probabilistically failed calls always succeed, so any single-retry
	// response converges.
	Probability float64
	// Nth lists 1-based call indices that fail unconditionally.
	Nth []int64
	// Attempts is how many consecutive attempts fail at an Nth-triggered
	// call (default 1). Set it at or above the caller's retry limit to
	// exercise abort paths.
	Attempts int
}

// fails returns how many consecutive attempts fail for call index n, given
// the plan seed (0 = the call succeeds).
func (t Trigger) fails(seed int64, site Site, n int64) int {
	for _, k := range t.Nth {
		if k == n {
			if t.Attempts > 1 {
				return t.Attempts
			}
			return 1
		}
	}
	if t.Probability > 0 && chance(seed, site, uint64(n)) < t.Probability {
		return 1
	}
	return 0
}

// Plan is a complete, replayable fault scenario: a seed plus per-site
// triggers. The zero-value plan (or a nil *Plan) injects nothing.
type Plan struct {
	Seed  int64
	Sites map[Site]Trigger
}

// Default returns the chaos-mode plan used by `memphis-serve -chaos`: low
// per-site probabilities that every recovery path absorbs without failing a
// request.
func Default(seed int64) *Plan {
	return &Plan{
		Seed: seed,
		Sites: map[Site]Trigger{
			GPUAlloc:     {Probability: 0.05},
			SparkTask:    {Probability: 0.02},
			SparkFetch:   {Probability: 0.05},
			SparkSpill:   {Probability: 0.05},
			SparkExec:    {Probability: 0.01},
			CPSpill:      {Probability: 0.05},
			ServeRequest: {Probability: 0.05},
		},
	}
}

// Clone returns a deep copy of the plan (nil-safe).
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	q := &Plan{Seed: p.Seed}
	if p.Sites != nil {
		q.Sites = make(map[Site]Trigger, len(p.Sites))
		for s, t := range p.Sites {
			nth := append([]int64(nil), t.Nth...)
			q.Sites[s] = Trigger{Probability: t.Probability, Nth: nth, Attempts: t.Attempts}
		}
	}
	return q
}

// ForRequest derives the per-request plan used by the serving layer: the
// seed is mixed with the request's ticket and attempt number, so each
// request (and each retry) draws an independent, ticket-keyed fault stream.
// Because the derivation ignores call order across requests, traces are
// identical for every worker count.
func (p *Plan) ForRequest(ticket uint64, attempt int) *Plan {
	if p == nil {
		return nil
	}
	q := p.Clone()
	q.Seed = int64(mix64(uint64(p.Seed) ^ mix64(ticket) ^ mix64(uint64(attempt)<<32|0x9e37)))
	return q
}

// FireAt is the stateless decision used for caller-indexed sites (the serve
// layer indexes by ticket rather than call order): does call index n fail on
// the given attempt? Probabilistic triggers fire on attempt 0 only; scripted
// triggers fire on attempts below Trigger.Attempts.
func (p *Plan) FireAt(site Site, n uint64, attempt int) bool {
	if p == nil {
		return false
	}
	t, ok := p.Sites[site]
	if !ok {
		return false
	}
	return attempt < t.fails(p.Seed, site, int64(n))
}

// siteState is an injector's per-site call counter and trigger.
type siteState struct {
	trig     Trigger
	calls    int64
	draws    int64
	injected int64
}

// Injector is the per-session registry: it counts calls per site and decides
// failures deterministically. It is not safe for concurrent use — injection
// sites all run on the session's driver goroutine, matching the simulator's
// single instruction stream. A nil *Injector is valid and injects nothing.
type Injector struct {
	seed  int64
	sites map[Site]*siteState
}

// NewInjector builds an injector from a plan; a nil or empty plan returns
// nil (all methods are nil-safe).
func NewInjector(p *Plan) *Injector {
	if p == nil || len(p.Sites) == 0 {
		return nil
	}
	inj := &Injector{seed: p.Seed, sites: make(map[Site]*siteState, len(p.Sites))}
	for s, t := range p.Sites {
		inj.sites[s] = &siteState{trig: t}
	}
	return inj
}

// Next begins a new call at the site and returns how many consecutive
// attempts of it fail (0 = the call succeeds). Callers loop: attempt i
// fails iff i < Next(site).
func (i *Injector) Next(site Site) int {
	if i == nil {
		return 0
	}
	st := i.sites[site]
	if st == nil {
		return 0
	}
	st.calls++
	n := st.trig.fails(i.seed, site, st.calls)
	if n > 0 {
		st.injected++
	}
	return n
}

// Fail reports whether the next call at the site fails its first attempt.
func (i *Injector) Fail(site Site) bool { return i.Next(site) > 0 }

// Draw returns a deterministic uniform 64-bit value for the site (victim
// selection and similar tie-breaking), on a counter stream independent of
// the failure decisions.
func (i *Injector) Draw(site Site) uint64 {
	if i == nil {
		return 0
	}
	st := i.sites[site]
	if st == nil {
		return 0
	}
	st.draws++
	return mix64(uint64(i.seed) ^ mix64(siteHash(site)^0xd7a3) ^ mix64(uint64(st.draws)))
}

// Calls returns how many calls the site has begun.
func (i *Injector) Calls(site Site) int64 {
	if i == nil || i.sites[site] == nil {
		return 0
	}
	return i.sites[site].calls
}

// Counts returns the number of injected failures per site (sites that never
// fired are omitted). The map is a copy.
func (i *Injector) Counts() map[Site]int64 {
	if i == nil {
		return nil
	}
	out := make(map[Site]int64)
	for s, st := range i.sites {
		if st.injected > 0 {
			out[s] = st.injected
		}
	}
	return out
}

// Injected returns the total number of injected failures across all sites.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	var n int64
	for _, st := range i.sites {
		n += st.injected
	}
	return n
}

// SiteNames returns the registered sites in sorted order (for reports).
func (i *Injector) SiteNames() []Site {
	if i == nil {
		return nil
	}
	out := make([]Site, 0, len(i.sites))
	for s := range i.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Hit is the package-level stateless Bernoulli draw keyed by (seed, site,
// index) — for callers that index calls themselves.
func Hit(seed int64, site Site, n uint64, prob float64) bool {
	return prob > 0 && chance(seed, site, n) < prob
}

// mix64 is the splitmix64 finalizer: a high-quality 64-bit mixing function
// whose output is a pure function of its input (no stream state).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// siteHash folds a site name into the hash key.
func siteHash(s Site) uint64 { return key.New().Str(string(s)).Sum64() }

// chance maps (seed, site, call index) to a uniform float64 in [0, 1).
func chance(seed int64, site Site, n uint64) float64 {
	h := mix64(uint64(seed) ^ mix64(siteHash(site)) ^ mix64(n))
	return float64(h>>11) / (1 << 53)
}
