package faults

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// refSiteHash is the hash/fnv site key that siteHash's key.Hash fold
// replaced, kept verbatim as its oracle: the site key seeds every chaos
// sequence, so the two must agree on every site.
func refSiteHash(s Site) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func TestSiteHashMatchesFNVReference(t *testing.T) {
	sites := []Site{"", "x", "gpu.alloc\x00"}
	for s := range Default(1).Sites {
		sites = append(sites, s)
	}
	if len(sites) != 3+7 {
		t.Fatalf("want every one of the 7 wired sites, got %v", sites)
	}
	for _, s := range sites {
		if got, want := siteHash(s), refSiteHash(s); got != want {
			t.Fatalf("siteHash(%q) = %016x, reference %016x", s, got, want)
		}
	}
}

// TestNilSafety: every method on a nil injector / nil plan is a no-op.
func TestNilSafety(t *testing.T) {
	var inj *Injector
	if inj.Next(GPUAlloc) != 0 || inj.Fail(SparkTask) || inj.Draw(SparkExec) != 0 {
		t.Fatal("nil injector must inject nothing")
	}
	if inj.Counts() != nil || inj.Injected() != 0 {
		t.Fatal("nil injector accessors must be zero")
	}
	var p *Plan
	if p.Clone() != nil || p.ForRequest(7, 0) != nil || p.FireAt(ServeRequest, 1, 0) {
		t.Fatal("nil plan must inject nothing")
	}
	if NewInjector(nil) != nil || NewInjector(&Plan{}) != nil {
		t.Fatal("empty plans must build nil injectors")
	}
}

// TestDeterministicReplay: two injectors from the same plan produce the
// identical failure sequence; a different seed produces a different one.
func TestDeterministicReplay(t *testing.T) {
	seq := func(seed int64) []int {
		inj := NewInjector(Default(seed))
		out := make([]int, 0, 400)
		for k := 0; k < 100; k++ {
			out = append(out, inj.Next(GPUAlloc), inj.Next(SparkTask), inj.Next(SparkFetch), inj.Next(CPSpill))
		}
		return out
	}
	a, b := seq(42), seq(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must replay identically")
	}
	if reflect.DeepEqual(a, seq(43)) {
		t.Fatal("different seeds should differ (vanishingly unlikely collision)")
	}
}

// TestSiteIndependence: the failure decision at a site depends only on that
// site's own call index, not on traffic at other sites.
func TestSiteIndependence(t *testing.T) {
	plan := Default(7)
	solo := NewInjector(plan)
	var a []int
	for k := 0; k < 50; k++ {
		a = append(a, solo.Next(SparkTask))
	}
	mixed := NewInjector(plan)
	var b []int
	for k := 0; k < 50; k++ {
		mixed.Next(GPUAlloc)
		mixed.Next(SparkSpill)
		b = append(b, mixed.Next(SparkTask))
		mixed.Draw(SparkExec)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("site decisions must be independent of other sites' call order")
	}
}

// TestScriptedNth: Nth triggers fire exactly at the listed call indices with
// the configured attempt count; all other calls succeed.
func TestScriptedNth(t *testing.T) {
	inj := NewInjector(&Plan{Seed: 1, Sites: map[Site]Trigger{
		SparkTask: {Nth: []int64{2, 5}, Attempts: 4},
	}})
	want := []int{0, 4, 0, 0, 4, 0}
	for i, w := range want {
		if got := inj.Next(SparkTask); got != w {
			t.Fatalf("call %d: fails=%d, want %d", i+1, got, w)
		}
	}
	if inj.Injected() != 2 {
		t.Fatalf("Injected=%d, want 2", inj.Injected())
	}
	if got := inj.Counts()[SparkTask]; got != 2 {
		t.Fatalf("Counts[SparkTask]=%d, want 2", got)
	}
}

// TestProbabilisticSingleAttempt: probability triggers fail only the first
// attempt (Next returns at most 1), so one retry always converges.
func TestProbabilisticSingleAttempt(t *testing.T) {
	inj := NewInjector(&Plan{Seed: 3, Sites: map[Site]Trigger{GPUAlloc: {Probability: 0.5}}})
	fired := 0
	for k := 0; k < 500; k++ {
		n := inj.Next(GPUAlloc)
		if n > 1 {
			t.Fatalf("probabilistic trigger returned %d consecutive failures", n)
		}
		fired += n
	}
	if fired == 0 || fired == 500 {
		t.Fatalf("p=0.5 over 500 calls fired %d times — hash is degenerate", fired)
	}
}

// TestChanceDistribution: the keyed hash is roughly uniform — a p=0.1 site
// fires close to 10% of the time over many calls and seeds.
func TestChanceDistribution(t *testing.T) {
	const calls, p = 2000, 0.1
	for _, seed := range []int64{1, 99, 12345} {
		hits := 0
		for n := uint64(1); n <= calls; n++ {
			if chance(seed, SparkFetch, n) < p {
				hits++
			}
		}
		got := float64(hits) / calls
		if math.Abs(got-p) > 0.03 {
			t.Fatalf("seed %d: hit ratio %.3f, want ~%.2f", seed, got, p)
		}
	}
}

// TestForRequestIndependence: per-request plans derive distinct seeds per
// (ticket, attempt) but are stable for the same pair.
func TestForRequestIndependence(t *testing.T) {
	p := Default(11)
	a, b := p.ForRequest(3, 0), p.ForRequest(3, 0)
	if a.Seed != b.Seed {
		t.Fatal("same (ticket, attempt) must derive the same seed")
	}
	if p.ForRequest(3, 1).Seed == a.Seed || p.ForRequest(4, 0).Seed == a.Seed {
		t.Fatal("different tickets/attempts must derive different seeds")
	}
	// The derived plan keeps its triggers but must be an independent copy.
	a.Sites[GPUAlloc] = Trigger{Probability: 1}
	if p.Sites[GPUAlloc].Probability == 1 {
		t.Fatal("ForRequest must deep-copy Sites")
	}
}

// TestFireAt: stateless ticket-keyed decisions match the Trigger semantics.
func TestFireAt(t *testing.T) {
	p := &Plan{Seed: 5, Sites: map[Site]Trigger{
		ServeRequest: {Nth: []int64{7}, Attempts: 2},
	}}
	if !p.FireAt(ServeRequest, 7, 0) || !p.FireAt(ServeRequest, 7, 1) {
		t.Fatal("scripted call 7 must fail attempts 0 and 1")
	}
	if p.FireAt(ServeRequest, 7, 2) {
		t.Fatal("scripted call 7 must succeed on attempt 2")
	}
	if p.FireAt(ServeRequest, 8, 0) {
		t.Fatal("unscripted call must succeed")
	}
	if p.FireAt(GPUAlloc, 1, 0) {
		t.Fatal("unregistered site must never fire")
	}
}

// TestDrawStreamIndependent: Draw values are deterministic and do not
// perturb the failure stream.
func TestDrawStreamIndependent(t *testing.T) {
	plan := &Plan{Seed: 21, Sites: map[Site]Trigger{SparkExec: {Probability: 0.3}}}
	a, b := NewInjector(plan), NewInjector(plan)
	for k := 0; k < 40; k++ {
		if a.Draw(SparkExec) != b.Draw(SparkExec) {
			t.Fatal("Draw must replay identically")
		}
	}
	// b consumed 40 draws; its failure stream must still match a fresh one.
	c := NewInjector(plan)
	for k := 0; k < 40; k++ {
		if b.Next(SparkExec) != c.Next(SparkExec) {
			t.Fatal("draws must not perturb failure decisions")
		}
	}
}
