package serve

import (
	"encoding/json"
	"testing"
)

// trafficTestConfig is a CI-sized bench: a couple of classes and a small
// request stream that still coalesces.
func trafficTestConfig(seed int64) TrafficConfig {
	w1, w2 := hcvWorkload(), hcvWorkload()
	return TrafficConfig{
		Seed:     seed,
		Workload: "hcv-test",
		Classes: []TrafficClass{
			{Name: "g0", Prog: w1.Prog, Inputs: w1.HostInputs(), Fetch: []string{"best"}},
			{Name: "g1", Prog: w2.Prog, Inputs: w2.HostInputs(), Fetch: []string{"best"}},
		},
		Tenants:      12,
		RealRequests: 96,
	}
}

// TestTrafficDeterministicReport: two bench runs with the same seed produce
// byte-identical JSON reports, and so does a run of that seed on one worker
// (the CI job repeats this through the binary); a different seed produces a
// different report.
func TestTrafficDeterministicReport(t *testing.T) {
	run := func(seed int64, workers int) []byte {
		conf := DefaultConfig()
		conf.Workers = workers
		conf.MaxBatch = 16
		rep, err := RunTraffic(conf, trafficTestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(42, 4), run(42, 4)
	if string(a) != string(b) {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
	if serial := run(42, 1); string(a) != string(serial) {
		t.Fatalf("same seed, 4 workers vs 1, different reports:\n%s\n%s", a, serial)
	}
	if string(a) == string(run(7, 4)) {
		t.Fatal("different seeds must produce different reports")
	}
}

// TestTrafficReportShape: the report's invariants hold — every class got a
// measured service time, no request failed, some coalesced, and the compile
// cache was heavily hit.
func TestTrafficReportShape(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 4
	conf.MaxBatch = 16
	rep, err := RunTraffic(conf, trafficTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range rep.ClassService {
		if s <= 0 {
			t.Fatalf("class %d has no measured service time", c)
		}
	}
	if rep.RealFailed != 0 {
		t.Fatalf("%d measured requests failed", rep.RealFailed)
	}
	if rep.RealCoalesced == 0 {
		t.Fatal("no request coalesced")
	}
	if rep.CompileCacheHitRate <= 0.9 {
		t.Fatalf("compile-cache hit rate %.3f <= 0.9", rep.CompileCacheHitRate)
	}
}
