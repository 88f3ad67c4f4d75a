// Command memphis-serve demonstrates the multi-tenant serving layer: many
// tenants replay a workload mix against one shared, concurrency-safe lineage
// cache, and the JSON report shows cross-tenant reuse plus (with -verify)
// that every request's virtual latency is identical to a serial replay.
//
// Tenants are split into -groups input groups: tenants in the same group
// bind identically-seeded datasets, so their sub-programs reuse each other's
// shared-cache entries; different groups never alias (content signatures
// differ) and execute concurrently.
//
// With -chaos, a deterministic fault plan (see internal/faults) injects
// simulated GPU OOMs, Spark task/fetch/spill/executor failures, and
// serve-level worker crashes; the robustness layer (task retry, recompute,
// request retry with backoff) absorbs every fault, and the report gains
// per-site failure counters. Chaos runs replay bitwise-identically: -verify
// holds under -chaos too.
//
// With -traffic, the command runs the deterministic traffic bench instead
// (see serve.RunTraffic): a seeded Zipf-skewed request stream driven through
// a live server with coalescing on. The JSON report (requests coalesced and
// failed, compile-cache and cross-tenant hit rates, per-class virtual
// service times) is byte-identical across runs and worker counts for a
// fixed -seed.
//
// Usage:
//
//	memphis-serve                                # 8 tenants, 2 groups, hcv
//	memphis-serve -workload l2svm -tenants 12
//	memphis-serve -verify -check                 # exit 1 unless reuse > 0
//	                                             # and vtimes are serial
//	memphis-serve -chaos -verify -check          # faults on; exit 1 unless
//	                                             # all requests still succeed
//	memphis-serve -traffic -seed 42 -check       # traffic bench; exit 1 unless
//	                                             # compile-cache hits > 90%,
//	                                             # no request failed and
//	                                             # some coalesced
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"memphis/internal/faults"
	"memphis/internal/serve"
	"memphis/internal/workloads"
)

// mix describes one runnable workload preset. chaosOpMem is the op-memory
// budget -chaos switches to: the mix's matrices are far below the serving
// default, so without the override every request stays CP-only and the Spark
// fault sites (task, fetch, spill, executor loss) are never exercised. It is
// per-workload because pushing every op to the cluster is not legal for all
// shapes (pnmf's W×H multiply needs both operands local or one broadcast).
type mix struct {
	build      func(seed int64) *workloads.Workload
	fetch      string
	chaosOpMem int64
}

var mixes = map[string]mix{
	"hcv": {
		build: func(seed int64) *workloads.Workload {
			return workloads.HCV(96, 8, 3, []float64{1e-3, 1e-2, 1e-1, 1}, seed)
		},
		fetch:      "best",
		chaosOpMem: 1 << 10,
	},
	"l2svm": {
		build: func(seed int64) *workloads.Workload {
			return workloads.L2SVMMicro(64, 8, 3, []float64{0.01, 0.1, 0.2, 0.5}, seed)
		},
		fetch:      "acc",
		chaosOpMem: 1 << 10,
	},
	"pnmf": {
		build: func(seed int64) *workloads.Workload {
			return workloads.PNMF(60, 40, 4, 3, seed)
		},
		fetch:      "obj",
		chaosOpMem: 1 << 12,
	},
}

type report struct {
	Workload          string `json:"workload"`
	Tenants           int    `json:"tenants"`
	RequestsPerTenant int    `json:"requests_per_tenant"`
	Groups            int    `json:"groups"`
	Workers           int    `json:"workers"`
	// Chaos is set when fault injection is on; ChaosSeed keys the plan.
	// Snapshot.faults then counts injected failures per site, and
	// Snapshot.retries the attempts absorbed by the retry loop.
	Chaos     bool            `json:"chaos,omitempty"`
	ChaosSeed int64           `json:"chaos_seed,omitempty"`
	Results   []*serve.Result `json:"results"`
	Snapshot  serve.Snapshot  `json:"snapshot"`
	// Deterministic is set by -verify: true when every request's virtual
	// latency (and retry count) equals the 1-worker serial replay's.
	Deterministic *bool `json:"deterministic,omitempty"`
}

// run replays the whole mix on a fresh server and returns the results in
// submission (ticket) order plus the closing snapshot. Submission order is
// fixed — round-robin over tenants — so two runs are position-comparable.
func run(m mix, conf serve.Config, tenants, requests, groups int) ([]*serve.Result, serve.Snapshot, error) {
	srv := serve.New(conf)
	// One workload per group: tenants in a group share the program object
	// and bind identically-seeded inputs.
	ws := make([]*workloads.Workload, groups)
	for g := range ws {
		ws[g] = m.build(1000 + int64(g))
	}
	var futs []*serve.Future
	for r := 0; r < requests; r++ {
		for t := 0; t < tenants; t++ {
			w := ws[t%groups]
			f, err := srv.Submit(fmt.Sprintf("tenant-%d", t), w.Prog, serve.SubmitOptions{
				Inputs: w.HostInputs(),
				Fetch:  []string{m.fetch},
			})
			if err != nil {
				srv.Close()
				return nil, serve.Snapshot{}, err
			}
			futs = append(futs, f)
		}
	}
	results := make([]*serve.Result, len(futs))
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			srv.Close()
			return nil, serve.Snapshot{}, err
		}
		results[i] = res
	}
	srv.Close()
	return results, srv.Snapshot(), nil
}

func main() {
	var (
		workload = flag.String("workload", "hcv", "workload mix: hcv, l2svm, or pnmf")
		tenants  = flag.Int("tenants", 8, "number of tenants")
		requests = flag.Int("requests", 2, "requests per tenant")
		groups   = flag.Int("groups", 2, "input groups (tenants in a group share data)")
		workers  = flag.Int("workers", 8, "worker-pool size")
		shards   = flag.Int("shards", 8, "shared-cache lock shards")
		budgetMB = flag.Int64("budget", 64, "shared-cache global budget (MB)")
		tenantMB = flag.Int64("tenant-budget", 8, "per-tenant shared-cache budget (MB)")
		verify   = flag.Bool("verify", false, "replay serially and compare per-request virtual times")
		check    = flag.Bool("check", false, "exit 1 unless cross-tenant reuse occurred (and -verify held)")

		traffic     = flag.Bool("traffic", false, "run the deterministic traffic bench instead of the replay")
		trafficSeed = flag.Int64("seed", 42, "traffic-bench seed (with -traffic)")
		realReqs    = flag.Int("real-requests", 256, "requests the server executes (with -traffic)")

		chaos     = flag.Bool("chaos", false, "inject deterministic faults at default probabilities")
		chaosSeed = flag.Int64("chaos-seed", 7, "fault-plan seed (with -chaos)")
		degrade   = flag.Int("degrade", 0, "disable the first N shared-cache shards (degraded mode)")
	)
	flag.Parse()
	m, ok := mixes[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "memphis-serve: unknown workload %q (want hcv, l2svm, or pnmf)\n", *workload)
		os.Exit(2)
	}
	if *groups < 1 || *groups > *tenants {
		fmt.Fprintln(os.Stderr, "memphis-serve: -groups must be in [1, tenants]")
		os.Exit(2)
	}
	conf := serve.DefaultConfig()
	conf.Workers = *workers
	conf.Shared.Shards = *shards
	conf.Shared.Budget = *budgetMB << 20
	conf.Shared.TenantBudget = *tenantMB << 20
	if *chaos {
		conf.Faults = faults.Default(*chaosSeed)
		conf.Runtime.Compiler.OpMemBudget = m.chaosOpMem
	}
	if *degrade > 0 {
		if *degrade > *shards {
			fmt.Fprintln(os.Stderr, "memphis-serve: -degrade must not exceed -shards")
			os.Exit(2)
		}
		for i := 0; i < *degrade; i++ {
			conf.DisabledShards = append(conf.DisabledShards, i)
		}
	}

	if *traffic {
		classes := make([]serve.TrafficClass, *groups)
		for g := range classes {
			w := m.build(1000 + int64(g))
			classes[g] = serve.TrafficClass{
				Name:   fmt.Sprintf("%s-g%d", *workload, g),
				Prog:   w.Prog,
				Inputs: w.HostInputs(),
				Fetch:  []string{m.fetch},
			}
		}
		// Smaller coalesce batches force more group leaders to actually
		// execute, keeping the measured per-class service times in steady
		// state and the compile cache exercised.
		conf.MaxBatch = 16
		trep, err := serve.RunTraffic(conf, serve.TrafficConfig{
			Seed:         *trafficSeed,
			Workload:     *workload,
			Classes:      classes,
			Tenants:      *tenants,
			RealRequests: *realReqs,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "memphis-serve:", err)
			os.Exit(1)
		}
		out, err := json.MarshalIndent(trep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "memphis-serve:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		if *check {
			if trep.CompileCacheHitRate <= 0.9 {
				fmt.Fprintf(os.Stderr, "memphis-serve: CHECK FAILED: compile-cache hit rate %.3f <= 0.9\n",
					trep.CompileCacheHitRate)
				os.Exit(1)
			}
			if trep.RealFailed != 0 {
				fmt.Fprintf(os.Stderr, "memphis-serve: CHECK FAILED: %d measured requests failed\n", trep.RealFailed)
				os.Exit(1)
			}
			if trep.RealCoalesced == 0 {
				fmt.Fprintln(os.Stderr, "memphis-serve: CHECK FAILED: no request coalesced")
				os.Exit(1)
			}
		}
		return
	}

	results, snap, err := run(m, conf, *tenants, *requests, *groups)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memphis-serve:", err)
		os.Exit(1)
	}
	rep := report{
		Workload:          *workload,
		Tenants:           *tenants,
		RequestsPerTenant: *requests,
		Groups:            *groups,
		Workers:           *workers,
		Chaos:             *chaos,
		ChaosSeed:         *chaosSeed,
		Results:           results,
		Snapshot:          snap,
	}
	if !*chaos {
		rep.ChaosSeed = 0
	}

	if *verify {
		serial := conf
		serial.Workers = 1
		serialRes, _, err := run(m, serial, *tenants, *requests, *groups)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memphis-serve: serial replay:", err)
			os.Exit(1)
		}
		ok := len(serialRes) == len(results)
		for i := range results {
			if !ok {
				break
			}
			ok = results[i].VirtualSeconds == serialRes[i].VirtualSeconds &&
				results[i].Retries == serialRes[i].Retries
		}
		rep.Deterministic = &ok
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "memphis-serve:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))

	if *check {
		if snap.Shared.CrossTenantHitRatio <= 0 && *degrade < *shards {
			fmt.Fprintln(os.Stderr, "memphis-serve: CHECK FAILED: no cross-tenant reuse")
			os.Exit(1)
		}
		if rep.Deterministic != nil && !*rep.Deterministic {
			fmt.Fprintln(os.Stderr, "memphis-serve: CHECK FAILED: virtual times diverge from serial replay")
			os.Exit(1)
		}
		if *chaos && snap.Failed != 0 {
			fmt.Fprintf(os.Stderr, "memphis-serve: CHECK FAILED: %d requests failed under chaos defaults\n", snap.Failed)
			os.Exit(1)
		}
	}
}
