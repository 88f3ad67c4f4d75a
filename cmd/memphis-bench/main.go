// Command memphis-bench regenerates the paper's evaluation tables and
// figures against the simulated multi-backend stack.
//
// Usage:
//
//	memphis-bench -list
//	memphis-bench all
//	memphis-bench fig13a fig14c
//	memphis-bench -quick fig12b
//	memphis-bench -json -quick all > BENCH_quick.json
//	memphis-bench -par 1 fig14d   # force the serial kernel path
//	memphis-bench -mem [-plan] [-membudget n] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"memphis"
	"memphis/internal/bench"
	"memphis/internal/data"
	"memphis/internal/workloads"
)

// result is the machine-readable form of one experiment run, emitted by
// -json so BENCH_*.json trajectory files can accumulate across sessions.
// Rows carry the virtual times (and speedup columns) the table prints;
// WallSeconds is the simulator's real regeneration cost at the recorded
// kernel parallelism. AllocsPerOp/BytesPerOp are the heap allocation deltas
// (runtime.ReadMemStats Mallocs/TotalAlloc) of one experiment regeneration
// — the "op" is the whole table rebuild — so the fusion alloc savings stay
// visible in trajectory files.
type result struct {
	ID          string     `json:"id"`
	Title       string     `json:"title"`
	Header      []string   `json:"header"`
	Rows        [][]string `json:"rows"`
	Notes       []string   `json:"notes,omitempty"`
	WallSeconds float64    `json:"wall_seconds"`
	Parallelism int        `json:"parallelism"`
	AllocsPerOp int64      `json:"allocs_per_op"`
	BytesPerOp  int64      `json:"bytes_per_op"`
}

const usage = "usage: memphis-bench [-quick] [-json] [-par n] all | <experiment id>...; -list to enumerate;\n" +
	"       memphis-bench -mem [-plan] [-membudget n] [-json] for the memory report"

func main() {
	list := flag.Bool("list", false, "list available experiments")
	quick := flag.Bool("quick", false, "run reduced-size variants")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	par := flag.Int("par", 0, "kernel parallelism (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
	mem := flag.Bool("mem", false, "run the memory-arbiter report: per-pool used/peak/budget/pressure and eviction/demotion counters across representative workloads")
	memBudget := flag.Int64("membudget", 0, "driver-cache (cp pool) budget in bytes for -mem (0 = default); see memphis.Options.MemoryBudgets")
	planOn := flag.Bool("plan", false, "with -mem: enable the compile-time memory planner and report evictions per planned stream")
	flag.Parse()
	if !*mem && (*planOn || *memBudget != 0) {
		fmt.Fprintln(os.Stderr, "memphis-bench: -plan and -membudget apply only with -mem")
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}

	if *par > 0 {
		data.SetParallelism(*par)
	}
	if *mem {
		memReport(*memBudget, *planOn, *jsonOut)
		return
	}
	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range bench.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}
	var results []result
	for _, id := range ids {
		e, err := bench.Find(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		var tb *bench.Table
		allocs, bytes := bench.MeasureAllocs(func() {
			if *quick {
				tb = e.Quick()
			} else {
				tb = e.Run()
			}
		})
		wall := time.Since(start).Seconds()
		if *jsonOut {
			results = append(results, result{
				ID: tb.ID, Title: tb.Title, Header: tb.Header, Rows: tb.Rows, Notes: tb.Notes,
				WallSeconds: wall, Parallelism: data.Parallelism(), AllocsPerOp: allocs, BytesPerOp: bytes,
			})
			continue
		}
		fmt.Println(tb.String())
		fmt.Printf("(wall time %.1fs, %d allocs, %.1f MB allocated)\n\n",
			wall, allocs, float64(bytes)/(1<<20))
	}
	if *jsonOut {
		out, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}

// memReport runs representative workloads on a full-reuse session and
// prints the unified memory arbiter's per-pool rows (memphis-bench -mem),
// including each pool's peak (high-water) bytes. Sessions run with
// elementwise fusion enabled. A non-zero cpBudget shrinks the driver cache
// via Options.MemoryBudgets to make eviction, spill, and demotion activity
// visible; planOn additionally enables the memory planner and appends an
// evictions-per-planned-stream table.
func memReport(cpBudget int64, planOn, jsonOut bool) {
	cases := []struct {
		name  string
		build func() *workloads.Workload
	}{
		{"hcv", func() *workloads.Workload { return workloads.HCV(800, 16, 2, []float64{0.1, 1, 0.1}, 7) }},
		{"l2svm", func() *workloads.Workload { return workloads.L2SVMMicro(4000, 48, 3, []float64{0.1, 1, 10}, 37) }},
		{"pnmf", func() *workloads.Workload { return workloads.PNMF(400, 30, 4, 4, 11) }},
	}
	type planRow struct {
		Seq       int     `json:"seq"`
		Sig       string  `json:"sig"`
		Runs      int64   `json:"runs"`
		PeakBytes int64   `json:"peak_bytes"`
		Evictions int64   `json:"evictions"`
		EvPerRun  float64 `json:"ev_per_run"`
	}
	type row struct {
		Workload       string              `json:"workload"`
		VirtualSeconds float64             `json:"virtual_seconds"`
		Pools          []memphis.PoolStats `json:"pools"`
		Plans          []planRow           `json:"plans,omitempty"`
	}
	var rows []row
	for _, c := range cases {
		w := c.build()
		s := memphis.New(memphis.Options{
			Reuse:         memphis.ReuseFull,
			Fusion:        true,
			MemoryBudgets: memphis.MemoryBudgets{CP: cpBudget},
			MemoryPlanner: planOn,
		})
		inputs := w.HostInputs()
		names := make([]string, 0, len(inputs))
		for n := range inputs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s.Bind(n, inputs[n])
		}
		if err := s.Run(w.Prog); err != nil {
			fmt.Fprintf(os.Stderr, "memphis-bench -mem: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		r := row{Workload: c.name, VirtualSeconds: s.VirtualTime(), Pools: s.Stats().Memory}
		if planOn {
			for _, p := range s.PlanReports() {
				pr := planRow{Seq: p.Seq, Sig: p.Sig, Runs: p.Runs, PeakBytes: p.PeakBytes,
					Evictions: p.Evictions}
				if p.Runs > 0 {
					pr.EvPerRun = float64(p.Evictions) / float64(p.Runs)
				}
				r.Plans = append(r.Plans, pr)
			}
		}
		rows = append(rows, r)
		s.Close()
	}
	if jsonOut {
		out, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	for _, r := range rows {
		fmt.Printf("%s (vtime %.6fs)\n", r.Workload, r.VirtualSeconds)
		fmt.Printf("  %-12s %12s %12s %12s %9s %9s %7s %9s %7s\n",
			"pool", "used", "peak", "budget", "pressure", "pressEvt", "evict", "evictB", "demote")
		for _, p := range r.Pools {
			fmt.Printf("  %-12s %12d %12d %12d %9.3f %9d %7d %9d %7d\n",
				p.Name, p.Used, p.PeakUsed, p.Budget, p.Pressure, p.PressureEvents,
				p.Evictions, p.EvictedBytes, p.Demotions)
		}
		if len(r.Plans) > 0 {
			fmt.Printf("  %-4s %-16s %6s %10s %7s %7s\n",
				"plan", "sig", "runs", "peakB", "evict", "ev/run")
			for _, p := range r.Plans {
				fmt.Printf("  %-4d %-16s %6d %10d %7d %7.2f\n",
					p.Seq, p.Sig, p.Runs, p.PeakBytes, p.Evictions, p.EvPerRun)
			}
		}
		fmt.Println()
	}
}
