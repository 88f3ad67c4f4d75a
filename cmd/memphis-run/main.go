// Command memphis-run executes a DML script against the simulated
// multi-backend stack and reports virtual time plus reuse statistics.
//
// Usage:
//
//	memphis-run [-reuse full|fine|local|coarse|off] [-gpu] [-fuse] [-arena] [-print var] script.dml
//	memphis-run -plan [-json] [-membudget n] script.dml
//
// -fuse enables the compile-time elementwise fusion pass and -arena the
// pooled output-buffer arena; both change only allocation behaviour —
// results are bitwise identical with the flags on or off.
//
// With -plan, the compile-time memory planner (internal/memplan) is enabled
// and each planned instruction stream's liveness table, peak-memory profile,
// and rewrite summary are dumped after the run — human-readable by default,
// as JSON with -json (diffable with `lineage-tool profile-diff`).
//
// Input matrices can be created inside the script with rand(...); bound
// host inputs are not supported from the CLI (use the library API).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"memphis"
	"memphis/internal/dml"
)

func main() {
	reuse := flag.String("reuse", "full", "reuse mode: full|fine|local|coarse|off")
	gpu := flag.Bool("gpu", false, "enable the simulated GPU backend")
	printVar := flag.String("print", "", "print this variable's value after the run")
	fuse := flag.Bool("fuse", false, "enable compile-time elementwise fusion (results are bitwise identical either way)")
	arena := flag.Bool("arena", false, "enable the pooled output-buffer arena (results are bitwise identical either way)")
	plan := flag.Bool("plan", false, "enable the memory planner and dump per-stream liveness and peak profiles")
	jsonOut := flag.Bool("json", false, "with -plan: dump the plan reports as JSON")
	memBudget := flag.Int64("membudget", 0, "driver-cache budget in bytes (0 = default); the planner's bounding budget")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: memphis-run [flags] script.dml")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "memphis-run:", err)
		os.Exit(1)
	}
	prog, err := dml.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "memphis-run:", err)
		os.Exit(1)
	}
	mode := map[string]memphis.Reuse{
		"off": memphis.ReuseOff, "local": memphis.ReuseLocal,
		"coarse": memphis.ReuseCoarse, "fine": memphis.ReuseFine,
		"full": memphis.ReuseFull,
	}[*reuse]
	s := memphis.New(memphis.Options{
		Reuse:         mode,
		EnableGPU:     *gpu,
		Fusion:        *fuse,
		Arena:         *arena,
		MemoryPlanner: *plan,
		MemoryBudgets: memphis.MemoryBudgets{CP: *memBudget},
	})
	if err := s.Run(prog); err != nil {
		fmt.Fprintln(os.Stderr, "memphis-run:", err)
		os.Exit(1)
	}
	if *plan && *jsonOut {
		out, err := json.MarshalIndent(s.PlanReports(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "memphis-run:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Printf("virtual time: %.6g s\n", s.VirtualTime())
	st, cs := s.Stats(), s.CacheStats()
	fmt.Printf("instructions: %d (CP %d, SP %d, GPU %d), reused %d, fn-reuses %d\n",
		st.Instructions, st.CPInsts, st.SPInsts, st.GPUInsts, st.Reused, st.FuncReuses)
	fmt.Printf("cache: probes %d, hits CP/RDD/GPU/fn = %d/%d/%d/%d, evictions %d\n",
		cs.Probes, cs.HitsCP, cs.HitsRDD, cs.HitsGPU, cs.HitsFunc, cs.EvictionsCP)
	if *plan {
		var cpPeak int64
		for _, p := range st.Memory {
			if p.Name == "cp" {
				cpPeak = p.PeakUsed
			}
		}
		fmt.Printf("planner: %d planned stream executions, %d early frees, cache peak %d bytes\n",
			st.PlanBlocks, st.EarlyFrees, cpPeak)
		printPlans(s.PlanReports())
	}
	if *printVar != "" {
		v := s.Value(*printVar)
		if v == nil {
			fmt.Fprintf(os.Stderr, "memphis-run: variable %q unbound\n", *printVar)
			os.Exit(1)
		}
		fmt.Printf("%s = %v\n", *printVar, v)
	}
}

// printPlans renders each planned stream: header, per-position profile
// alongside the instructions (the peak position marked), and the liveness
// table.
func printPlans(reports []memphis.PlanReport) {
	for _, r := range reports {
		fmt.Printf("\nplan %d sig=%s runs=%d insts=%d peak=%d@%d budget=%d frees=%d evictions=%d\n",
			r.Seq, r.Sig, r.Runs, r.Instructions, r.PeakBytes, r.PeakAt, r.Budget,
			r.Frees, r.Evictions)
		if len(r.NoCache) > 0 {
			fmt.Printf("  no-cache: %v\n", r.NoCache)
		}
		for i, line := range r.Stream {
			mark := " "
			if i == r.PeakAt {
				mark = "*"
			}
			var bytes int64
			if i < len(r.Profile) {
				bytes = r.Profile[i]
			}
			fmt.Printf("  %s%3d %10d  %s\n", mark, i, bytes, line)
		}
		fmt.Printf("  %-12s %5s %5s %5s %5s %10s %5s %5s\n",
			"name", "def", "first", "last", "end", "bytes", "temp", "uses")
		for _, iv := range r.Intervals {
			fmt.Printf("  %-12s %5d %5d %5d %5d %10d %5t %5d\n",
				iv.Name, iv.Def, iv.First, iv.Last, iv.End, iv.Bytes, iv.Temp, iv.Uses)
		}
	}
}
