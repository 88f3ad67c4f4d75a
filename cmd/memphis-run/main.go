// Command memphis-run executes a DML script against the simulated
// multi-backend stack and reports virtual time plus reuse statistics.
//
// Usage:
//
//	memphis-run [-reuse full|fine|local|coarse|off] [-gpu] [-fuse] [-print var] script.dml
//	memphis-run -plan [-json] [-membudget n] script.dml
//
// -fuse enables the compile-time elementwise fusion pass. It changes the
// compiled stream, so the instruction count and virtual time move (ridge.dml
// runs 55 instructions in 0.000418372 virtual s plain, 50 in 0.000393372 s
// fused); the values are bitwise identical with the flag on or off.
//
// With -plan, the compile-time memory planner (internal/memplan) is enabled
// and each planned instruction stream's peak bytes (the sum of its
// operands' bytes: nothing is released before block end), cache flips and
// instructions are dumped after the run — human-readable by default, as
// JSON with -json.
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

// parseReuse resolves a -reuse value; an unknown one is an error that lists
// the valid modes.
func parseReuse(name string) (memphis.Reuse, error) {
	switch name {
	case "full":
		return memphis.ReuseFull, nil
	case "fine":
		return memphis.ReuseFine, nil
	case "local":
		return memphis.ReuseLocal, nil
	case "coarse":
		return memphis.ReuseCoarse, nil
	case "off":
		return memphis.ReuseOff, nil
	}
	return 0, fmt.Errorf("unknown reuse mode %q (want full|fine|local|coarse|off)", name)
}

func main() {
	reuse := flag.String("reuse", "full", "reuse mode: full|fine|local|coarse|off")
	gpu := flag.Bool("gpu", false, "enable the simulated GPU backend")
	printVar := flag.String("print", "", "print this variable's value after the run")
	fuse := flag.Bool("fuse", false, "enable compile-time elementwise fusion (results are bitwise identical either way)")
	plan := flag.Bool("plan", false, "enable the memory planner and dump per-stream peak bytes, cache flips and instructions")
	jsonOut := flag.Bool("json", false, "with -plan: dump the plan reports as JSON")
	memBudget := flag.Int64("membudget", 0, "driver-cache budget in bytes (0 = default); the planner's bounding budget")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: memphis-run [flags] script.dml")
		os.Exit(2)
	}
	mode, err := parseReuse(*reuse)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memphis-run:", err)
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
	s := memphis.New(memphis.Options{
		Reuse:         mode,
		EnableGPU:     *gpu,
		Fusion:        *fuse,
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
		fmt.Printf("planner: %d planned stream executions, cache peak %d bytes\n",
			st.PlanBlocks, cpPeak)
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

// printPlans renders each planned stream: its header (peak and budget
// among it), the flipped outputs and the instructions.
func printPlans(reports []memphis.PlanReport) {
	for _, r := range reports {
		fmt.Printf("\nplan %d sig=%s runs=%d insts=%d peak=%d budget=%d evictions=%d\n",
			r.Seq, r.Sig, r.Runs, r.Instructions, r.PeakBytes, r.Budget, r.Evictions)
		if len(r.NoCache) > 0 {
			fmt.Printf("  no-cache: %v\n", r.NoCache)
		}
		for i, line := range r.Stream {
			fmt.Printf("  %3d  %s\n", i, line)
		}
	}
}
