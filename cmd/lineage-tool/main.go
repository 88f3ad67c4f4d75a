// Command lineage-tool demonstrates MEMPHIS's lineage serialization and
// exact recomputation (the SERIALIZE/DESERIALIZE/RECOMPUTE API, §3.2) and
// diffs memory-planner profiles.
//
// Usage:
//
//	lineage-tool demo                      # trace a small program, dump the log
//	lineage-tool recompute <logfile>       # replay a log produced by demo
//	lineage-tool profile-diff <a> <b>      # diff two `memphis-run -plan -json` dumps
//	lineage-tool trace                     # dump compiled streams fused vs unfused
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"memphis"
	"memphis/internal/compiler"
	"memphis/internal/data"
	"memphis/internal/ir"
)

// buildSession returns a session with the demo inputs bound. Inputs are
// seeded, so any process can reproduce them and replay lineage logs.
func buildSession() *memphis.Session {
	s := memphis.New(memphis.Options{Reuse: memphis.ReuseFull})
	s.Bind("X", data.RandNorm(200, 8, 0, 1, 42))
	s.Bind("y", data.RandNorm(200, 1, 0, 1, 43))
	return s
}

func demo() error {
	s := buildSession()
	prog := ir.NewProgram()
	prog.Main = []ir.Block{ir.BB(
		ir.Assign("G", ir.TSMM(ir.Var("X"))),
		ir.Assign("b", ir.MatMul(ir.T(ir.Var("X")), ir.Var("y"))),
		ir.Assign("beta", ir.Solve(ir.Add(ir.Var("G"), ir.Lit(0.1)), ir.Var("b"))),
	)}
	if err := s.Run(prog); err != nil {
		return err
	}
	log, err := s.SerializeLineage("beta")
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "beta =", s.Value("beta"))
	fmt.Fprintln(os.Stderr, "-- lineage log on stdout; save it and replay with `lineage-tool recompute <file>` --")
	fmt.Print(log)
	return nil
}

// trace dumps the compiled instruction stream of an elementwise-heavy block
// with fusion off and on; fused instructions render their constituent op
// lists (`CP fused[* + exp sigmoid] ...`). It then runs the program under
// both configurations and byte-compares the serialized lineage logs: fusion
// is invisible to lineage, so the logs must be identical.
func trace() error {
	bb := ir.BB(
		ir.Assign("Z", ir.Sigmoid(ir.Exp(ir.Add(ir.Mul(ir.Var("X"), ir.Lit(0.5)), ir.Var("Y"))))),
		ir.Assign("W", ir.Sqrt(ir.Abs(ir.Sub(ir.Var("Z"), ir.Lit(1))))),
	)
	env := map[string]ir.Shape{
		"X": {Rows: 200, Cols: 8},
		"Y": {Rows: 200, Cols: 8},
	}
	for _, fuse := range []bool{false, true} {
		conf := compiler.DefaultConfig()
		conf.Fusion = fuse
		fmt.Printf("-- compiled stream (fusion=%v) --\n", fuse)
		for i, inst := range compiler.CompileBlock(bb, env, conf) {
			fmt.Printf("%3d  %s\n", i, inst.String())
		}
	}
	logFor := func(fuse bool) (string, error) {
		s := memphis.New(memphis.Options{Reuse: memphis.ReuseFull, Fusion: fuse})
		defer s.Close()
		s.Bind("X", data.RandNorm(200, 8, 0, 1, 42))
		s.Bind("Y", data.RandNorm(200, 8, 1, 2, 43))
		prog := ir.NewProgram()
		prog.Main = []ir.Block{bb}
		if err := s.Run(prog); err != nil {
			return "", err
		}
		return s.SerializeLineage("W")
	}
	plain, err := logFor(false)
	if err != nil {
		return err
	}
	fused, err := logFor(true)
	if err != nil {
		return err
	}
	if plain != fused {
		return fmt.Errorf("lineage logs differ between fusion off and on")
	}
	fmt.Println("-- lineage log (identical with fusion off and on) --")
	fmt.Print(plain)
	return nil
}

func recompute(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s := buildSession()
	m, err := s.Recompute(string(raw))
	if err != nil {
		return err
	}
	fmt.Println("recomputed value:", m)
	return nil
}

// loadReports parses a `memphis-run -plan -json` dump.
func loadReports(path string) ([]memphis.PlanReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []memphis.PlanReport
	if err := json.Unmarshal(raw, &reports); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reports, nil
}

// profileDiff compares two plan dumps stream by stream (matched on the
// stream signature) and prints per-plan deltas in peak memory and
// measured evictions. Streams present in only one dump are listed.
// Differences are informational; only I/O and parse failures error.
func profileDiff(pathA, pathB string) error {
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	bySig := make(map[string]memphis.PlanReport, len(b))
	for _, r := range b {
		bySig[r.Sig] = r
	}
	same := true
	for _, ra := range a {
		rb, ok := bySig[ra.Sig]
		if !ok {
			fmt.Printf("plan %s: only in %s (peak=%d)\n", ra.Sig, pathA, ra.PeakBytes)
			same = false
			continue
		}
		delete(bySig, ra.Sig)
		if ra.PeakBytes == rb.PeakBytes && ra.Evictions == rb.Evictions && ra.Runs == rb.Runs {
			continue
		}
		same = false
		fmt.Printf("plan %s:\n", ra.Sig)
		diffInt := func(name string, va, vb int64) {
			if va != vb {
				fmt.Printf("  %-10s %d -> %d (%+d)\n", name, va, vb, vb-va)
			}
		}
		diffInt("peak", ra.PeakBytes, rb.PeakBytes)
		diffInt("evictions", ra.Evictions, rb.Evictions)
		diffInt("runs", ra.Runs, rb.Runs)
	}
	for _, rb := range b {
		if _, dangling := bySig[rb.Sig]; dangling {
			fmt.Printf("plan %s: only in %s (peak=%d)\n", rb.Sig, pathB, rb.PeakBytes)
			same = false
		}
	}
	var peakA, peakB, evA, evB int64
	for _, r := range a {
		if r.PeakBytes > peakA {
			peakA = r.PeakBytes
		}
		evA += r.Evictions
	}
	for _, r := range b {
		if r.PeakBytes > peakB {
			peakB = r.PeakBytes
		}
		evB += r.Evictions
	}
	fmt.Printf("total: %d vs %d plans, max peak %d vs %d, evictions %d vs %d\n",
		len(a), len(b), peakA, peakB, evA, evB)
	if same && len(a) == len(b) {
		fmt.Println("profiles identical")
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: lineage-tool demo | trace | recompute <logfile> | profile-diff <a.json> <b.json>")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = demo()
	case "trace":
		err = trace()
	case "recompute":
		if len(os.Args) < 3 {
			err = fmt.Errorf("recompute needs a log file")
		} else {
			err = recompute(os.Args[2])
		}
	case "profile-diff":
		if len(os.Args) < 4 {
			err = fmt.Errorf("profile-diff needs two plan dumps (from memphis-run -plan -json)")
		} else {
			err = profileDiff(os.Args[2], os.Args[3])
		}
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lineage-tool:", err)
		os.Exit(1)
	}
}
