// Command lineage-tool demonstrates MEMPHIS's lineage serialization and
// exact recomputation (the SERIALIZE/DESERIALIZE/RECOMPUTE API, §3.2).
//
// Usage:
//
//	lineage-tool demo                      # trace a small program, dump the log
//	lineage-tool recompute <logfile>       # replay a log produced by demo
//	lineage-tool trace                     # dump compiled streams fused vs unfused
package main

import (
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

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: lineage-tool demo | trace | recompute <logfile>")
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
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lineage-tool:", err)
		os.Exit(1)
	}
}
