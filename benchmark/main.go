// Command benchmark is the repository's benchmark: five workloads that each
// put a different layer on the critical path, measured on both clocks — the
// wall time and allocations of the Go runtime, and the simulator's virtual
// time as an exact invariant — with a correctness gate in the same run.
// BENCHMARK.json at the repository root declares its command, workloads and
// every metric; README.md in this directory says why each was chosen.
//
//	go run ./benchmark -workload reuse-hit            # one workload, end-to-end metrics
//	go run ./benchmark -workload reuse-hit -trace 1   # spans + per-layer metrics
//	go run ./benchmark                                # all five, one process each
//	go run ./benchmark -aa                            # all five twice, compared against the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is 1
// when the correctness gate failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is BENCHMARK.json: the single source of metric names and units.
type declaration struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDeclaration finds BENCHMARK.json from the repository root or from this
// package's directory (where `go test` runs).
func loadDeclaration() (*declaration, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declaration
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	return nil, fmt.Errorf("run from the repository root: %w", firstErr)
}

// exactMetric reports whether a layer metric of an untraced run is an
// invariant. An untraced run has no spans and no probes, so all it knows of
// the layers is virtual time and their own counters over the pinned prefix,
// and those repeat to the last digit on the four workloads whose order of
// execution is fixed; the two wall-clock numbers among them do not.
func exactMetric(workload, name string) bool {
	if workload == "serve-zipf" {
		return name == "error_share"
	}
	return name != "reuse.wall_vs_base_x" && name != "op_wall_p99_ms"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable tables and, last, the one-line JSON result.
func report(w io.Writer, c config, d *declaration, res *result) error {
	env, err := json.Marshal(res.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# env %s\n", env)
	decls, values := d.EndToEnd, res.EndToEnd
	if c.trace {
		decls, values = d.PerLayer, res.Layer
	}
	out := make(map[string]metricValue, len(decls))
	fmt.Fprintf(w, "# %s, %d operations attempted\n", c.workload, res.Attempted)
	for _, m := range decls {
		v, ok := values[m.Name]
		if !ok && !c.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", m.Name, v, m.Unit)
	}
	if !c.trace {
		// The invariants cost nothing to read, so every run prints them; -aa
		// compares them digit for digit.
		exact := map[string]float64{}
		for _, m := range d.PerLayer {
			if v, ok := res.Layer[m.Name]; ok && exactMetric(c.workload, m.Name) {
				exact[m.Name] = v
				fmt.Fprintf(w, "%-36s %16.10g %s (exact)\n", m.Name, v, m.Unit)
			}
		}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", "op_wall_p99_ms", res.Layer["op_wall_p99_ms"], "ms")
		fmt.Fprintf(w, "%-36s %16.6g %s\n", "reuse.wall_vs_base_x", res.Layer["reuse.wall_vs_base_x"], "x")
		b, err := json.Marshal(exact)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# exact %s\n", b)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// childRun runs one workload in a fresh process of this same binary and
// returns its end-to-end and exact metrics.
func childRun(args []string) (e2e map[string]metricValue, exact map[string]float64, correct bool, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# exact "); ok {
			if err := json.Unmarshal([]byte(rest), &exact); err != nil {
				return nil, nil, false, err
			}
		}
	}
	var last struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return nil, nil, false, fmt.Errorf("child %v: %v: no result line: %w", args, runErr, err)
	}
	return last.Metrics, exact, last.Correct, nil
}

// runAll runs every workload in its own process and passes their output on.
func runAll(base []string) int {
	code := 0
	for _, w := range workloadOrder {
		cmd := exec.Command(os.Args[0], append([]string{"-workload", w}, base...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// runAA is the A/A check: every workload twice back to back, each end-to-end
// metric compared against its bound, each exact metric digit for digit.
func runAA(d *declaration, base []string) int {
	code := 0
	for _, w := range workloadOrder {
		args := append([]string{"-workload", w}, base...)
		a, ea, okA, err := childRun(args)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		b, eb, okB, err := childRun(args)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("== %s (correct: %v, %v)\n", w, okA, okB)
		if !okA || !okB {
			code = 1
		}
		for _, m := range d.EndToEnd {
			va, vb := a[m.Name].Value, b[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "pass"
			if worse > m.Bound {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-24s %14.6g %14.6g %+8.2f%% bound %4.0f%% %s\n", m.Name, va, vb, 100*(vb-va)/va, 100*m.Bound, verdict)
		}
		names := make([]string, 0, len(ea))
		for n := range ea {
			names = append(names, n)
		}
		sort.Strings(names)
		diff := 0
		for _, n := range names {
			if ea[n] != eb[n] {
				fmt.Printf("%-36s %.17g != %.17g FAIL (exact)\n", n, ea[n], eb[n])
				diff++
				code = 1
			}
		}
		fmt.Printf("%d exact metrics, %d differ\n", len(names), diff)
	}
	return code
}

func main() {
	var c config
	var trace int
	var aa bool
	flag.StringVar(&c.workload, "workload", "", "workload to run (default: all, one process each): "+strings.Join(workloadOrder, ", "))
	flag.Int64Var(&c.seed, "seed", defaultSeed, "seed every generated input derives from")
	flag.Float64Var(&c.seconds, "seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&c.quick, "quick", false, "smoke-test input sizes; the numbers are comparable to nothing")
	flag.StringVar(&c.outDir, "out", "benchmark/out", "directory for trace-<workload>.json")
	flag.BoolVar(&aa, "aa", false, "run every workload twice and compare the two runs against the declared bounds")
	flag.Parse()
	c.trace = trace != 0

	d, err := loadDeclaration()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if c.seconds <= 0 {
		c.seconds = d.RunSeconds
	}
	if c.workload == "" {
		base := []string{"-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds), "-out", c.outDir}
		if c.quick {
			base = append(base, "-quick")
		}
		if aa {
			os.Exit(runAA(d, base))
		}
		os.Exit(runAll(append(base, "-trace", fmt.Sprint(trace))))
	}
	res, err := runWorkload(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := report(os.Stdout, c, d, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
