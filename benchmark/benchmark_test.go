package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke-test size through the code path the
// real benchmark takes, traced and untraced, and holds the output to
// BENCHMARK.json: every declared metric is emitted exactly once with its
// unit, nothing undeclared is produced, names and units are well-formed, the
// caps hold, and the correctness gate passes.
func TestSmoke(t *testing.T) {
	d, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): malformed or declared twice", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(d.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloadOrder))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadOrder[i])
		}
	}

	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			c := config{workload: w, seed: defaultSeed, seconds: 0.2, trace: traced, quick: true, outDir: t.TempDir()}
			res, err := runWorkload(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: correctness gate failed: %v", w, traced, res.Failures)
			}
			decls, produced := d.EndToEnd, res.EndToEnd
			if traced {
				decls, produced = d.PerLayer, res.Layer
			}
			declared := map[string]string{}
			for _, m := range decls {
				declared[m.Name] = m.Unit
				if _, ok := produced[m.Name]; !ok && (!traced || layerRuns(w, m.Name)) {
					t.Errorf("%s trace=%v: declared metric %s was not produced", w, traced, m.Name)
				}
			}
			for n := range produced {
				if _, ok := declared[n]; !ok {
					t.Errorf("%s trace=%v: produced metric %s is not declared in BENCHMARK.json", w, traced, n)
				}
			}

			var buf bytes.Buffer
			if err := report(&buf, c, d, res); err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   *bool                  `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w, traced, err)
			}
			if last.Correct == nil || last.Failed == nil || last.Attempted < 1 {
				t.Errorf("%s trace=%v: result object lacks correct/attempted/failed: %s", w, traced, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, traced, len(last.Metrics), len(decls))
			}
			for n, v := range last.Metrics {
				if declared[n] != v.Unit {
					t.Errorf("%s trace=%v: metric %s emitted with unit %q, declared %q", w, traced, n, v.Unit, declared[n])
				}
			}
			if !traced {
				for n, v := range last.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, n, v.Value)
					}
				}
			}
		}
	}
}

// layerRuns reports whether a workload enters the layer a per-layer metric
// belongs to; the others are emitted as 0 without being measured.
func layerRuns(workload, metric string) bool {
	layer, _, _ := strings.Cut(metric, ".")
	switch layer {
	case "dml":
		return workload == "reuse-hit" || workload == "fresh-miss"
	case "spark", "gpu":
		return workload == "pipe-multibackend"
	case "serve":
		return workload == "serve-zipf"
	case "compiler", "runtime", "memplan":
		// the server compiles and executes inside its own workers, out of
		// the harness's sight
		return workload != "serve-zipf" || !strings.HasSuffix(metric, "_per_op") || layer == "runtime" && !strings.HasSuffix(metric, "exec_us_per_op")
	}
	return true
}
