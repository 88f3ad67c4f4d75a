package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
)

// expected.json pins, for defaultSeed at full size, what must not move by
// accident: the digest of each workload's pinned outputs and the virtual
// time of its pinned prefix. A change that moves virtual time on purpose
// re-pins the file from the "# pins" line every run prints, and says which
// count explains the move.
//
//go:embed expected.json
var expectedJSON []byte

type pins struct {
	Outputs      string  `json:"outputs"`
	VtimeMSPerOp float64 `json:"vtime_ms_per_op"`
	SpeedupX     float64 `json:"vtime_speedup_x"`
}

// outputsDigest folds the pinned outputs' checksums in key order.
func outputsDigest(ph *phase) string {
	keys := append([]string(nil), ph.pinnedKeys...)
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%016x;", k, ph.outputs[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkExpected prints the run's pins and, on the pinned seed at full size,
// compares them with expected.json. The server's requests complete in an
// order the scheduler chooses, so only its outputs are pinned.
func checkExpected(c config, ph *phase, layer map[string]float64) []string {
	got := pins{Outputs: outputsDigest(ph)}
	if c.workload != "serve-zipf" {
		got.VtimeMSPerOp, got.SpeedupX = layer["vtime.ms_per_op"], layer["vtime.speedup_x"]
	}
	b, _ := json.Marshal(got) // a struct of strings and finite floats always marshals
	fmt.Printf("# pins %s\n", b)
	if c.quick || c.seed != defaultSeed {
		return nil
	}
	var all map[string]pins
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return []string{fmt.Sprintf("expected.json: %v", err)}
	}
	want, ok := all[c.workload]
	if !ok {
		return []string{fmt.Sprintf("expected.json has no pins for %s", c.workload)}
	}
	if got != want {
		return []string{fmt.Sprintf("pins moved: got %+v, expected.json has %+v", got, want)}
	}
	return nil
}
