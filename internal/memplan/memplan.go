// Package memplan is MEMPHIS's compile-time memory planner: a static pass
// over the linearized instruction streams produced by compiler.CompileBlock
// (dynamic recompilation keeps streams straight-line, so loop bodies are
// analyzed as-executed-once per recompilation, with loop-carried variables
// appearing as block-external live-ins).
//
// The planner computes two artifacts per stream and never rewrites it:
//
//  1. Peak: the sum of the stream's operand bytes, sized from the
//     compiler's shape estimates. Nothing is released mid-block (the
//     runtime clears temporaries at block end), so every operand stays
//     resident once it appears, and the sum is the stream's peak.
//  2. Cache flips: when that peak exceeds the budget, the
//     cache-vs-recompute decision flips for outputs too large to cache
//     without thrashing; a flip changes no computed value.
//
// Planning is a pure function of the instruction stream and the budget:
// the same (stream, Config) always yields byte-identical plans, which the
// CI planner-determinism job asserts.
package memplan

import (
	"slices"

	"memphis/internal/compiler"
	"memphis/internal/core"
)

// Config parameterizes one planning pass.
type Config struct {
	// Budget is the target byte budget (normally the CP cache budget).
	// Cache flips fire only when the analyzed peak exceeds it; zero
	// yields the analysis only.
	Budget int64
}

// Plan is the planner's artifact for one instruction stream: its peak and
// its cache flips, attached to the compiled program; the runtime skips the
// probe and put of a flipped output.
type Plan struct {
	// Peak is the sum of the stream's operand bytes, each distinct operand
	// counted once at the largest size it appears with: nothing is
	// released before block end, so the sum is the stream's peak.
	Peak int64
	// Budget echoes the planning budget (0 = unbounded).
	Budget int64
	// NoCache lists the outputs flipped to recompute, sorted and distinct.
	NoCache []string
}

// Analyze sums a stream's operand bytes into Peak. A non-literal input
// counts its input shape (0 past the end of InShapes), an ordinary
// operator's output other than "_" or a literal counts its result shape.
// Prefetch/broadcast/checkpoint outputs rebind their input name and add
// nothing.
func Analyze(insts []compiler.Instruction) *Plan {
	p := &Plan{}
	size := make(map[string]int64)
	count := func(name string, bytes int64) {
		if old := size[name]; bytes > old {
			p.Peak += bytes - old
			size[name] = bytes
		}
	}
	for i := range insts {
		inst := &insts[i]
		for j, op := range inst.Inputs {
			if compiler.IsLiteral(op) || j >= len(inst.InShapes) {
				continue
			}
			count(op, inst.InShapes[j].Bytes())
		}
		if inst.Kind != compiler.KindOp {
			continue
		}
		for _, op := range inst.Outputs {
			if op != "_" && !compiler.IsLiteral(op) {
				count(op, inst.Shape.Bytes())
			}
		}
	}
	return p
}

// SkipCache reports whether the plan flipped the named output to
// recompute-from-lineage (no probe, no put).
func (p *Plan) SkipCache(name string) bool {
	_, found := slices.BinarySearch(p.NoCache, name)
	return found
}

// Apply plans one compiled stream: the analysis, the budget, and, when the
// analyzed peak overruns a positive budget, the cache flips. The result is
// a pure function of (insts, cfg).
func Apply(insts []compiler.Instruction, cfg Config) *Plan {
	plan := Analyze(insts)
	plan.Budget = cfg.Budget
	if cfg.Budget > 0 && plan.Peak > cfg.Budget {
		plan.NoCache = cacheFlips(insts, cfg.Budget)
	}
	return plan
}

// cacheFlips selects, sorted and distinct, the outputs whose
// cache-vs-recompute decision flips to recompute at compile time on a plan
// that overruns its budget: any cacheable CP output larger than half the
// budget. Caching one such object evicts half the cache, the classic
// thrash source on over-budget plans.
func cacheFlips(insts []compiler.Instruction, budget int64) []string {
	var flips []string
	for i := range insts {
		inst := &insts[i]
		if inst.Kind == compiler.KindOp && inst.Cacheable() &&
			inst.Backend == core.BackendCP && inst.Shape.Bytes() > budget/2 {
			flips = append(flips, inst.Outputs[0])
		}
	}
	slices.Sort(flips)
	return slices.Compact(flips)
}
