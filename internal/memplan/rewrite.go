package memplan

import (
	"fmt"
	"sort"

	"memphis/internal/compiler"
	"memphis/internal/core"
)

// Apply plans one compiled stream: analyze, rewrite under the budget, and
// re-analyze the final stream so positions in the returned Plan match the
// stream the runtime executes. The result is a pure function of (insts,
// cfg); Apply verifies the rewritten stream and panics on a use-after-free
// or double-free, which would be a planner bug, never an input condition.
func Apply(insts []compiler.Instruction, cfg Config) ([]compiler.Instruction, *Plan) {
	plan := Analyze(insts)
	plan.Budget = cfg.Budget
	if cfg.Budget <= 0 {
		return insts, plan
	}
	// Early frees are worthwhile whenever a budget exists, even when the
	// profile fits: dead temporaries stop competing with cached values.
	// Cache flips stay gated on an actual overrun.
	out, frees := insertFrees(insts, plan)
	final := Analyze(out)
	final.Budget, final.Frees = cfg.Budget, frees
	if plan.Peak > cfg.Budget {
		final.noCache = cacheFlips(insts, cfg.Budget)
		for n := range final.noCache {
			final.NoCache = append(final.NoCache, n)
		}
		sort.Strings(final.NoCache)
	}
	if err := VerifyStream(out); err != nil {
		panic(fmt.Sprintf("memplan: rewritten stream invalid: %v", err))
	}
	return out, final
}

// cacheFlips selects the outputs whose cache-vs-recompute decision flips to
// recompute at compile time on a plan that overruns its budget: any
// cacheable CP output larger than half the budget. Caching one such object
// evicts half the cache, the classic thrash source on over-budget plans.
func cacheFlips(insts []compiler.Instruction, budget int64) map[string]bool {
	flips := make(map[string]bool)
	for i := range insts {
		inst := &insts[i]
		if inst.Kind == compiler.KindOp && inst.Cacheable() &&
			inst.Backend == core.BackendCP && inst.Shape.Bytes() > budget/2 {
			flips[inst.Outputs[0]] = true
		}
	}
	return flips
}

// insertFrees appends a KindFree after the last data use of every
// block-local temporary, releasing it deterministically instead of at
// block end. Only temporaries are freed: named outputs escape the block,
// and live-ins are owned by the surrounding scope.
func insertFrees(insts []compiler.Instruction, plan *Plan) ([]compiler.Instruction, int) {
	// lastUse[name] = position after which the temp is dead.
	lastUse := make(map[string]int)
	for _, iv := range plan.Intervals {
		if !iv.Temp || iv.Def < 0 {
			continue
		}
		pos := iv.Last
		if pos < iv.Def {
			pos = iv.Def
		}
		lastUse[iv.Name] = pos
	}
	if len(lastUse) == 0 {
		return insts, 0
	}
	freeAt := make(map[int][]string)
	for name, pos := range lastUse {
		freeAt[pos] = append(freeAt[pos], name)
	}
	for _, names := range freeAt {
		sort.Strings(names)
	}
	out := make([]compiler.Instruction, 0, len(insts)+len(lastUse))
	frees := 0
	for i := range insts {
		out = append(out, insts[i])
		for _, name := range freeAt[i] {
			out = append(out, compiler.Instruction{
				Kind: compiler.KindFree, Op: "free",
				Inputs: []string{name}, Outputs: []string{"_"},
				Backend: core.BackendCP,
			})
			frees++
		}
	}
	return out, frees
}
