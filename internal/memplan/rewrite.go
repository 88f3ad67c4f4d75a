package memplan

import (
	"fmt"
	"sort"
	"strings"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/ir"
)

// cacheableOp mirrors the runtime's fine-grained-reuse exclusions: these
// opcodes never produce cache puts, so the planner's cache accounting and
// flip decisions skip them.
func cacheableOp(op string) bool {
	switch op {
	case "assign", "chkpoint", "call", "nrow", "ncol":
		return false
	}
	return true
}

// Apply plans one compiled stream: analyze, rewrite under the budget, and
// re-analyze the final stream so positions in the returned Plan match the
// stream the runtime executes. The result is a pure function of (insts,
// cfg); Apply verifies the rewritten stream and panics on a use-after-free
// or double-free, which would be a planner bug, never an input condition.
func Apply(insts []compiler.Instruction, cfg Config) ([]compiler.Instruction, *Plan) {
	plan := Analyze(insts)
	plan.Budget = cfg.Budget
	out := insts
	splits := 0
	if cfg.Budget > 0 && plan.Peak > cfg.Budget {
		out, splits = splitOversized(out, cfg)
		if splits > 0 {
			plan = Analyze(out)
			plan.Budget = cfg.Budget
		}
	}
	// Panel temporaries from splits are always flipped to no-cache, even
	// when the split brought the peak back under budget: they are
	// single-use by construction, and caching them would displace the
	// reusable entries the split was protecting. Size-based flips stay
	// gated on a residual overrun.
	noCache := map[string]bool{}
	if cfg.Budget > 0 && (splits > 0 || plan.Peak > cfg.Budget) {
		noCache = cacheFlips(out, cfg, plan.Peak > cfg.Budget)
	}
	// Early frees are worthwhile whenever a budget exists, even when the
	// profile fits: dead temporaries stop competing with cached values.
	// Splits and cache flips above stay gated on an actual overrun.
	var frees int
	if cfg.Budget > 0 {
		out, frees = insertFrees(out, plan)
	}
	final := Analyze(out)
	final.Budget = cfg.Budget
	final.Splits = splits
	final.Frees = frees
	final.noCache = noCache
	final.NoCache = make([]string, 0, len(noCache))
	for n := range noCache {
		final.NoCache = append(final.NoCache, n)
	}
	sort.Strings(final.NoCache)
	summarizeCache(out, final)
	if err := VerifyStream(out); err != nil {
		panic(fmt.Sprintf("memplan: rewritten stream invalid: %v", err))
	}
	return out, final
}

// splitOversized splits CP-placed matmuls whose output exceeds half the
// budget into row-panel chains: slice A into row panels, multiply each
// panel by B, and rbind the partial products back into the original output
// name. The dense kernel computes output rows independently, so the chain
// is bitwise-identical to the unsplit product; the rewrite bounds the
// largest single operand a plan materializes at once (an operand larger
// than the budget defeats eviction entirely — there is nothing to evict
// to make it fit).
func splitOversized(insts []compiler.Instruction, cfg Config) ([]compiler.Instruction, int) {
	out := make([]compiler.Instruction, 0, len(insts))
	splits := 0
	for i := range insts {
		inst := insts[i]
		if inst.Kind != compiler.KindOp || inst.Op != "mm" ||
			inst.Backend != core.BackendCP || len(inst.Inputs) != 2 ||
			len(inst.InShapes) != 2 {
			out = append(out, inst)
			continue
		}
		outBytes := inst.Shape.Bytes()
		if outBytes <= cfg.Budget/2 || inst.Shape.Rows < 2 {
			out = append(out, inst)
			continue
		}
		panelBytes := cfg.Budget / 8
		if panelBytes < 4096 {
			panelBytes = 4096
		}
		n := int((outBytes + panelBytes - 1) / panelBytes)
		if n < 2 {
			n = 2
		}
		if n > 16 {
			n = 16
		}
		if n > inst.Shape.Rows {
			n = inst.Shape.Rows
		}
		if n < 2 {
			out = append(out, inst)
			continue
		}
		splits++
		out = append(out, emitPanels(&inst, n, splits)...)
	}
	return out, splits
}

// emitPanels lowers one mm into its row-panel chain. Temp names use the
// reserved "_tsp<j>..." prefix: they share the runtime's "_t" temporary
// namespace (cleared at block end) without colliding with the compiler's
// numeric "_t<n>" temps.
func emitPanels(inst *compiler.Instruction, n, j int) []compiler.Instruction {
	a, b := inst.Inputs[0], inst.Inputs[1]
	aShape, bShape := inst.InShapes[0], inst.InShapes[1]
	rows, cols := inst.Shape.Rows, inst.Shape.Cols
	base, rem := rows/n, rows%n
	out := make([]compiler.Instruction, 0, 3*n)
	acc := ""
	accRows := 0
	start := 0
	for i := 0; i < n; i++ {
		r := base
		if i < rem {
			r++
		}
		sliceName := fmt.Sprintf("_tsp%ds%d", j, i)
		panelName := fmt.Sprintf("_tsp%dp%d", j, i)
		sliceShape := ir.Shape{Rows: r, Cols: aShape.Cols}
		panelShape := ir.Shape{Rows: r, Cols: cols}
		out = append(out, compiler.Instruction{
			Kind: compiler.KindOp, Op: "slice",
			Inputs: []string{a}, Outputs: []string{sliceName},
			Attrs: map[string]string{
				"r0": fmt.Sprint(start), "r1": fmt.Sprint(start + r),
				"c0": "0", "c1": "-1",
			},
			Backend:  core.BackendCP,
			Shape:    sliceShape,
			Flops:    costs.ElemwiseFlops(r*aShape.Cols, 1),
			InShapes: []ir.Shape{aShape},
		})
		out = append(out, compiler.Instruction{
			Kind: compiler.KindOp, Op: "mm",
			Inputs: []string{sliceName, b}, Outputs: []string{panelName},
			Backend:  core.BackendCP,
			Shape:    panelShape,
			Flops:    costs.MatMulFlops(r, aShape.Cols, bShape.Cols),
			InShapes: []ir.Shape{sliceShape, bShape},
		})
		if acc == "" {
			acc, accRows = panelName, r
		} else {
			name := fmt.Sprintf("_tsp%dr%d", j, i)
			if i == n-1 {
				name = inst.Output()
			}
			joined := ir.Shape{Rows: accRows + r, Cols: cols}
			out = append(out, compiler.Instruction{
				Kind: compiler.KindOp, Op: "rbind",
				Inputs: []string{acc, panelName}, Outputs: []string{name},
				Backend:  core.BackendCP,
				Shape:    joined,
				Flops:    costs.ElemwiseFlops(joined.Rows*joined.Cols, 1),
				InShapes: []ir.Shape{{Rows: accRows, Cols: cols}, panelShape},
			})
			acc, accRows = name, accRows+r
		}
		start += r
	}
	return out
}

// cacheFlips selects outputs whose cache-vs-recompute decision flips to
// recompute at compile time: panel-chain temporaries (single-use by
// construction, cheap to recompute from lineage) are always flipped, and
// when the plan still overruns the budget, so is any cacheable output
// larger than half the budget — caching one such object evicts half the
// cache, the classic thrash source on over-budget plans.
func cacheFlips(insts []compiler.Instruction, cfg Config, overBudget bool) map[string]bool {
	flips := make(map[string]bool)
	for i := range insts {
		inst := &insts[i]
		if inst.Kind != compiler.KindOp || !cacheableOp(inst.Op) {
			continue
		}
		name := inst.Outputs[0]
		switch {
		case strings.HasPrefix(name, "_tsp"):
			flips[name] = true
		case overBudget && inst.Backend == core.BackendCP && inst.Shape.Bytes() > cfg.Budget/2:
			flips[name] = true
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

// summarizeCache fills the plan's cacheable-put summary: total bytes the
// stream will attempt to PUT into the CP cache (deduplicated by output
// name, skipping flipped and over-budget objects), the entry count, and
// the largest entry. The runtime predicts minimum evictions from these.
func summarizeCache(insts []compiler.Instruction, plan *Plan) {
	seen := make(map[string]bool)
	for i := range insts {
		inst := &insts[i]
		if inst.Kind != compiler.KindOp || !cacheableOp(inst.Op) ||
			inst.Backend != core.BackendCP {
			continue
		}
		name := inst.Outputs[0]
		if seen[name] || plan.noCache[name] {
			continue
		}
		b := inst.Shape.Bytes()
		if plan.Budget > 0 && b > plan.Budget {
			continue // the cache refuses objects larger than the budget
		}
		seen[name] = true
		plan.CacheBytes += b
		plan.CacheEntries++
		if b > plan.MaxCacheEntry {
			plan.MaxCacheEntry = b
		}
	}
}
