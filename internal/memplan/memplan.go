// Package memplan is MEMPHIS's compile-time memory planner: a static pass
// over the linearized instruction streams produced by compiler.CompileBlock
// (dynamic recompilation keeps streams straight-line, so loop bodies are
// analyzed as-executed-once per recompilation, with loop-carried variables
// appearing as block-external live-ins).
//
// The planner computes two artifacts per stream and never rewrites it:
//
//  1. Liveness: first-use/last-use intervals per operand, sized from the
//     compiler's shape estimates, and their sum. Nothing is released
//     mid-block (the runtime clears temporaries at block end), so every
//     operand stays resident from its first appearance to the end of the
//     block, and the sum of the operand bytes is the stream's peak.
//  2. Cache flips: when that peak exceeds the budget, the
//     cache-vs-recompute decision flips for outputs too large to cache
//     without thrashing; a flip changes no computed value.
//
// Planning is a pure function of the instruction stream and the budget:
// the same (stream, Config) always yields byte-identical plans, which the
// CI planner-determinism job asserts.
package memplan

import (
	"sort"
	"strings"

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

// Interval is one operand's live range over a stream. Positions are
// instruction indices; Def is -1 for block-external live-ins. Every
// operand stays resident from First to block end.
type Interval struct {
	Name  string `json:"name"`
	Def   int    `json:"def"`   // defining position, -1 = live-in
	First int    `json:"first"` // first appearance
	Last  int    `json:"last"`  // last data use (read)
	Bytes int64  `json:"bytes"`
	Temp  bool   `json:"temp"`
	Uses  int    `json:"uses"` // data uses (reads)
}

// Plan is the planner's artifact for one instruction stream: the liveness
// table, its byte sum, and the cache flips, attached to the compiled
// program; the runtime skips the probe and put of a flipped output.
type Plan struct {
	// Insts is the stream length the plan describes.
	Insts int `json:"instructions"`
	// Intervals is the liveness table, sorted by (First, Name).
	Intervals []Interval `json:"intervals"`
	// Peak is the sum of the intervals' bytes: nothing is released before
	// block end, so it is what the stream holds once its last operand is
	// resident.
	Peak int64 `json:"peak_bytes"`
	// Budget echoes the planning budget (0 = unbounded).
	Budget int64 `json:"budget"`
	// NoCache lists outputs flipped to recompute.
	NoCache []string `json:"no_cache,omitempty"`

	noCache map[string]bool
}

// isTemp reports whether a name is a block-local temporary (compiler temps
// "_t<n>", cleared at block end by the runtime).
func isTemp(name string) bool { return strings.HasPrefix(name, "_t") }

// Analyze computes the liveness table of a stream and its byte sum.
// Non-literal inputs are uses; outputs of ordinary operators are
// definitions, while prefetch/broadcast/checkpoint outputs rebind their
// input name and count as uses.
func Analyze(insts []compiler.Instruction) *Plan {
	p := &Plan{Insts: len(insts)}
	type info struct {
		def   int // -1 live-in
		first int
		last  int // last read
		bytes int64
		uses  int
	}
	seen := make(map[string]*info)
	order := make([]string, 0, len(insts))
	touch := func(name string, pos int, bytes int64) *info {
		in := seen[name]
		if in == nil {
			in = &info{def: -1, first: pos, last: -1}
			seen[name] = in
			order = append(order, name)
		}
		if bytes > in.bytes {
			in.bytes = bytes
		}
		return in
	}
	for i := range insts {
		inst := &insts[i]
		for j, op := range inst.Inputs {
			if compiler.IsLiteral(op) {
				continue
			}
			var b int64
			if j < len(inst.InShapes) {
				b = inst.InShapes[j].Bytes()
			}
			in := touch(op, i, b)
			in.last = i
			in.uses++
		}
		if inst.Kind == compiler.KindOp {
			for _, op := range inst.Outputs {
				if op == "_" || compiler.IsLiteral(op) {
					continue
				}
				in := touch(op, i, inst.Shape.Bytes())
				if in.def < 0 {
					in.def = i
				}
			}
		} else {
			// prefetch/broadcast/checkpoint rebind the same name: a use.
			for _, op := range inst.Outputs {
				if op == "_" || op == "" || compiler.IsLiteral(op) {
					continue
				}
				in := touch(op, i, 0)
				in.last = i
				in.uses++
			}
		}
	}
	p.Intervals = make([]Interval, 0, len(order))
	for _, name := range order {
		in := seen[name]
		last := in.last
		if last < 0 {
			last = in.def
		}
		p.Intervals = append(p.Intervals, Interval{
			Name: name, Def: in.def, First: in.first, Last: last,
			Bytes: in.bytes, Temp: isTemp(name), Uses: in.uses,
		})
		p.Peak += in.bytes
	}
	sort.Slice(p.Intervals, func(i, j int) bool {
		if p.Intervals[i].First != p.Intervals[j].First {
			return p.Intervals[i].First < p.Intervals[j].First
		}
		return p.Intervals[i].Name < p.Intervals[j].Name
	})
	return p
}

// SkipCache reports whether the plan flipped the named output to
// recompute-from-lineage (no probe, no put).
func (p *Plan) SkipCache(name string) bool { return p.noCache[name] }

// Apply plans one compiled stream: the analysis, the budget, and, when the
// analyzed peak overruns a positive budget, the cache flips. The result is
// a pure function of (insts, cfg).
func Apply(insts []compiler.Instruction, cfg Config) *Plan {
	plan := Analyze(insts)
	plan.Budget = cfg.Budget
	if cfg.Budget > 0 && plan.Peak > cfg.Budget {
		plan.noCache = cacheFlips(insts, cfg.Budget)
		for n := range plan.noCache {
			plan.NoCache = append(plan.NoCache, n)
		}
		sort.Strings(plan.NoCache)
	}
	return plan
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
