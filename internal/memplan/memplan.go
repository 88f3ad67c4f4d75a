// Package memplan is MEMPHIS's compile-time memory planner: a static pass
// over the linearized instruction streams produced by compiler.CompileBlock
// (dynamic recompilation keeps streams straight-line, so loop bodies are
// analyzed as-executed-once per recompilation, with loop-carried variables
// appearing as block-external live-ins).
//
// The planner computes three artifacts per stream:
//
//  1. Liveness: first-use/last-use intervals per operand and a running
//     peak-memory profile, sized from the compiler's shape estimates.
//  2. Hints: a per-name lifetime classification (dead after the current
//     instruction / soon reused / unknown) that the runtime stamps onto
//     lineage-cache entries; internal/memctl's lifetime-grouped victim
//     selection consumes the stamps, with the hybrid Score as tiebreak.
//  3. Rewrites: when the profile's peak exceeds the budget, early-free
//     instructions are inserted at temporaries' last-use points, oversized
//     CP matmuls are split into row-panel chains (bounding the largest
//     single operand), and cache-vs-recompute decisions are flipped for
//     outputs too large to cache without thrashing.
//
// Planning is a pure function of the instruction stream and the budget:
// the same (stream, Config) always yields byte-identical plans, which the
// CI planner-determinism job asserts. Row-panel splitting preserves
// bitwise numeric results because the dense matmul kernel computes output
// rows independently (slicing A by rows, multiplying each panel by B, and
// rbinding the panels reproduces the unsplit product exactly).
package memplan

import (
	"fmt"
	"sort"
	"strings"

	"memphis/internal/compiler"
	"memphis/internal/memctl"
)

// Config parameterizes one planning pass.
type Config struct {
	// Budget is the target byte budget (normally the CP cache budget).
	// Rewrites fire only when the analyzed peak exceeds it; zero disables
	// rewrites and yields analysis plus hints only.
	Budget int64
	// EagerFrees inserts last-use frees even without a budget. The runtime
	// sets it when a buffer arena is attached: every planner free point is
	// an arena recycling opportunity, budget or not.
	EagerFrees bool
}

// DefaultWindow is the soon-reuse protection distance in instructions the
// runtime stamps lifetimes with: a cached value read again within it is
// classified LifeSoon.
const DefaultWindow = 8

// Interval is one operand's live range over a stream. Positions are
// instruction indices; Def is -1 for block-external live-ins. End models
// actual residency: live-ins and escaping (non-temporary) definitions stay
// bound to block end, temporaries end at their free point (or block end
// when unfreed).
type Interval struct {
	Name  string `json:"name"`
	Def   int    `json:"def"`   // defining position, -1 = live-in
	First int    `json:"first"` // first appearance
	Last  int    `json:"last"`  // last data use (read)
	End   int    `json:"end"`   // residency end (free point or block end)
	Bytes int64  `json:"bytes"`
	Temp  bool   `json:"temp"`
	Uses  int    `json:"uses"` // data uses (reads), excluding frees
}

// Plan is the planner's artifact for one instruction stream: the liveness
// table, the memory profile, and the hint/rewrite summary (the
// memplan.Hints of the design — attached to the compiled program and
// consumed by the runtime and the memctl arbiter).
type Plan struct {
	// Insts is the stream length the plan describes (post-rewrite).
	Insts int `json:"instructions"`
	// Intervals is the liveness table, sorted by (First, Name).
	Intervals []Interval `json:"intervals"`
	// Profile[i] is the modeled resident bytes while instruction i runs.
	Profile []int64 `json:"profile"`
	// Peak is max(Profile); PeakAt its first position.
	Peak   int64 `json:"peak_bytes"`
	PeakAt int   `json:"peak_at"`
	// Budget echoes the planning budget (0 = unbounded).
	Budget int64 `json:"budget"`
	// Frees/Splits count inserted early-free instructions and row-panel
	// matmul splits; NoCache lists outputs flipped to recompute.
	Frees   int      `json:"frees"`
	Splits  int      `json:"splits"`
	NoCache []string `json:"no_cache,omitempty"`
	// CacheBytes is the total bytes of cacheable CP puts the stream will
	// attempt (deduplicated by name, NoCache and over-budget objects
	// excluded); MaxCacheEntry and CacheEntries describe their granularity.
	// The runtime combines these with live cache state to predict the
	// minimum evictions per run.
	CacheBytes    int64 `json:"cache_bytes"`
	MaxCacheEntry int64 `json:"max_cache_entry"`
	CacheEntries  int   `json:"cache_entries"`

	noCache map[string]bool
	reads   map[string][]int // ascending read positions per name
}

// isTemp reports whether a name is a block-local temporary (compiler
// temps "_t<n>" and planner panel temps "_tsp..."; both are cleared at
// block end by the runtime).
func isTemp(name string) bool { return strings.HasPrefix(name, "_t") }

// Analyze computes the liveness table and memory profile of a stream.
// Non-literal inputs are uses; outputs of ordinary operators are
// definitions, while prefetch/broadcast/checkpoint outputs rebind their
// input name and count as uses. A KindFree ends its operand's residency
// without counting as a data use.
func Analyze(insts []compiler.Instruction) *Plan {
	p := &Plan{
		Insts:   len(insts),
		noCache: make(map[string]bool),
		reads:   make(map[string][]int),
	}
	type info struct {
		def     int // -1 live-in
		first   int
		last    int // last read
		end     int // residency end
		bytes   int64
		uses    int
		freedAt int // -1 when not freed
	}
	seen := make(map[string]*info)
	order := make([]string, 0, len(insts))
	touch := func(name string, pos int, bytes int64) *info {
		in := seen[name]
		if in == nil {
			in = &info{def: -1, first: pos, last: -1, freedAt: -1}
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
		if inst.Kind == compiler.KindFree {
			if len(inst.Inputs) == 1 && !compiler.IsLiteral(inst.Inputs[0]) {
				in := touch(inst.Inputs[0], i, 0)
				in.freedAt = i
			}
			continue
		}
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
			p.reads[op] = append(p.reads[op], i)
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
				p.reads[op] = append(p.reads[op], i)
			}
		}
	}
	end := len(insts) - 1
	p.Intervals = make([]Interval, 0, len(order))
	for _, name := range order {
		in := seen[name]
		e := end
		if in.freedAt >= 0 {
			e = in.freedAt
		} else if in.def < 0 && in.last >= 0 {
			// Live-ins with no free stay bound beyond the block; model
			// them resident throughout.
			e = end
		}
		last := in.last
		if last < 0 {
			last = in.def
		}
		p.Intervals = append(p.Intervals, Interval{
			Name: name, Def: in.def, First: in.first, Last: last, End: e,
			Bytes: in.bytes, Temp: isTemp(name), Uses: in.uses,
		})
	}
	sort.Slice(p.Intervals, func(i, j int) bool {
		if p.Intervals[i].First != p.Intervals[j].First {
			return p.Intervals[i].First < p.Intervals[j].First
		}
		return p.Intervals[i].Name < p.Intervals[j].Name
	})
	p.computeProfile()
	return p
}

// computeProfile sweeps the intervals into a per-instruction resident-byte
// profile. An interval [start, End] contributes its bytes from its first
// appearance through its residency end inclusive.
func (p *Plan) computeProfile() {
	p.Profile = make([]int64, p.Insts)
	if p.Insts == 0 {
		return
	}
	delta := make([]int64, p.Insts+1)
	for _, iv := range p.Intervals {
		start := iv.First
		end := iv.End
		if end < start {
			end = start
		}
		delta[start] += iv.Bytes
		delta[end+1] -= iv.Bytes
	}
	var run int64
	for i := 0; i < p.Insts; i++ {
		run += delta[i]
		p.Profile[i] = run
		if run > p.Peak {
			p.Peak = run
			p.PeakAt = i
		}
	}
}

// NextUse returns the first read position of name strictly after pos, or
// -1 when the plan has no further read.
func (p *Plan) NextUse(name string, pos int) int {
	reads := p.reads[name]
	i := sort.SearchInts(reads, pos+1)
	if i < len(reads) {
		return reads[i]
	}
	return -1
}

// LifetimeAt classifies a name's liveness relative to position pos: dead
// when a temporary has no further read (non-temporaries escape the block,
// so they are never classified dead), soon when the next read is within
// the window, unknown otherwise. This is the hint the runtime stamps onto
// cache entries for lifetime-grouped victim selection.
func (p *Plan) LifetimeAt(name string, pos, window int) memctl.Lifetime {
	nu := p.NextUse(name, pos)
	if nu < 0 {
		if isTemp(name) {
			return memctl.LifeDead
		}
		return memctl.LifeUnknown
	}
	if nu-pos <= window {
		return memctl.LifeSoon
	}
	return memctl.LifeUnknown
}

// SkipCache reports whether the plan flipped the named output to
// recompute-from-lineage (no probe, no put).
func (p *Plan) SkipCache(name string) bool { return p.noCache[name] }

// Marshal renders the plan deterministically for byte-comparison (the
// planner-determinism CI job) and the -plan -json dump. Maps are
// serialized in sorted order; no timestamps or addresses appear.
func (p *Plan) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "insts=%d peak=%d@%d budget=%d frees=%d splits=%d cache=%d/%d max=%d\n",
		p.Insts, p.Peak, p.PeakAt, p.Budget, p.Frees, p.Splits,
		p.CacheBytes, p.CacheEntries, p.MaxCacheEntry)
	for _, iv := range p.Intervals {
		fmt.Fprintf(&b, "iv %s def=%d first=%d last=%d end=%d bytes=%d temp=%t uses=%d\n",
			iv.Name, iv.Def, iv.First, iv.Last, iv.End, iv.Bytes, iv.Temp, iv.Uses)
	}
	for _, n := range p.NoCache {
		fmt.Fprintf(&b, "nocache %s\n", n)
	}
	fmt.Fprintf(&b, "profile")
	for _, v := range p.Profile {
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteString("\n")
	return []byte(b.String())
}
