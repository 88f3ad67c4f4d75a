package runtime

import (
	"fmt"
	"sort"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/key"
	"memphis/internal/memplan"
)

// planRecord accumulates what a session observed while running one planned
// stream; it is a report row, not a cache. Rows are keyed by stream
// signature, so blocks that compile to the same stream (loop iterations once
// shapes stabilize) share one. The plan and the stream belong to the
// CompiledBlock; the row points at the first block seen with its signature.
type planRecord struct {
	cb *CompiledBlock

	runs          int64
	evictions     int64 // measured CP evictions attributed to this stream
	peakLiveBytes int64 // max observed live variable bytes during execution
}

// PlanReport is the per-stream planner report exposed to the facade and the
// CLIs (-plan dumps and profile diffs).
type PlanReport struct {
	Seq          int    `json:"seq"`
	Sig          string `json:"sig"`
	Runs         int64  `json:"runs"`
	Instructions int    `json:"instructions"`
	// PeakBytes is the plan's modeled peak over the stream's own values
	// (its operands and results, sized from compile-time shapes); PeakAt
	// is its first position.
	PeakBytes int64    `json:"peak_bytes"`
	PeakAt    int      `json:"peak_at"`
	Budget    int64    `json:"budget"`
	NoCache   []string `json:"no_cache,omitempty"`
	Evictions int64    `json:"evictions"`
	// PeakLiveBytes is sampled while the stream runs and sums every bound
	// variable in scope, whether the stream touches it or not. It is not
	// comparable with PeakBytes: plan 3 of ridge.dml under a 16 KB budget
	// reads 8 B modeled against 528 536 B sampled. ROADMAP item 8(d)
	// defines live bytes per stream before the two can be checked
	// against each other.
	PeakLiveBytes int64              `json:"peak_live_bytes"`
	Intervals     []memplan.Interval `json:"intervals"`
	Profile       []int64            `json:"profile"`
	Stream        []string           `json:"stream"`
}

// streamSig fingerprints a compiled stream: opcode, operands, backend,
// attrs, and the compile-time shapes. Two blocks that compile identically
// (the common case across loop iterations) share a signature and therefore
// a planner report row. Attrs must be included: ops like slice
// (r0/r1/c0/c1), sliceRows (n), and dropout (p, seed) carry their semantics
// only in Attrs, so omitting them would alias differently-parameterized
// streams onto one row.
func streamSig(insts []compiler.Instruction) uint64 {
	h := key.New()
	for i := range insts {
		in := &insts[i]
		h = h.Str(in.String()).Byte('|').Int(int64(in.Shape.Rows)).Byte('x').Int(int64(in.Shape.Cols))
		for _, s := range in.InShapes {
			h = h.Byte(',').Int(int64(s.Rows)).Byte('x').Int(int64(s.Cols))
		}
		if len(in.Attrs) > 0 {
			keys := make([]string, 0, len(in.Attrs))
			for k := range in.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h = h.Byte(';').Str(k).Byte('=').Str(in.Attrs[k])
			}
		}
		h = h.Byte('\n')
	}
	return h.Sum64()
}

// planRecordFor returns the report row of a planned block, adding one the
// first time its stream signature is seen.
func (ctx *Context) planRecordFor(cb *CompiledBlock) *planRecord {
	rec, ok := ctx.planRecs[cb.Sig]
	if !ok {
		if ctx.planRecs == nil {
			ctx.planRecs = make(map[uint64]*planRecord)
		}
		rec = &planRecord{cb: cb}
		ctx.planRecs[cb.Sig] = rec
		ctx.planOrder = append(ctx.planOrder, rec)
	}
	return rec
}

// sampleLive sums the resident bytes of all bound variables, deduplicated
// by value identity (aliases from assignments share a *Value). Host and
// device copies both count; a value with both counts each copy once.
func (ctx *Context) sampleLive() int64 {
	seen := make(map[*Value]bool, len(ctx.LMap.scope))
	var total int64
	for _, c := range ctx.LMap.scope {
		v := c.v
		if v == nil || seen[v] {
			continue
		}
		seen[v] = true
		if v.M != nil {
			total += v.M.SizeBytes()
		} else if v.tSrc != nil {
			total += v.SizeBytes() // deferred: the logical size, as if built
		}
		if v.HasGPU() {
			total += v.GPU.Size()
		}
	}
	return total
}

// stampPlan stamps the active plan's lifetime classification for name onto
// a cache entry (no-op without an active plan). The stamp feeds memctl's
// lifetime-grouped victim selection.
func (ctx *Context) stampPlan(e *core.Entry, name string) {
	if ctx.activePlan == nil || e == nil {
		return
	}
	ctx.Cache.StampLifetime(e, ctx.activePlan.LifetimeAt(name, ctx.planPos, memplan.DefaultWindow))
}

// skipCache reports whether the active plan flipped the instruction's
// output to recompute-from-lineage.
func (ctx *Context) skipCache(name string) bool {
	return ctx.activePlan != nil && ctx.activePlan.SkipCache(name)
}

// PlanReports returns one report per planned stream in first-seen order,
// combining the static plan with the runtime's measured counters. Empty
// without an active memory planner.
func (ctx *Context) PlanReports() []PlanReport {
	out := make([]PlanReport, 0, len(ctx.planOrder))
	for seq, rec := range ctx.planOrder {
		plan, insts := rec.cb.Plan, rec.cb.Insts
		stream := make([]string, len(insts))
		for i := range insts {
			stream[i] = insts[i].String()
		}
		out = append(out, PlanReport{
			Seq:           seq,
			Sig:           fmt.Sprintf("%016x", rec.cb.Sig),
			Runs:          rec.runs,
			Instructions:  plan.Insts,
			PeakBytes:     plan.Peak,
			PeakAt:        plan.PeakAt,
			Budget:        plan.Budget,
			NoCache:       plan.NoCache,
			Evictions:     rec.evictions,
			PeakLiveBytes: rec.peakLiveBytes,
			Intervals:     plan.Intervals,
			Profile:       plan.Profile,
			Stream:        stream,
		})
	}
	return out
}
