package runtime

import (
	"fmt"
	"slices"
	"sort"

	"memphis/internal/compiler"
	"memphis/internal/key"
)

// planRecord accumulates what a session observed while running one planned
// stream; it is a report row, not a cache. Rows are keyed by stream
// signature, so blocks that compile to the same stream (loop iterations once
// shapes stabilize) share one. The plan and the stream belong to the
// CompiledBlock; the row points at the first block seen with its signature.
type planRecord struct {
	cb *CompiledBlock

	runs      int64
	evictions int64 // measured CP evictions attributed to this stream
}

// PlanReport is the per-stream planner report exposed to the facade and the
// CLI's -plan dumps.
type PlanReport struct {
	Seq          int    `json:"seq"`
	Sig          string `json:"sig"`
	Runs         int64  `json:"runs"`
	Instructions int    `json:"instructions"`
	// PeakBytes is the total modeled bytes of the stream's operands and
	// results, sized from compile-time shapes: nothing is released before
	// block end, so the sum is the stream's peak. It counts no other
	// variable in scope.
	PeakBytes int64 `json:"peak_bytes"`
	Budget    int64 `json:"budget"`
	// NoCache lists the flipped outputs; each report holds its own copy.
	NoCache   []string `json:"no_cache,omitempty"`
	Evictions int64    `json:"evictions"`
	Stream    []string `json:"stream"`
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
			Seq:          seq,
			Sig:          fmt.Sprintf("%016x", rec.cb.Sig),
			Runs:         rec.runs,
			Instructions: len(insts),
			PeakBytes:    plan.Peak,
			Budget:       plan.Budget,
			NoCache:      slices.Clone(plan.NoCache),
			Evictions:    rec.evictions,
			Stream:       stream,
		})
	}
	return out
}
