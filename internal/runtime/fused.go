package runtime

import (
	"fmt"
	"strings"

	"memphis/internal/compiler"
	"memphis/internal/data"
	"memphis/internal/lineage"
)

// Fused-instruction execution and lineage. A fused instruction is a chain
// of elementwise constituents collapsed by the compiler (internal/compiler
// FuseElementwise); the runtime executes it as one loop via the data-layer
// fused interpreter, drawing the output buffer from the session arena when
// one is configured. Lineage is the part that must NOT be fused: the
// constituent ops are replayed one by one into lineage items, so the final
// output's reuse key is identical to what unfused execution would produce —
// a cache populated with fusion off hits with fusion on and vice versa.

// fusedProgram parses (and memoizes) a fused instruction's step program.
// The driver loop is single-threaded per session, so the memo needs no lock
// and parsed programs can reuse their internal scratch across executions.
func (ctx *Context) fusedProgram(inst *compiler.Instruction) (*data.FusedProgram, error) {
	prog := inst.Attr("prog")
	if fp, ok := ctx.fusedProgs[prog]; ok {
		return fp, nil
	}
	fp, err := data.ParseFused(prog)
	if err != nil {
		return nil, err
	}
	if ctx.fusedProgs == nil {
		ctx.fusedProgs = make(map[string]*data.FusedProgram)
	}
	ctx.fusedProgs[prog] = fp
	return fp, nil
}

// evalFused executes a fused instruction's chain over its leaf operands.
func (ctx *Context) evalFused(inst *compiler.Instruction) (*data.Matrix, error) {
	fp, err := ctx.fusedProgram(inst)
	if err != nil {
		return nil, fmt.Errorf("runtime: %s: %w", inst, err)
	}
	leaves := make([]*data.Matrix, len(inst.Inputs))
	for i := range inst.Inputs {
		m, err := ctx.hostIn(inst, i)
		if err != nil {
			return nil, err
		}
		leaves[i] = m
	}
	return data.EvalFused(fp, leaves, ctx.arena), nil
}

// traceFused replays the constituent ops of a fused instruction through the
// lineage map, charging the trace cost per constituent. Each step's item is
// built exactly as the unfused instruction's trace would build it (same
// opcode, same sorted attr + positional-literal data encoding, same input
// items), so the final key is stable across fusion on/off.
func (ctx *Context) traceFused(inst *compiler.Instruction) *lineage.Item {
	fp, err := ctx.fusedProgram(inst)
	if err != nil {
		// Unparseable program: fall back to a generic trace of the fused
		// instruction itself (still deterministic, just fusion-specific).
		ctx.Clock.Advance(ctx.Model.Trace)
		var inputs []string
		for _, in := range inst.Inputs {
			if !compiler.IsLiteral(in) {
				inputs = append(inputs, in)
			}
		}
		return ctx.LMap.Trace(inst.Output(), inst.Op, lineageData(inst), inputs...)
	}
	items := make([]*lineage.Item, len(fp.Steps))
	for k := range fp.Steps {
		st := &fp.Steps[k]
		ctx.Clock.Advance(ctx.Model.Trace)
		var parts []string
		if st.PStr != "" {
			parts = append(parts, "p="+st.PStr)
		}
		var inputs []*lineage.Item
		for ai, a := range st.Args {
			if a.Leaf >= 0 {
				name := inst.Inputs[a.Leaf]
				if compiler.IsLiteral(name) {
					parts = append(parts, fmt.Sprintf("in%d=%s", ai, compiler.LiteralValue(name)))
					continue
				}
				inputs = append(inputs, ctx.LMap.GetOrLeaf(name))
				continue
			}
			inputs = append(inputs, items[a.Step])
		}
		items[k] = lineage.NewItem(st.Op, strings.Join(parts, ";"), inputs...)
	}
	final := items[len(items)-1]
	ctx.LMap.TraceItem(inst.Output(), final)
	return final
}

// shared is the arena's one ownership rule, applied at every hand-off that
// gives a host buffer a second owner without copying it — a row view, the
// lazy closure of a parallelized RDD, a broadcast, a device pointer: the
// buffer escapes the arena, so only single-owner buffers are ever recycled.
// (Handing off a view needs nothing more: its base escaped when it was made.)
func (ctx *Context) shared(m *data.Matrix) *data.Matrix {
	if ctx.arena != nil {
		ctx.arena.Escape(m)
	}
	return m
}

// recycleValue returns a host matrix to the arena at a free point (planner
// KindFree or block-end clearTemps) when it is safe: the buffer must still
// be arena-owned (never escaped into a cache or shared with another owner)
// and no other binding may alias it. A deferred transpose still reading the
// buffer is materialized first, so the recycled cells are never read through
// it. name is the binding being released.
func (ctx *Context) recycleValue(name string, v *Value) {
	if ctx.arena == nil || v == nil || v.M == nil {
		return
	}
	if !ctx.arena.Vended(v.M) {
		return
	}
	for n, o := range ctx.vars {
		if n == name || o == nil {
			continue
		}
		if o == v || o.M == v.M {
			return
		}
	}
	for _, o := range ctx.vars {
		if o != nil && o.tSrc == v.M {
			o.host()
		}
	}
	ctx.arena.Put(v.M)
}
