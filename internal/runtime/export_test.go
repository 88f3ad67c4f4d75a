package runtime

import (
	"fmt"
	"hash/fnv"
	"sort"

	"memphis/internal/compiler"
	"memphis/internal/ir"
	"memphis/internal/lineage"
)

// refBlockKey is the fmt-based block key that blockKey's appender replaced,
// kept as its oracle: the two must agree on every block in every
// environment, because block keys pick BlockCache shards.
func refBlockKey(ctx *Context, bb *ir.BasicBlock) uint64 {
	ctx.blockKey(bb) // fills the per-block memo both keys read
	parts := ctx.bbKeys[bb]
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|", parts.fp)
	for _, name := range parts.reads {
		if v := ctx.LMap.value(name); v != nil {
			fmt.Fprintf(h, "%s=%dx%d;", name, v.Rows, v.Cols)
		} else {
			fmt.Fprintf(h, "%s=?;", name)
		}
	}
	c := ctx.Conf.Compiler
	fmt.Fprintf(h, "|cc:opmem=%d,gpu=%t,gpumin=%d,async=%t,maxpar=%t,chk=%t,fuse=%t",
		c.OpMemBudget, c.GPUEnabled, c.GPUMinCells, c.Async, c.MaxParallelize,
		c.CheckpointInjection, c.Fusion)
	if ctx.Conf.MemoryPlanner {
		fmt.Fprintf(h, "|mp:%d", ctx.Conf.Cache.CPBudget)
	}
	return h.Sum64()
}

// BlockKeyMismatches compares blockKey with refBlockKey over every basic
// block of p — main, function bodies, and the condition blocks the session
// has made — in the context's current environment. It returns the number
// of blocks compared and a line per disagreement.
func BlockKeyMismatches(ctx *Context, p *ir.Program) (int, []string) {
	var blocks []*ir.BasicBlock
	visit := func(b ir.Block) {
		if bb, ok := b.(*ir.BasicBlock); ok {
			blocks = append(blocks, bb)
		}
	}
	ir.Walk(p.Main, visit)
	for _, f := range p.Funcs {
		ir.Walk(f.Body, visit)
	}
	for _, bb := range ctx.condBBs {
		blocks = append(blocks, bb)
	}
	var bad []string
	for i, bb := range blocks {
		if got, want := ctx.blockKey(bb), refBlockKey(ctx, bb); got != want {
			bad = append(bad, fmt.Sprintf("block %d (%d stmts): key %016x, fmt reference %016x", i, len(bb.Stmts), got, want))
		}
	}
	return len(blocks), bad
}

// refStreamSig and refShareSig are the fmt and hash/fnv signatures that
// streamSig's and shareSig's key.Hash folds replaced, kept verbatim as their
// oracles: stream signatures name planner report rows ("sig" in
// memphis-run -plan -json) and share signatures key the cross-tenant cache.
func refStreamSig(insts []compiler.Instruction) uint64 {
	h := fnv.New64a()
	for i := range insts {
		in := &insts[i]
		fmt.Fprintf(h, "%s|%dx%d", in.String(), in.Shape.Rows, in.Shape.Cols)
		for _, s := range in.InShapes {
			fmt.Fprintf(h, ",%dx%d", s.Rows, s.Cols)
		}
		if len(in.Attrs) > 0 {
			keys := make([]string, 0, len(in.Attrs))
			for k := range in.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(h, ";%s=%s", k, in.Attrs[k])
			}
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func refShareSig(ctx *Context, it *lineage.Item) (uint64, bool) {
	names := ctx.readLeafNames(it)
	if len(names) == 0 {
		return 0, false
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, n := range names {
		sum, ok := ctx.inputSigs[n]
		if !ok {
			return 0, false
		}
		h.Write([]byte(n))
		h.Write([]byte{0})
		for i := 0; i < 8; i++ {
			buf[i] = byte(sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64(), true
}

// SigMismatches compares the signature of every stream the session
// compiled, and the share signature of every item it offered to or probed
// in a shared cache, with their references. It returns the number of
// streams and of signed items compared and a line per disagreement.
func SigMismatches(ctx *Context) (streams, signed int, bad []string) {
	for _, cb := range CompiledStreams(ctx) {
		if got, want := streamSig(cb.Insts), refStreamSig(cb.Insts); got != want {
			bad = append(bad, fmt.Sprintf("stream of %d instructions: sig %016x, fmt reference %016x", len(cb.Insts), got, want))
		}
		streams++
	}
	for it := range ctx.leafMemo {
		got, gotOK := ctx.shareSig(it)
		want, wantOK := refShareSig(ctx, it)
		if got != want || gotOK != wantOK {
			bad = append(bad, fmt.Sprintf("item %s: share sig %016x/%t, reference %016x/%t", it.Opcode(), got, gotOK, want, wantOK))
		}
		if gotOK {
			signed++
		}
	}
	return streams, signed, bad
}

// CompiledStreams returns every block resident in the session's own
// compile cache.
func CompiledStreams(ctx *Context) []*CompiledBlock {
	var out []*CompiledBlock
	if ctx.own == nil {
		return nil
	}
	for i := range ctx.own.shards {
		for _, cb := range ctx.own.shards[i].m {
			out = append(out, cb)
		}
	}
	return out
}

// Execute is the tests' entry point for one instruction: execute, in a
// frame of the instruction's stream. The instruction must be prepared
// (compiler.Prepare): executing one that is not is a programming error and
// panics. Outside an execution of its stream, the instruction runs in a
// frame of its own.
func (ctx *Context) Execute(inst *compiler.Instruction) error {
	if !inst.Prepared() {
		panic(fmt.Sprintf("runtime: instruction %s was not prepared: streams must pass through compiler.Prepare before execution", inst))
	}
	if l := inst.Layout(); l != ctx.layout {
		m := ctx.enterFrame(l)
		defer ctx.leaveFrame(m)
	}
	return ctx.execute(inst)
}
