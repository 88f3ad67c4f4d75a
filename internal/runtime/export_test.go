package runtime

import (
	"fmt"
	"hash/fnv"

	"memphis/internal/ir"
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
		if v, bound := ctx.vars[name]; bound {
			fmt.Fprintf(h, "%s=%dx%d;", name, v.Rows, v.Cols)
		} else {
			fmt.Fprintf(h, "%s=?;", name)
		}
	}
	fmt.Fprintf(h, "|cc:%s", ctx.Conf.Compiler.Fold())
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
