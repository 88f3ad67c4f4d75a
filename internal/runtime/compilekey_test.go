package runtime

import (
	"testing"

	"memphis/internal/data"
	"memphis/internal/ir"
)

// keyCtx builds a context with a compile cache attached under the given
// program key, with inputs of the given shape bound.
func keyCtx(t *testing.T, progKey uint64, rows, cols int, mutate func(*Config)) *Context {
	t.Helper()
	conf := testConfig(ReuseMemphis)
	if mutate != nil {
		mutate(&conf)
	}
	ctx := New(conf)
	t.Cleanup(func() { ctx.Close() })
	ctx.BindHost("X", data.RandNorm(rows, cols, 0, 1, 1))
	ctx.AttachCompileCache(noopCompileCache{}, progKey)
	return ctx
}

// noopCompileCache satisfies the interface for key-only tests.
type noopCompileCache struct{}

func (noopCompileCache) LookupCompiled(uint64) (*CompiledBlock, bool)             { return nil, false }
func (noopCompileCache) StoreCompiled(_ uint64, cb *CompiledBlock) *CompiledBlock { return cb }

// TestBlockKeyComposition is the table-driven key test for the compile
// cache: every component of the key — block structure, statement literals,
// input shapes, compiler config, and planner budget — must separate
// entries; identical setups must collide, whatever program key the cache
// was attached under, since a block compiles the same in any program.
func TestBlockKeyComposition(t *testing.T) {
	block := func(lit float64) *ir.BasicBlock {
		return ir.BB(ir.Assign("z", ir.Mul(ir.TSMM(ir.Var("X")), ir.Lit(lit))))
	}
	base := func() (*Context, *ir.BasicBlock) { return keyCtx(t, 1, 16, 4, nil), block(2) }

	cases := []struct {
		name  string
		same  bool // whether the variant key must equal the base key
		build func() (*Context, *ir.BasicBlock)
	}{
		{"identical setup", true, base},
		{"different program key", true, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 2, 16, 4, nil), block(2)
		}},
		{"different literal", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 16, 4, nil), block(3)
		}},
		{"different block structure", false, func() (*Context, *ir.BasicBlock) {
			ctx := keyCtx(t, 1, 16, 4, nil)
			return ctx, ir.BB(ir.Assign("z", ir.TSMM(ir.Var("X"))))
		}},
		{"different input shape", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 32, 4, nil), block(2)
		}},
		{"unbound read variable", false, func() (*Context, *ir.BasicBlock) {
			ctx := keyCtx(t, 1, 16, 4, nil)
			ctx.removeVar("X")
			return ctx, block(2)
		}},
		{"different compiler config", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 16, 4, func(c *Config) { c.Compiler.OpMemBudget = 1 << 10 }), block(2)
		}},
		{"planner configured", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 16, 4, func(c *Config) { c.MemoryPlanner = true }), block(2)
		}},
	}

	refCtx, refBB := base()
	ref := refCtx.blockKey(refBB)
	for _, tc := range cases {
		ctx, bb := tc.build()
		got := ctx.blockKey(bb)
		if tc.same && got != ref {
			t.Errorf("%s: key %016x != base %016x, want equal", tc.name, got, ref)
		}
		if !tc.same && got == ref {
			t.Errorf("%s: key collides with base (%016x)", tc.name, got)
		}
	}

	// Different planner budgets (the driver cache budget) must not share
	// planned streams.
	planned := func(budget int64) func(*Config) {
		return func(c *Config) { c.MemoryPlanner, c.Cache.CPBudget = true, budget }
	}
	a, bbA := keyCtx(t, 1, 16, 4, planned(1<<20)), block(2)
	b, bbB := keyCtx(t, 1, 16, 4, planned(1<<16)), block(2)
	if a.blockKey(bbA) == b.blockKey(bbB) {
		t.Error("different memplan budgets must produce distinct block keys")
	}

	// Every compiler field is written into the key as the fmt reference
	// prints it: each change below (applied in turn to one session) must
	// move the key and keep it equal to the reference, with every bool
	// flipped both ways.
	ctx, bb := base()
	for _, change := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"config changed after a key", func(c *Config) { c.Compiler.OpMemBudget = 1 << 10 }},
		{"GPU chain minimum", func(c *Config) { c.Compiler.GPUMinCells = 1 << 8 }},
		{"GPU on", func(c *Config) { c.Compiler.GPUEnabled = true }},
		{"async on", func(c *Config) { c.Compiler.Async = true }},
		{"max-parallelize on", func(c *Config) { c.Compiler.MaxParallelize = true }},
		{"checkpoint injection on", func(c *Config) { c.Compiler.CheckpointInjection = true }},
		{"fusion on", func(c *Config) { c.Compiler.Fusion = true }},
		{"GPU off", func(c *Config) { c.Compiler.GPUEnabled = false }},
		{"async off", func(c *Config) { c.Compiler.Async = false }},
		{"max-parallelize off", func(c *Config) { c.Compiler.MaxParallelize = false }},
		{"checkpoint injection off", func(c *Config) { c.Compiler.CheckpointInjection = false }},
		{"fusion off", func(c *Config) { c.Compiler.Fusion = false }},
	} {
		before := ctx.blockKey(bb)
		change.mutate(&ctx.Conf)
		got := ctx.blockKey(bb)
		if got == before || got != refBlockKey(ctx, bb) {
			t.Errorf("%s: key %016x (before %016x, fmt reference %016x)", change.name, got, before, refBlockKey(ctx, bb))
		}
	}
}

// BenchmarkBlockKey is the per-block-execution key of a warm session: a
// block reading three bound variables and one unbound, under the planner.
// Its components are memoized and its bytes hashed directly, so it
// allocates nothing.
func BenchmarkBlockKey(b *testing.B) {
	conf := testConfig(ReuseMemphis)
	conf.MemoryPlanner = true
	ctx := New(conf)
	defer ctx.Close()
	ctx.BindHost("X", data.RandNorm(64, 8, 0, 1, 1))
	ctx.BindHost("y", data.RandNorm(64, 1, 0, 1, 2))
	ctx.BindHost("reg", data.Scalar(0.5))
	bb := ir.BB(
		ir.Assign("A", ir.Add(ir.TSMM(ir.Var("X")), ir.Var("reg"))),
		ir.Assign("beta", ir.Solve(ir.Var("A"), ir.MatMul(ir.T(ir.Var("X")), ir.Var("y")))),
		ir.Assign("z", ir.Mul(ir.Var("beta"), ir.Var("w"))),
	)
	ctx.blockKey(bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.blockKey(bb)
	}
}
