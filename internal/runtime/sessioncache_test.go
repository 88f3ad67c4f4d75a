package runtime

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/faults"
	"memphis/internal/ir"
	"memphis/internal/lineage"
)

// controlFlowProgram has every block kind a session meets: a function called
// from a for loop (with a repeated argument, so multi-level reuse hits), a
// while loop, an if, literal assignments, and conditions evaluated through
// evalScalar.
func controlFlowProgram() *ir.Program {
	p := ir.NewProgram()
	p.Define(&ir.Function{
		Name: "score", Params: []string{"X", "y", "reg"}, Returns: []string{"s"}, Deterministic: true,
		Body: []ir.Block{ir.BB(
			ir.Assign("A", ir.Add(ir.TSMM(ir.Var("X")), ir.Var("reg"))),
			ir.Assign("b", ir.MatMul(ir.T(ir.Var("X")), ir.Var("y"))),
			ir.Assign("s", ir.Sum(ir.Solve(ir.Var("A"), ir.Var("b")))),
		)},
	})
	grad := ir.MatMul(ir.T(ir.Var("X")), ir.Sub(ir.MatMul(ir.Var("X"), ir.Var("w")), ir.Var("y")))
	p.Main = []ir.Block{
		ir.BB(ir.Assign("acc", ir.Lit(0)), ir.Assign("k", ir.Lit(0)), ir.Assign("w", ir.Var("w0"))),
		ir.For("reg", []float64{0.5, 2, 0.5},
			ir.BB(ir.Call("score", []string{"s"}, ir.Var("X"), ir.Var("y"), ir.Var("reg"))),
			ir.BB(ir.Assign("acc", ir.Add(ir.Var("acc"), ir.Var("s")))),
		),
		&ir.WhileBlock{
			Cond: ir.Lt(ir.Var("k"), ir.Lit(3)), MaxIter: 10,
			Body: []ir.Block{ir.BB(
				ir.Assign("k", ir.Add(ir.Var("k"), ir.Lit(1))),
				ir.Assign("w", ir.Sub(ir.Var("w"), ir.Mul(grad, ir.Lit(0.001)))),
			)},
		},
		ir.If(ir.Gt(ir.Var("acc"), ir.Lit(0)),
			[]ir.Block{ir.BB(ir.Assign("out", ir.Mul(ir.Var("acc"), ir.Lit(2))))},
			[]ir.Block{ir.BB(ir.Assign("out", ir.Mul(ir.Var("acc"), ir.Lit(3))))}),
	}
	return p
}

// growingProgram runs one loop body over a matrix that gains rows every
// iteration, so the same block is compiled once per shape (and moves from CP
// to Spark placement on the way); a re-run meets the same shapes again.
func growingProgram() *ir.Program {
	p := ir.NewProgram()
	p.Main = []ir.Block{
		ir.BB(ir.Assign("Z", ir.Var("X"))),
		ir.ForRange("i", 4, ir.BB(
			ir.Assign("Z", ir.RBind(ir.Var("Z"), ir.Var("X"))),
			ir.Assign("g", ir.Sum(ir.TSMM(ir.Var("Z")))),
		)),
	}
	return p
}

func sessionCacheConfig(mode ReuseMode, planner bool, plan *faults.Plan) Config {
	conf := testConfig(mode)
	conf.Compiler.OpMemBudget = 1 << 12 // mixed CP/Spark placement
	if mode == ReuseMemphis || mode == ReuseMemphisFine {
		conf.Compiler.Async, conf.Compiler.MaxParallelize, conf.Compiler.CheckpointInjection = true, true, true
	}
	if planner {
		conf.MemoryPlanner, conf.Cache.CPBudget = true, 32<<10
	}
	conf.Faults = plan
	return conf
}

func bindSessionCacheInputs(ctx *Context) {
	ctx.BindHost("X", data.RandNorm(96, 8, 0, 1, 1))
	ctx.BindHost("y", data.RandNorm(96, 1, 0, 1, 2))
	ctx.BindHost("w0", data.Zeros(8, 1))
}

// sessionObservation is everything a program can observe of a session.
type sessionObservation struct {
	values  map[string]*data.Matrix
	lineage map[string]string
	vtime   float64
	stats   Stats
	cache   core.Stats
	plans   []PlanReport
}

func observe(ctx *Context, fetch []string) sessionObservation {
	o := sessionObservation{values: map[string]*data.Matrix{}, lineage: map[string]string{}}
	for _, n := range fetch {
		o.values[n] = ctx.ensureHost(ctx.Var(n))
		if li := ctx.LMap.Get(n); li != nil {
			o.lineage[n] = lineage.Serialize(li)
		}
	}
	o.vtime, o.stats, o.cache, o.plans = ctx.Clock.Now(), ctx.Stats, ctx.Cache.Stats, ctx.PlanReports()
	return o
}

func (o sessionObservation) diff(t *testing.T, what string, ref sessionObservation) {
	t.Helper()
	for n, want := range ref.values {
		wantBitwise(t, what+": "+n, o.values[n], want)
	}
	if !reflect.DeepEqual(o.lineage, ref.lineage) {
		t.Errorf("%s: serialized lineage differs", what)
	}
	if o.vtime != ref.vtime {
		t.Errorf("%s: virtual time %v, reference %v", what, o.vtime, ref.vtime)
	}
	if o.stats != ref.stats {
		t.Errorf("%s: runtime stats %+v, reference %+v", what, o.stats, ref.stats)
	}
	if o.cache != ref.cache {
		t.Errorf("%s: cache stats %+v, reference %+v", what, o.cache, ref.cache)
	}
	if !reflect.DeepEqual(o.plans, ref.plans) {
		t.Errorf("%s: plan reports differ", what)
	}
}

// TestSessionCacheBitwiseProperty: a session compiling through its own
// compile cache is indistinguishable from one that compiles every block on
// every execution (noopCompileCache answers every lookup with a miss) —
// fetched values, virtual time, runtime and cache counters, planner reports
// and serialized lineage all equal, after a cold run and after a warm one —
// across reuse modes, planner and a chaos plan. The warm run compiles
// nothing.
func TestSessionCacheBitwiseProperty(t *testing.T) {
	programs := []struct {
		name  string
		build func() *ir.Program
		fetch []string
	}{
		{"control-flow", controlFlowProgram, []string{"out", "w", "acc"}},
		{"growing-shapes", growingProgram, []string{"g", "Z"}},
	}
	modes := []ReuseMode{ReuseNone, ReuseLIMA, ReuseHelix, ReuseMemphisFine, ReuseMemphis}
	for _, pr := range programs {
		for _, mode := range modes {
			for c := 0; c < 4; c++ {
				planner, chaos := c&1 != 0, c&2 != 0
				what := fmt.Sprintf("%s/%v/planner=%v/chaos=%v", pr.name, mode, planner, chaos)
				session := func() (*Context, *ir.Program) {
					var plan *faults.Plan
					if chaos {
						plan = faults.Default(7)
					}
					ctx := New(sessionCacheConfig(mode, planner, plan))
					t.Cleanup(func() { ctx.Close() })
					bindSessionCacheInputs(ctx)
					p := pr.build()
					if mode == ReuseMemphis {
						compiler.RewriteProgram(p)
					}
					return ctx, p
				}
				ref, refProg := session()
				ref.AttachCompileCache(noopCompileCache{}, 0)
				got, gotProg := session()
				var coldStores int64
				for _, label := range []string{"cold", "warm"} {
					if err := ref.RunProgram(refProg); err != nil {
						t.Fatalf("%s: reference %s run: %v", what, label, err)
					}
					if err := got.RunProgram(gotProg); err != nil {
						t.Fatalf("%s: %s run: %v", what, label, err)
					}
					observe(got, pr.fetch).diff(t, what+"/"+label, observe(ref, pr.fetch))
					st := got.own.StatsSnapshot()
					if st.Stores == 0 || st.Stores != st.Lookups-st.Hits {
						t.Errorf("%s/%s: %d stores for %d lookups and %d hits", what, label, st.Stores, st.Lookups, st.Hits)
					}
					if label == "cold" {
						coldStores = st.Stores
					} else if st.Stores != coldStores {
						t.Errorf("%s: the warm run compiled %d blocks", what, st.Stores-coldStores)
					}
				}
			}
		}
	}
}

// TestSessionCacheBounded: a session fed an endless stream of distinct
// scripts keeps at most one shard's worth of compiled blocks, and its
// pointer-keyed memos cover the current program only.
func TestSessionCacheBounded(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	x := data.RandNorm(16, 4, 0, 1, 1)
	ctx.BindHost("X", x)
	const variants = 4 * blockShardCap
	for i := 0; i < variants; i++ {
		p, err := dml.Parse(fmt.Sprintf("z = sum(X * %d)\nk = 0\nwhile (k < 2) {\n    k = k + 1\n}\n", i+2))
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.RunProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	st := ctx.own.StatsSnapshot()
	if st.Stores < variants {
		t.Fatalf("only %d blocks compiled for %d distinct scripts: the test evicts nothing", st.Stores, variants)
	}
	if st.Entries > blockShardCap {
		t.Errorf("%d resident blocks, bound is %d", st.Entries, blockShardCap)
	}
	if len(ctx.bbKeys) > 3 || len(ctx.condBBs) > 1 {
		t.Errorf("memos outlive their program: %d block keys, %d condition blocks", len(ctx.bbKeys), len(ctx.condBBs))
	}
}

// TestSessionCacheStationary: re-running one program (with a while loop, whose
// condition is evaluated through a wrapper block) leaves every per-session
// structure the size it had after the second run.
func TestSessionCacheStationary(t *testing.T) {
	ctx := New(sessionCacheConfig(ReuseMemphis, true, nil))
	defer ctx.Close()
	bindSessionCacheInputs(ctx)
	p := controlFlowProgram()
	compiler.RewriteProgram(p)
	sizes := func() [5]int {
		return [5]int{len(ctx.bbKeys), len(ctx.condBBs), len(ctx.planRecs), len(ctx.planOrder),
			int(ctx.own.StatsSnapshot().Entries)}
	}
	var after2 [5]int
	for run := 1; run <= 200; run++ {
		if err := ctx.RunProgram(p); err != nil {
			t.Fatal(err)
		}
		if run == 2 {
			after2 = sizes()
		}
	}
	for i, n := range after2 {
		if n == 0 {
			t.Fatalf("size %d is zero after run 2 (%v): the test watches nothing", i, after2)
		}
	}
	if got := sizes(); got != after2 {
		t.Errorf("block keys, condition blocks, plan records, plan order, resident blocks = %v after run 200, %v after run 2", got, after2)
	}
}

// TestBlockCacheEvictionWhileExecuting: sessions sharing a cache far smaller
// than one program keep evicting blocks that another session is executing.
// A session holds its block by pointer, so nothing changes for it: values and
// virtual times equal a solo session's. Run under -race.
func TestBlockCacheEvictionWhileExecuting(t *testing.T) {
	fetch := []string{"out", "w", "acc"}
	run := func(cc CompileCache) (sessionObservation, error) {
		ctx := New(sessionCacheConfig(ReuseMemphis, true, nil))
		defer ctx.Close()
		bindSessionCacheInputs(ctx)
		if cc != nil {
			ctx.AttachCompileCache(cc, 0)
		}
		p := controlFlowProgram()
		compiler.RewriteProgram(p)
		for i := 0; i < 3; i++ {
			if err := ctx.RunProgram(p); err != nil {
				return sessionObservation{}, err
			}
		}
		return observe(ctx, fetch), nil
	}
	ref, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := &BlockCache{shards: []blockShard{{m: map[uint64]*CompiledBlock{}, fifo: make([]uint64, 0, 2)}}}
	const sessions = 6
	obs := make([]sessionObservation, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	wg.Add(sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			defer wg.Done()
			obs[i], errs[i] = run(shared)
		}(i)
	}
	wg.Wait()
	for i := range obs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		obs[i].diff(t, fmt.Sprintf("session %d", i), ref)
	}
	st := shared.StatsSnapshot()
	if st.Entries > 2 {
		t.Errorf("%d resident blocks in a capacity-2 cache", st.Entries)
	}
	if st.Stores <= 2 {
		t.Errorf("%d stores: nothing was evicted", st.Stores)
	}
}
