package runtime

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/ir"
	"memphis/internal/key"
	"memphis/internal/lineage"
)

// bindingsScript calls a function from a loop, with temporaries in every
// block and matrices large enough for the device.
const bindingsScript = `
X = rand(128, 64, -1, 1, 1, 7)
W = rand(64, 64, -1, 1, 1, 8)
f = function(A, M, s) -> (B, c) {
    T = A %*% M
    B = T * s + 1
    c = sum(B)
}
acc = sum(X) * 0
for (i in [1, 2, 3]) {
    [G, c] = f(X, W, i)
    acc = acc + c
    H = t(G) %*% G
}
Z = exp(H / 1000) + acc
`

// bindingsConfig places the script's matrix products on the device.
func bindingsConfig(mode ReuseMode) Config {
	conf := testConfig(mode)
	conf.Compiler.GPUEnabled = true
	return conf
}

// digestLine renders one binding: the value's shape, device residency and
// reference count, host checksum, and the lineage item's hash, height and
// serialized log.
func digestLine(name string, v *Value, li *lineage.Item) string {
	s := name
	if v != nil {
		s += fmt.Sprintf(" v=%dx%d", v.Rows, v.Cols)
		if v.GPU != nil {
			s += fmt.Sprintf(" gpu=%d", v.GPU.RefCount)
		}
		if v.M != nil {
			s += fmt.Sprintf(" host=%016x", v.M.Checksum())
		}
	}
	if li != nil {
		s += fmt.Sprintf(" lin=%016x/%d/%016x", li.Hash(), li.Height(), key.New().Str(lineage.Serialize(li)).Sum64())
	}
	return s
}

func digestRun(t *testing.T, mode ReuseMode, digest func(*Context) string) []string {
	prog, err := dml.Parse(bindingsScript)
	if err != nil {
		t.Fatal(err)
	}
	ctx := New(bindingsConfig(mode))
	defer ctx.Close()
	var out []string
	for run := 0; run < 2; run++ {
		if err := ctx.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		s := digest(ctx)
		if ctx.GM != nil {
			s += fmt.Sprintf("gm live=%d free=%d recycled=%d\n", ctx.GM.LiveCount(), ctx.GM.FreeCount(), ctx.GM.Stats.Recycled)
		}
		out = append(out, s)
	}
	return out
}

// bindingsDigest renders every bound name of the current scope, sorted.
func bindingsDigest(ctx *Context) string {
	var names []string
	for n, c := range ctx.LMap.scope {
		if c.v != nil || c.li != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if v, li := ctx.Var(n), ctx.LMap.Get(n); v != nil || li != nil {
			b.WriteString(digestLine(n, v, li) + "\n")
		}
	}
	return b.String()
}

// TestBindingsMatchSeparateMaps pins what Context.Var and LMap.Get return
// after each of two runs of a script with a function call in a loop and
// temporaries in every block, untraced and under full reuse: the bindings,
// lineage and device reference counts the runtime held in two separate
// maps (variables, and a lineage map copied at every call) before one
// table of cells replaced them. No temporary and no callee-local name
// stays bound, in the current scope or in a callee scope kept for reuse.
func TestBindingsMatchSeparateMaps(t *testing.T) {
	want := map[ReuseMode][]string{
		ReuseNone: {`G v=128x64 gpu=1 host=a7d6e8297df733f7
H v=64x64 host=e186d5b34002cacd
W v=64x64 gpu=0 host=814c3a676da2821d
X v=128x64 gpu=0 host=87d429a125c23e7e
Z v=64x64 host=236af29bb2f1d5ed
acc v=1x1 host=925b87da7946c9fd
c v=1x1 gpu=1 host=c3fdf418bbd13c3e
i v=1x1 host=aa0d3c6355cfcadd
gm live=2 free=12 recycled=0
`, `G v=128x64 gpu=1 host=a7d6e8297df733f7
H v=64x64 host=e186d5b34002cacd
W v=64x64 gpu=0 host=814c3a676da2821d
X v=128x64 gpu=0 host=87d429a125c23e7e
Z v=64x64 host=236af29bb2f1d5ed
acc v=1x1 host=925b87da7946c9fd
c v=1x1 gpu=1 host=c3fdf418bbd13c3e
i v=1x1 host=aa0d3c6355cfcadd
gm live=2 free=26 recycled=0
`},
		ReuseMemphis: {`G v=128x64 gpu=1 host=a7d6e8297df733f7 lin=b9ec2faf83827875/4/7b5d17b93d74b54b
H v=64x64 host=e186d5b34002cacd lin=4e3b2d4736317b49/5/05292a2a72e0eab5
W v=64x64 gpu=0 host=814c3a676da2821d lin=13c6edb9fa8f53b5/1/12d287af61e2bea5
X v=128x64 gpu=0 host=87d429a125c23e7e lin=a80ee554e5bb3f95/1/93508a638ae6d21d
Z v=64x64 host=236af29bb2f1d5ed lin=f033f98b87ffdeb7/9/0348acaf15b2ddb9
acc v=1x1 host=925b87da7946c9fd lin=4358b1f13b4b909a/8/a0d75166660175b7
c v=1x1 gpu=1 host=c3fdf418bbd13c3e lin=de556419829e85f7/5/8e9d145f41e8a843
i v=1x1 host=aa0d3c6355cfcadd lin=b304cbaa2279b483/1/0bdf7c4464c78743
gm live=2 free=10 recycled=0
`, `G v=128x64 gpu=1 lin=b9ec2faf83827875/4/7b5d17b93d74b54b
H v=64x64 host=e186d5b34002cacd lin=4e3b2d4736317b49/5/05292a2a72e0eab5
W v=64x64 host=814c3a676da2821d lin=13c6edb9fa8f53b5/1/12d287af61e2bea5
X v=128x64 host=87d429a125c23e7e lin=a80ee554e5bb3f95/1/93508a638ae6d21d
Z v=64x64 host=236af29bb2f1d5ed lin=f033f98b87ffdeb7/9/0348acaf15b2ddb9
acc v=1x1 host=925b87da7946c9fd lin=4358b1f13b4b909a/8/a0d75166660175b7
c v=1x1 gpu=1 lin=de556419829e85f7/5/8e9d145f41e8a843
i v=1x1 host=aa0d3c6355cfcadd lin=b304cbaa2279b483/1/0bdf7c4464c78743
gm live=2 free=10 recycled=0
`},
	}
	digest := func(ctx *Context) string {
		if len(ctx.scopes) == 0 {
			t.Error("the script made no call")
		}
		for d, scope := range ctx.scopes {
			for name, c := range scope {
				if c.v != nil || c.li != nil {
					t.Errorf("callee scope %d keeps %q bound after its call returned", d, name)
				}
			}
		}
		return bindingsDigest(ctx)
	}
	for mode, runs := range want {
		got := digestRun(t, mode, digest)
		for i := range runs {
			if got[i] != runs[i] {
				t.Errorf("%v run %d: bindings\n%s\nwant\n%s", mode, i, got[i], runs[i])
			}
		}
	}
}

// tsmmStream is one prepared, traced CP instruction G = t(X) %*% X over a
// bound 64x8 X.
func tsmmStream(ctx *Context) []compiler.Instruction {
	ctx.BindHost("X", data.RandNorm(64, 8, 0, 1, 1))
	stream := []compiler.Instruction{{
		Kind: compiler.KindOp, Op: "tsmm", Inputs: []string{"X"}, Outputs: []string{"G"},
		Shape: ir.Shape{Rows: 8, Cols: 8}, InShapes: []ir.Shape{{Rows: 64, Cols: 8}}, Flops: 4096,
	}}
	compiler.Prepare(stream)
	return stream
}

// TestWarmHitAllocatesNoLineageItem: once the first execution has put the
// result, every execution is a hit that counts its trace, binds the cached
// key and allocates nothing — the probe's candidate item is the context's
// scratch, never a heap item, and the hit's matrix is bound in the output
// cell's own value.
func TestWarmHitAllocatesNoLineageItem(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	stream := tsmmStream(ctx)
	if err := ctx.Execute(&stream[0]); err != nil {
		t.Fatal(err)
	}
	key := ctx.LMap.Get("G")
	traced, reused := ctx.LMap.Traced(), ctx.Stats.Reused
	frame := ctx.enterFrame(stream[0].Layout())
	defer ctx.leaveFrame(frame)
	allocs := testing.AllocsPerRun(100, func() {
		if err := ctx.execute(&stream[0]); err != nil {
			t.Fatal(err)
		}
	})
	runs := ctx.Stats.Reused - reused
	if runs == 0 || ctx.LMap.Traced()-traced != runs {
		t.Fatalf("%d hits and %d traces over the warm executions, want one trace per hit", runs, ctx.LMap.Traced()-traced)
	}
	if allocs != 0 {
		t.Fatalf("a warm hit allocates %v objects, want 0", allocs)
	}
	if ctx.LMap.Get("G") != key {
		t.Fatal("a hit must bind the cached key")
	}
}

// TestMissKeepsItemApartFromCandidate: on a miss the item the map binds and
// the cache stores is a heap copy of the candidate, so rewriting the
// candidate for the next probe leaves the stored key as it was.
func TestMissKeepsItemApartFromCandidate(t *testing.T) {
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	stream := tsmmStream(ctx)
	if err := ctx.Execute(&stream[0]); err != nil {
		t.Fatal(err)
	}
	li := ctx.LMap.Get("G")
	e := ctx.Cache.Lookup(li)
	if e == nil || e.Key != li {
		t.Fatal("the miss did not put its item")
	}
	if scratch := ctx.cand.Seal(); e.Key == scratch {
		t.Fatal("the cache stores the context's candidate")
	}
	want := lineage.NewItem("tsmm", "", lineage.NewLeaf("read", "X"))
	h := e.Key.Hash()
	ctx.cand.Reset(lineage.Prefix("exp", ""), "exp", "")
	ctx.cand.Add(want)
	ctx.cand.Seal()
	if e.Key.Hash() != h || e.Key.Height() != 2 || !e.Key.Equals(want) || e.Key.Opcode() != "tsmm" {
		t.Fatal("overwriting the candidate changed the stored key")
	}
}
