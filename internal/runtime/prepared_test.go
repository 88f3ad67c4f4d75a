package runtime_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/ir"
	"memphis/internal/lineage"
	"memphis/internal/runtime"
	"memphis/internal/spark"
	"memphis/internal/workloads"
)

// keyConfig is a full-MEMPHIS configuration with all three backends; the
// planner is switched by the caller.
func keyConfig(planner bool) runtime.Config {
	comp := compiler.DefaultConfig()
	comp.GPUEnabled = true
	comp.Async, comp.MaxParallelize, comp.CheckpointInjection = true, true, true
	return runtime.Config{
		Mode:          runtime.ReuseMemphis,
		Compiler:      comp,
		Cache:         core.DefaultConfig(),
		Spark:         spark.DefaultConfig(),
		GPUCapacity:   48 << 20,
		MemoryPlanner: planner,
	}
}

// keyProgram is one program the block-key test runs: a fresh copy and the
// inputs it reads (nil for scripts that generate their own data).
type keyProgram struct {
	name  string
	build func(t *testing.T) (*ir.Program, func(*runtime.Context))
}

func parseScript(t *testing.T, path string, fill func(string) string) *ir.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	if fill != nil {
		text = fill(text)
	}
	p, err := dml.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return p
}

func pipeline(w func() *workloads.Workload) func(*testing.T) (*ir.Program, func(*runtime.Context)) {
	return func(*testing.T) (*ir.Program, func(*runtime.Context)) {
		wl := w()
		return wl.Prog, wl.Bind
	}
}

var keyPrograms = []keyProgram{
	{"ridge.dml", func(t *testing.T) (*ir.Program, func(*runtime.Context)) {
		return parseScript(t, "../../examples/scripts/ridge.dml", nil), nil
	}},
	{"grid.dml", func(t *testing.T) (*ir.Program, func(*runtime.Context)) {
		fill := strings.NewReplacer("@ROWS@", "200", "@SEED_X@", "11", "@SEED_W@", "12",
			"@SEED_N@", "13", "@REGS@", "0.001, 0.1, 10").Replace
		return parseScript(t, "../../benchmark/scripts/grid.dml", fill), nil
	}},
	{"pnmf", pipeline(func() *workloads.Workload { return workloads.PNMF(120, 30, 4, 3, 5) })},
	{"hcv", pipeline(func() *workloads.Workload {
		return workloads.HCV(400, 16, 2, []float64{0.01, 1, 0.01}, 7)
	})},
	{"clean", pipeline(func() *workloads.Workload { return workloads.Clean(120, 12, 2, 2, 3) })},
	{"tlvis", pipeline(func() *workloads.Workload { return workloads.TLVis(4, 2, 8, 8, 4) })},
	{"hdrop", pipeline(func() *workloads.Workload {
		return workloads.HDrop(64, 8, 8, []float64{0.1, 0.5}, 1, 32, 5)
	})},
}

// TestBlockKeyMatchesFmtReference holds blockKey to the fmt-based key it
// replaced, byte for byte, on every block of the example and benchmark
// scripts and of the five paper pipelines: before inputs are bound (every
// read variable unbound), once they are, and after a run (function-local
// names unbound, the rest bound), with the planner off and on.
func TestBlockKeyMatchesFmtReference(t *testing.T) {
	check := func(t *testing.T, ctx *runtime.Context, p *ir.Program, when string) {
		t.Helper()
		n, bad := runtime.BlockKeyMismatches(ctx, p)
		if n == 0 {
			t.Fatalf("%s: no blocks compared", when)
		}
		for _, b := range bad {
			t.Errorf("%s: %s", when, b)
		}
	}
	for _, kp := range keyPrograms {
		t.Run(kp.name, func(t *testing.T) {
			for _, planner := range []bool{false, true} {
				p, bind := kp.build(t)
				compiler.RewriteProgram(p)
				ctx := runtime.New(keyConfig(planner))
				check(t, ctx, p, "nothing bound")
				if bind != nil {
					bind(ctx)
					check(t, ctx, p, "inputs bound")
				}
				if err := ctx.RunProgram(p); err != nil {
					t.Fatal(err)
				}
				check(t, ctx, p, "after a run")
				ctx.Close()
			}
		})
	}
}

// missShared is a shared reuse level that never hits and never stores, so
// a session attached to it signs every item it probes and publishes and
// otherwise runs as it would alone.
type missShared struct{}

func (missShared) Probe(string, *lineage.Item, uint64) (*data.Matrix, float64, float64, bool) {
	return nil, 0, 0, false
}
func (missShared) Publish(string, *lineage.Item, uint64, *data.Matrix, float64) (float64, bool) {
	return 0, false
}

// TestSigsMatchFmtReference holds streamSig and shareSig to the fmt and
// hash/fnv versions they replaced on every stream the key programs compile
// and every item they sign, with the planner off and on.
func TestSigsMatchFmtReference(t *testing.T) {
	signed := 0
	for _, kp := range keyPrograms {
		t.Run(kp.name, func(t *testing.T) {
			for _, planner := range []bool{false, true} {
				p, bind := kp.build(t)
				compiler.RewriteProgram(p)
				ctx := runtime.New(keyConfig(planner))
				ctx.AttachShared(missShared{}, "t")
				if bind != nil {
					bind(ctx)
				}
				if err := ctx.RunProgram(p); err != nil {
					t.Fatal(err)
				}
				streams, n, bad := runtime.SigMismatches(ctx)
				if streams == 0 {
					t.Fatal("no streams compared")
				}
				for _, b := range bad {
					t.Errorf("planner %t: %s", planner, b)
				}
				signed += n
				ctx.Close()
			}
		})
	}
	if signed == 0 {
		t.Fatal("no share signatures compared")
	}
}

// requirePrepared fails unless every block the session compiled executes a
// prepared stream, and returns the executed instructions.
func requirePrepared(t *testing.T, ctx *runtime.Context) []compiler.Instruction {
	t.Helper()
	var all []compiler.Instruction
	for _, cb := range runtime.CompiledStreams(ctx) {
		for i := range cb.Insts {
			if !cb.Insts[i].Prepared() {
				t.Fatalf("compiled block executes unprepared %s", &cb.Insts[i])
			}
		}
		all = append(all, cb.Insts...)
	}
	if len(all) == 0 {
		t.Fatal("the session compiled nothing")
	}
	return all
}

// TestEveryExecutedInstructionIsPrepared: Execute panics on an unprepared
// instruction, and each way a stream reaches it — a planned HBAND stream,
// a fused stream, and the stream Recompute lowers from lineage — arrives
// prepared.
func TestEveryExecutedInstructionIsPrepared(t *testing.T) {
	t.Run("unprepared panics", func(t *testing.T) {
		ctx := runtime.New(keyConfig(false))
		defer ctx.Close()
		ctx.BindHost("X", data.RandNorm(4, 4, 0, 1, 1))
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "not prepared") {
				t.Fatalf("Execute of an unprepared instruction: recovered %v, want a not-prepared panic", r)
			}
		}()
		_ = ctx.Execute(&compiler.Instruction{Kind: compiler.KindOp, Op: "exp",
			Inputs: []string{"X"}, Outputs: []string{"Y"}})
	})

	t.Run("planned HBAND", func(t *testing.T) {
		conf := keyConfig(true)
		conf.Compiler.OpMemBudget = 16 << 20
		conf.GPUCapacity, conf.Compiler.GPUEnabled = 0, false
		conf.Cache.CPBudget = 16 << 10
		ctx := runtime.New(conf)
		defer ctx.Close()
		if _, err := workloads.HBand(1500, 16, 3, 4, 3, 50, 13).Run(ctx); err != nil {
			t.Fatal(err)
		}
		for _, in := range requirePrepared(t, ctx) {
			if len(in.Outputs) > 0 && strings.HasPrefix(in.Outputs[0], "_tsp") {
				t.Fatalf("%s executed: the planner emitted a row-panel temporary", &in)
			}
		}
		if ctx.Stats.PlanBlocks == 0 {
			t.Fatal("no planned stream executed; the planner did not run")
		}
	})

	t.Run("fused", func(t *testing.T) {
		conf := keyConfig(true)
		conf.Compiler.Fusion = true
		ctx := runtime.New(conf)
		defer ctx.Close()
		if _, err := workloads.HCV(400, 16, 2, []float64{0.01, 1, 0.01}, 7).Run(ctx); err != nil {
			t.Fatal(err)
		}
		fused := 0
		for _, in := range requirePrepared(t, ctx) {
			if in.Op == ir.FusedOp {
				fused++
			}
		}
		if fused == 0 {
			t.Fatal("no fused instruction executed")
		}
	})

	t.Run("recompute", func(t *testing.T) {
		prog := ir.NewProgram()
		prog.Main = []ir.Block{ir.BB(
			ir.Assign("G", ir.Mul(ir.Add(ir.TSMM(ir.Var("X")), ir.Lit(0.5)), ir.Lit(2))),
			ir.Assign("Z", ir.Sub(ir.MatMul(ir.Var("X"), ir.Var("G")), ir.Lit(1))),
		)}
		x := data.RandNorm(40, 6, 0, 1, 3)
		ctx := runtime.New(keyConfig(false))
		defer ctx.Close()
		ctx.BindHost("X", x)
		if err := ctx.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		want := ctx.EnsureHostValue(ctx.Var("Z"))
		root, err := lineage.Deserialize(lineage.Serialize(ctx.LMap.Get("Z")))
		if err != nil {
			t.Fatal(err)
		}
		ctx2 := runtime.New(keyConfig(false))
		defer ctx2.Close()
		ctx2.BindHost("X", x)
		got, err := runtime.Recompute(ctx2, root)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("recomputed cell %d = %v, want %v", i, got.Data[i], want.Data[i])
			}
		}
	})
}

// refItemHash is the item hash as Item.seal wrote it before the prefix was
// split out: FNV-1a over opcode, a zero byte, data and each input hash as
// eight little-endian bytes.
func refItemHash(opcode, data string, inputs []*lineage.Item) uint64 {
	h := fnv.New64a()
	h.Write([]byte(opcode))
	h.Write([]byte{0})
	h.Write([]byte(data))
	for _, in := range inputs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], in.Hash())
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPreparedPrefixMatchesNewItem: for every instruction the example ridge
// script and the benchmark's grid script execute, with the planner off and
// on, the prepared lineage prefix with the input items' hashes folded on
// (what a reuse probe's candidate holds) equals NewItem's hash and height
// bit for bit, and the hash of the unsplit FNV-1a encoding. Every operand
// and output slot names the operand or output in the stream's layout.
func TestPreparedPrefixMatchesNewItem(t *testing.T) {
	leaf := lineage.NewLeaf("read", "A")
	deep := lineage.NewItem("exp", "", lineage.NewItem("t", "", leaf))
	pool := []*lineage.Item{leaf, deep, lineage.NewItem("+", "in1=2", deep), lineage.NewLeaf("lit", "0.5")}
	var cand lineage.Candidate
	for _, kp := range keyPrograms[:2] {
		for _, planner := range []bool{false, true} {
			p, _ := kp.build(t)
			compiler.RewriteProgram(p)
			ctx := runtime.New(keyConfig(planner))
			if err := ctx.RunProgram(p); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for k, in := range requirePrepared(t, ctx) {
				names := in.Layout().Names
				var inputs []*lineage.Item
				for i, name := range in.Inputs {
					if s := in.Slot(i); s >= 0 {
						if names[s] != name {
							t.Fatalf("%s %s: input %d in slot %d of %q", kp.name, &in, i, s, names[s])
						}
						inputs = append(inputs, pool[(k+i)%len(pool)])
					} else if !compiler.IsLiteral(name) {
						t.Fatalf("%s %s: operand %q has no slot", kp.name, &in, name)
					}
				}
				for i, name := range in.Outputs {
					if names[in.OutSlot(i)] != name {
						t.Fatalf("%s %s: output %d in slot of %q", kp.name, &in, i, names[in.OutSlot(i)])
					}
				}
				want := lineage.NewItem(in.Op, in.LineageData(), inputs...)
				cand.Reset(in.LineagePrefix(), in.Op, in.LineageData())
				for _, li := range inputs {
					cand.Add(li)
				}
				got := cand.Seal()
				if got.Hash() != want.Hash() || got.Height() != want.Height() || !got.Equals(want) {
					t.Fatalf("%s %s: candidate %016x/%d, NewItem %016x/%d", kp.name, &in, got.Hash(), got.Height(), want.Hash(), want.Height())
				}
				if ref := refItemHash(in.Op, in.LineageData(), inputs); want.Hash() != ref {
					t.Fatalf("%s %s: NewItem hash %016x, FNV-1a reference %016x", kp.name, &in, want.Hash(), ref)
				}
				checked++
			}
			if checked < 20 {
				t.Fatalf("%s: only %d instructions checked", kp.name, checked)
			}
			ctx.Close()
		}
	}
}
