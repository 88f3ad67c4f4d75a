package main

import (
	"runtime"
	"strconv"
	"time"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/gpu"
	"memphis/internal/ir"
	"memphis/internal/lineage"
	"memphis/internal/memctl"
	"memphis/internal/memplan"
	rt "memphis/internal/runtime"
	"memphis/internal/serve"
	"memphis/internal/spark"
	"memphis/internal/vtime"
)

// probeEnv is what a workload hands the probes: operands taken from its own
// run, so every layer is timed on the shapes that workload puts through it.
type probeEnv struct {
	// ctx is a context that has just run prog (lineage items, variable
	// shapes); outputs names the variables the workload fetches.
	ctx     *rt.Context
	prog    *ir.Program
	outputs []string
	// script is the DML source an operation parses ("" if it parses none);
	// streams are compiled instruction streams captured from the workload.
	script  string
	streams [][]compiler.Instruction
	// rows x cols is the workload's dominant matrix, inner the column count
	// of what it is multiplied with.
	rows, cols, inner int
	// requestInputs are the input sets of the serving classes, weight their
	// share of the requests (nil off the serving workload).
	requestInputs []map[string]*data.Matrix
	weight        []float64
}

// prober spends an equal slice of its budget on each probe it is given.
type prober struct {
	slice time.Duration
	out   map[string]float64
}

// measure calls fn repeatedly for one budget slice and returns nanoseconds
// and heap allocations per call.
func (p *prober) measure(fn func()) (ns, allocs float64) {
	fn() // first call outside the clock: lazy set-up, cold caches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	start := time.Now()
	for time.Since(start) < p.slice || n < 3 {
		fn()
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func (p *prober) ns(name string, fn func()) { p.out[name], _ = p.measure(fn) }
func (p *prober) us(name string, fn func()) { v, _ := p.measure(fn); p.out[name] = v / 1e3 }
func (p *prober) rate(name string, work float64, fn func()) {
	// work per call in flops or bytes; reported in G per second.
	v, _ := p.measure(fn)
	p.out[name] = ratio(work, v)
}

// probeSlices is how many equal slices the probes' budget is cut into; no
// workload makes more than 34 measure calls.
const probeSlices = 36

// runProbes times the public entry points of every layer. Probes of layers
// the workload never enters are skipped and stay 0.
func runProbes(env probeEnv, d time.Duration, ph *phase, out map[string]float64) {
	p := &prober{slice: d / probeSlices, out: out}
	streams := env.streams

	// dml
	if env.script != "" {
		ns, allocs := p.measure(func() { _, _ = dml.Parse(env.script) })
		out["dml.parse_us"], out["dml.parse_allocs"] = ns/1e3, allocs
	}

	// compiler and memplan, on the block the program spends most statements
	// in and on the streams the traced phase captured
	if bb := largestBlock(env.prog); bb != nil {
		shapes := map[string]ir.Shape{}
		reads := map[string]struct{}{}
		for _, st := range bb.Stmts {
			ir.VarsRead(st.Expr, reads)
		}
		for name := range reads {
			if v := env.ctx.Var(name); v != nil {
				shapes[name] = ir.Shape{Rows: v.Rows, Cols: v.Cols}
			}
		}
		conf := env.ctx.Conf.Compiler
		ns, allocs := p.measure(func() { compiler.CompileBlock(bb, shapes, conf) })
		out["compiler.compile_block_us"], out["compiler.compile_block_allocs"] = ns/1e3, allocs
	}
	if len(streams) > 0 {
		insts, fused := 0, 0
		for _, s := range streams {
			insts += len(s)
			for i := range s {
				if s[i].Op == ir.FusedOp {
					fused++
				}
			}
		}
		out["compiler.insts_per_block"] = float64(insts) / float64(len(streams))
		out["compiler.fused_insts"] = float64(fused)
		per := float64(len(streams))
		v, _ := p.measure(func() {
			for _, s := range streams {
				compiler.FuseElementwise(s)
			}
		})
		out["compiler.fuse_us"] = v / per / 1e3
		v, _ = p.measure(func() {
			for _, s := range streams {
				memplan.Analyze(s)
			}
		})
		out["memplan.analyze_us"] = v / per / 1e3
		cfg := memplan.Config{Budget: env.ctx.Conf.Cache.CPBudget}
		v, _ = p.measure(func() {
			for _, s := range streams {
				memplan.Apply(s, cfg)
			}
		})
		out["memplan.apply_us"] = v / per / 1e3
	}

	probeLineage(p, env)
	probeCore(p)
	probeData(p, env)
	if ph.counts["spark.jobs"] > 0 {
		probeSpark(p, env)
	}
	if ph.counts["gpu.kernels"] > 0 {
		probeGPU(p, env)
	}
	if env.requestInputs != nil {
		probeServe(p, env)
	}
}

// largestBlock is the basic block with the most statements anywhere in the
// program, function bodies included.
func largestBlock(p *ir.Program) *ir.BasicBlock {
	var best *ir.BasicBlock
	visit := func(b ir.Block) {
		if bb, ok := b.(*ir.BasicBlock); ok && (best == nil || len(bb.Stmts) > len(best.Stmts)) {
			best = bb
		}
	}
	ir.Walk(p.Main, visit)
	for _, f := range p.Funcs {
		ir.Walk(f.Body, visit)
	}
	return best
}

func probeLineage(p *prober, env probeEnv) {
	lm := lineage.NewMap()
	lm.TraceItem("a", lineage.NewLeaf("read", "a"))
	lm.TraceItem("b", lineage.NewLeaf("read", "b"))
	ns, allocs := p.measure(func() { lm.Trace("out", "ba+*", "", "a", "b") })
	p.out["lineage.trace_ns"], p.out["lineage.trace_allocs"] = ns, allocs

	// The deepest lineage DAG among the workload's outputs, and a
	// structurally equal copy with no shared nodes: the worst case Equals
	// has to walk.
	var li *lineage.Item
	for _, n := range env.outputs {
		if it := env.ctx.LMap.Get(n); it != nil && (li == nil || it.Height() > li.Height()) {
			li = it
		}
	}
	if li == nil {
		return
	}
	log := lineage.Serialize(li)
	twin, err := lineage.Deserialize(log)
	if err != nil {
		return
	}
	p.ns("lineage.equals_ns", func() { li.Equals(twin) })
	p.us("lineage.serialize_us", func() { lineage.Serialize(li) })
	p.us("lineage.deserialize_us", func() { _, _ = lineage.Deserialize(log) })
}

// probeCore times the driver cache's read and write paths on a cache of its
// own: small values under the default budget (nothing evicts), then 8 KB
// values under a 4 MB budget, where every put first makes space.
func probeCore(p *prober) {
	model := costs.Default()
	newCache := func(budget int64) (*core.Cache, *memctl.Arbiter) {
		conf := core.DefaultConfig()
		conf.CPBudget = budget
		c := core.NewCache(vtime.New(), model, conf, nil, nil)
		arb := memctl.NewArbiter()
		c.SetArbiter(arb)
		return c, arb
	}
	leaf := lineage.NewLeaf("read", "X")
	item := func(i int) *lineage.Item {
		return lineage.NewItem("probe", "", leaf, lineage.NewLeaf("lit", strconv.Itoa(i)))
	}

	c, _ := newCache(core.DefaultConfig().CPBudget)
	small := data.Zeros(32, 1)
	const resident = 4096
	items := make([]*lineage.Item, resident)
	for i := range items {
		items[i] = item(i)
		c.PutCP(items[i], small, 1e-3, 1, false, false)
	}
	i := 0
	p.ns("core.probe_hit_ns", func() { c.Probe(items[i%resident]); i++ })
	miss := item(-1)
	p.ns("core.probe_miss_ns", func() { c.Probe(miss) })
	next := resident
	p.ns("core.put_ns", func() { c.PutCP(item(next), small, 1e-3, 1, false, false); next++ })

	const page = 8 << 10
	full, arb := newCache(512 * page)
	big := data.Zeros(page/8, 1)
	for k := 0; k < 512; k++ {
		full.PutCP(item(1<<20+k), big, 1e-3, 1, false, false)
	}
	next = 1<<20 + 512
	p.ns("core.put_evict_ns", func() { full.PutCP(item(next), big, 1e-3, 1, false, false); next++ })
	p.ns("memctl.make_space_ns", func() {
		arb.MakeSpace("cp", page)
		full.PutCP(item(next), big, 1e-3, 1, false, false) // refill, so the next call evicts again
		next++
	})
}

// probeData times the dense kernels at the workload's dominant shapes.
func probeData(p *prober, env probeEnv) {
	r, c, k := float64(env.rows), float64(env.cols), float64(env.inner)
	x := data.Rand(env.rows, env.cols, -1, 1, 1, 1)
	y := data.Rand(env.rows, env.cols, -1, 1, 1, 2)
	w := data.Rand(env.cols, env.inner, -1, 1, 1, 3)
	row := data.Rand(1, env.cols, -1, 1, 1, 4)
	bytes := r * c * 8
	mm := func() { data.MatMul(x, w) }
	p.rate("data.matmul_gflops", 2*r*c*k, mm)
	p.rate("data.tsmm_gflops", r*c*c, func() { data.TSMM(x) })
	p.rate("data.transpose_gbps", 2*bytes, func() { data.Transpose(x) })
	p.rate("data.binary_gbps", 3*bytes, func() { data.Add(x, y) })
	p.rate("data.broadcast_binary_gbps", 2*bytes, func() { data.Add(x, row) })
	if fp, err := data.ParseFused("+($0,$1);exp(@0);sigmoid(@1)"); err == nil {
		leaves := []*data.Matrix{x, y}
		ns, allocs := p.measure(func() { data.EvalFused(fp, leaves, nil) })
		p.out["data.fused_chain_gbps"], p.out["data.fused_chain_allocs"] = ratio(3*bytes, ns), allocs
	}
	// One TLVIS batch through the first AlexNet-like layer.
	const n, cIn, side, cOut, kern = 4, 3, 16, 16, 5
	img := data.Rand(n, cIn*side*side, 0, 1, 1, 5)
	filt := data.Rand(cOut, cIn*kern*kern, -1, 1, 1, 6)
	outSide := side - kern + 1
	p.rate("data.conv2d_gflops", float64(2*n*cOut*outSide*outSide*cIn*kern*kern), func() {
		data.Conv2D(img, filt, cIn, side, side, kern, kern, 1, 0)
	})
	p.rate("data.slice_rows_gbps", bytes, func() { x.SliceRows(0, env.rows/2) })
	a := data.AddScalar(data.TSMM(data.Rand(4*env.cols, env.cols, -1, 1, 1, 7)), 1)
	b := data.Rand(env.cols, 1, -1, 1, 1, 8)
	p.us("data.solve_us", func() { data.Solve(a, b) })
	p.rate("data.checksum_gbps", bytes, func() { x.Checksum() })
	par := data.Parallelism()
	pooled, _ := p.measure(mm)
	data.SetParallelism(1)
	serial, _ := p.measure(mm)
	data.SetParallelism(par)
	p.out["data.parallel_speedup_x"] = ratio(serial, pooled)
}

// probeSpark times the simulated cluster's entry points on one matrix of the
// workload's shape: distribute it, run a narrow job over it, collect it, and
// run the job again once the RDD is persisted.
func probeSpark(p *prober, env probeEnv) {
	m := data.Rand(env.rows, env.cols, -1, 1, 1, 9)
	sc := spark.NewContext(vtime.New(), costs.Default(), spark.DefaultConfig())
	defer sc.Shutdown()
	p.us("spark.parallelize_us", func() { sc.Parallelize(m, 0, "x") })
	base := sc.Parallelize(m, 0, "x")
	double := func(r *spark.RDD) *spark.RDD {
		return r.MapPartitions("x2", env.rows, env.cols, func(int) float64 { return 0 }, nil,
			func(_ int, part *data.Matrix) *data.Matrix { return data.MulScalar(part, 2) })
	}
	all := make([]int, base.NumPartitions())
	for i := range all {
		all[i] = i
	}
	p.us("spark.runjob_us", func() { sc.RunJob(double(base), all, false) })
	p.us("spark.collect_us", func() { sc.Collect(base) })
	kept := double(base).Persist(spark.StorageMemory)
	sc.RunJob(kept, all, false)
	p.us("spark.persisted_job_us", func() { sc.RunJob(kept, all, false) })
}

// probeGPU times the simulated device: the manager's allocate/release cycle
// (the recycling path once the free list is warm), a kernel launch, and the
// two copy directions for one matrix of the workload's shape.
func probeGPU(p *prober, env probeEnv) {
	clock, model := vtime.New(), costs.Default()
	dev := gpu.NewDevice(clock, model, "gpu0", 48<<20)
	gm := gpu.NewManager(dev)
	m := data.Rand(64, 64, -1, 1, 1, 10)
	size := m.SizeBytes()
	p.ns("gpu.allocate_ns", func() {
		if ptr, err := gm.Allocate(size, 1, 1e-3); err == nil {
			gm.Release(ptr)
		}
	})
	ptr, err := gm.Allocate(size, 1, 1e-3)
	if err != nil {
		return
	}
	p.ns("gpu.launch_overhead_ns", func() { dev.Launch(1, ptr, func() *data.Matrix { return m }) })
	p.us("gpu.h2d_us", func() {
		if q, err := dev.H2D(m); err == nil {
			dev.Free(q)
		}
	})
	p.us("gpu.d2h_us", func() { dev.D2H(ptr) })
}

// probeServe times the serving tier's shared structures on their own:
// shared-cache hit, miss and publish for a value of the workload's output
// size, a compile-cache lookup, and the input checksums admission computes
// for one request of the traffic mix.
func probeServe(p *prober, env probeEnv) {
	sh := serve.NewSharedCache(serve.SharedConfig{Budget: 64 << 20, TenantBudget: 8 << 20})
	leaf := lineage.NewLeaf("read", "X")
	item := func(i int) *lineage.Item {
		return lineage.NewItem("probe", "", leaf, lineage.NewLeaf("lit", strconv.Itoa(i)))
	}
	val := data.Rand(env.cols, env.cols, -1, 1, 1, 11) // a gram matrix, what HCV shares
	const resident = 1024
	items := make([]*lineage.Item, resident)
	for i := range items {
		items[i] = item(i)
		sh.Publish("t000", items[i], 1, val, 1e-3)
	}
	i := 0
	p.ns("serve.shared_probe_hit_ns", func() { sh.Probe("t001", items[i%resident], 1); i++ })
	miss := item(-1)
	p.ns("serve.shared_probe_miss_ns", func() { sh.Probe("t001", miss, 1) })
	next := resident
	p.ns("serve.shared_publish_ns", func() { sh.Publish("t000", item(next), 1, val, 1e-3); next++ })

	cc := serve.NewCompileCache(16)
	for k := uint64(0); k < resident; k++ {
		cc.StoreCompiled(k, &rt.CompiledBlock{})
	}
	key := uint64(0)
	p.ns("serve.compile_lookup_ns", func() { cc.LookupCompiled(key % resident); key++ })

	// Admission checksums every input once for the conflict keys; binding
	// into the session checksums it again for the share signature.
	total := 0.0
	for ci, in := range env.requestInputs {
		v, _ := p.measure(func() {
			for _, m := range in {
				m.Checksum()
				m.Checksum()
			}
		})
		total += env.weight[ci] * v
	}
	p.out["serve.checksum_us_per_req"] = total / 1e3
}
