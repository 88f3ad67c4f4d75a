package main

import (
	"fmt"
	"time"

	"memphis/internal/bench"
	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/ir"
	rt "memphis/internal/runtime"
	wl "memphis/internal/workloads"
)

// pipeWorkload is pipe-local (multi=false) and pipe-multibackend (multi=true):
// the paper's end-to-end pipelines, each execution on a fresh bench.MPH
// runtime configured as the corresponding figure configures it.
//
// pipe-local is HBAND alone, CP only: matmul, transpose and buffer allocation
// dominate and compilation is under 1 %, so this is where internal/data work
// shows, and its Spark and GPU counters must read zero. pipe-multibackend is
// one pass over PNMF and HCV (Spark), CLEAN (Spark transforms + CP) and TLVIS
// and HDROP (GPU): the only workload on which internal/spark and internal/gpu
// run at all.
type pipeWorkload struct{ multi bool }

// pipeSpec is one pipeline of a pass.
type pipeSpec struct {
	name      string
	sys, base bench.System
	env       bench.Env
	build     func() *wl.Workload
	fetch     []string
	// reps is how often a pass executes the pipeline, fixed so that each
	// pipeline is between 15 % and 35 % of the pass's wall time and a pass
	// stays under a second: the median over many short passes dodges a noisy
	// spell on a shared box, the median over a few long ones does not.
	reps int
}

func pipeSpecs(c config, multi bool) []pipeSpec {
	sd := func(k uint64) int64 { return seedFor(c.seed, 2000+k) }
	q := c.quick
	pick := func(full, quick int) int {
		if q {
			return quick
		}
		return full
	}
	if !multi {
		env := bench.DefaultEnv() // Fig. 13(c)
		env.OpMemBudget = 16 << 20
		env.GPUCapacity = 0
		rows, cols := pick(32000, 1500), pick(64, 16)
		return []pipeSpec{{
			name: "hband", sys: bench.MPH, base: bench.Base, env: env, reps: 1,
			build: func() *wl.Workload { return wl.HBand(rows, cols, 3, 4, 3, 50, sd(0)) },
			fetch: []string{"accSvm", "accMlr", "ensScore"},
		}}
	}
	pnmf := bench.DefaultEnv() // Fig. 13(b): W and X distributed
	pnmf.OpMemBudget = 64 << 10
	pnmf.GPUCapacity = 0
	hcv := bench.DefaultEnv() // Fig. 13(a): the large folds compile to Spark
	hcv.OpMemBudget = 4 << 20
	hcv.GPUCapacity = 0
	clean := bench.DefaultEnv() // Fig. 14(a) scaled down until the input no longer fits operation memory
	clean.OpMemBudget = 256 << 10
	clean.GPUCapacity = 0
	clean.CPBudget = 256 << 20
	imgs, side := pick(16, 8), pick(16, 8)
	tlvis := bench.DefaultEnv() // Fig. 14(d): a device the three models cannot share
	tlvis.OpMemBudget = 1 << 30
	tlvis.GPUMinCells = 64
	tlvis.GPUCapacity = int64(imgs*side*side*3*8) * 16
	hdrop := bench.DefaultEnv() // Fig. 14(b)
	hdrop.OpMemBudget = 1 << 30
	hdrop.GPUMinCells = 512
	regs := []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30}
	users, hcvRows, cleanRows, dropRows := pick(2000, 300), pick(32000, 3000), pick(2000, 300), pick(512, 128)
	return []pipeSpec{
		{name: "pnmf", sys: bench.MPH, base: bench.Base, env: pnmf, reps: 3,
			build: func() *wl.Workload { return wl.PNMF(users, 40, 8, 15, sd(1)) },
			fetch: []string{"obj", "H"}},
		{name: "hcv", sys: bench.MPH, base: bench.Base, env: hcv, reps: 1,
			build: func() *wl.Workload { return wl.HCV(hcvRows, 48, 3, regs, sd(2)) },
			fetch: []string{"best"}},
		{name: "clean", sys: bench.MPH, base: bench.Base, env: clean, reps: 2,
			build: func() *wl.Workload { return wl.Clean(cleanRows, 20, 2, 3, sd(3)) },
			fetch: []string{"bestScore"}},
		{name: "tlvis", sys: bench.MPH, base: bench.BaseG, env: tlvis, reps: 1,
			build: func() *wl.Workload { return wl.TLVis(imgs, 4, side, side, sd(4)) },
			fetch: []string{"rank"}},
		{name: "hdrop", sys: bench.MPH, base: bench.BaseG, env: hdrop, reps: 2,
			build: func() *wl.Workload {
				return wl.HDrop(dropRows, 12, 16, []float64{0.1, 0.3, 0.5}, 2, 64, sd(5))
			},
			fetch: []string{"bestLoss"}},
	}
}

type pipeInstance struct {
	specs  []pipeSpec
	inputs []map[string]*data.Matrix
}

// captureInputs generates a workload's inputs once. Workloads without a
// HostInputs map only know how to bind into a context, so they bind into a
// throwaway one and the variables the program reads are collected from it.
func captureInputs(w *wl.Workload) map[string]*data.Matrix {
	if w.HostInputs != nil {
		return w.HostInputs()
	}
	ctx := rt.New(rt.Config{Compiler: compiler.DefaultConfig(), Cache: core.DefaultConfig()})
	defer ctx.Close()
	w.Bind(ctx)
	reads := map[string]struct{}{}
	ir.Walk(w.Prog.Main, func(b ir.Block) {
		if bb, ok := b.(*ir.BasicBlock); ok {
			for _, st := range bb.Stmts {
				ir.VarsRead(st.Expr, reads)
			}
		}
	})
	inputs := map[string]*data.Matrix{}
	for name := range reads {
		if v := ctx.Var(name); v != nil && v.M != nil {
			inputs[name] = v.M
		}
	}
	return inputs
}

func (w pipeWorkload) setup(c config) (instance, error) {
	p := &pipeInstance{specs: pipeSpecs(c, w.multi)}
	for _, s := range p.specs {
		p.inputs = append(p.inputs, captureInputs(s.build()))
	}
	// One untimed pass: page in the inputs and grow the heap to its working
	// size before the first timed operation.
	warm := newPhase()
	if err := p.pass(warm, nil, -1, nil); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %v", warm.failures)
	}
	return p, nil
}

// execute runs one pipeline once on a fresh runtime of the given system with
// the program-level rewrites that system enables (what bench.System.Run does,
// minus regenerating the inputs). Only RunProgram and the fetch are timed.
func (p *pipeInstance) execute(si int, sys bench.System, ph *phase, tr *tracer, parent, op int, am *allocMeter) (wall time.Duration, vtime float64, sum uint64, err error) {
	s := p.specs[si]
	ctx := sys.NewContext(s.env)
	defer ctx.Close()
	w := s.build()
	if sys.AutoTune {
		compiler.AutoTune(w.Prog)
	}
	if sys.Checkpoints {
		compiler.InjectLoopCheckpoints(w.Prog)
	}
	if sys.Evictions {
		compiler.InjectEvictions(w.Prog)
	}
	wl.BindHostInputs(ctx, p.inputs[si])
	if tr != nil {
		ctx.AttachCompileCache(ph.rec, 0)
	}
	if am != nil {
		am.begin()
	}
	t0 := time.Now()
	sp := tr.begin("run", parent, op)
	ph.rec.enter(sp, op)
	err = ctx.RunProgram(w.Prog)
	ph.rec.leave()
	tr.end(sp)
	sp = tr.begin("fetch", parent, op)
	outs := fetchAll(ctx, s.fetch)
	tr.end(sp)
	wall = time.Since(t0)
	if am != nil {
		am.end(ph)
	}
	if op == 0 { // the pinned prefix is the first pass
		sums, peaks := ctxCounts(ctx)
		peaks["lin.max_height"] = maxHeight(ctx, s.fetch)
		ph.counts.add(sums)
		ph.peaks.max(peaks)
	}
	return wall, ctx.Clock.Now(), checksumAll(outs...), err
}

// pass is one operation: every pipeline, reps times each.
func (p *pipeInstance) pass(ph *phase, tr *tracer, op int, am *allocMeter) error {
	ph.attempted++
	root := tr.begin("op", -1, op)
	var wall time.Duration
	var vtime float64
	failed := false
	for si, s := range p.specs {
		for r := 0; r < s.reps; r++ {
			sp := tr.begin("pipeline."+s.name, root, op)
			w, v, sum, err := p.execute(si, s.sys, ph, tr, sp, op, am)
			tr.end(sp)
			wall += w
			vtime += v
			if prev, seen := ph.outputs[s.name]; err != nil {
				ph.failures = append(ph.failures, fmt.Sprintf("op %d: %s: %v", op, s.name, err))
				failed = true
			} else if seen && prev != sum {
				ph.failures = append(ph.failures, fmt.Sprintf("op %d: %s: outputs %016x differ from the first run's %016x", op, s.name, sum, prev))
				failed = true
			} else {
				ph.outputs[s.name] = sum
			}
		}
	}
	tr.end(root)
	if failed {
		ph.failed++
	}
	ph.busy += wall
	ph.wallMS = append(ph.wallMS, wall.Seconds()*1e3)
	ph.doneS = append(ph.doneS, ph.busy.Seconds())
	if op == 0 {
		ph.pinned, ph.vtime = 1, vtime
	}
	return nil
}

func (p *pipeInstance) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	if tr != nil {
		ph.rec = newRecordingCache(tr)
	}
	for _, s := range p.specs {
		ph.pinnedKeys = append(ph.pinnedKeys, s.name)
	}
	var am allocMeter
	start := time.Now()
	for i := 0; ; i++ {
		if err := p.pass(ph, tr, i, &am); err != nil {
			return nil, err
		}
		if time.Since(start) >= d {
			break
		}
	}
	return ph, nil
}

// verify executes every pipeline once on its no-reuse baseline system: the
// outputs must equal the reuse runs' bit for bit, and the baseline's virtual
// time per pass is the numerator of vtime.speedup_x.
func (p *pipeInstance) verify(ph *phase) ([]string, float64) {
	var fails []string
	baseVtime := 0.0
	for si, s := range p.specs {
		_, v, sum, err := p.execute(si, s.base, newPhase(), nil, -1, -1, nil)
		baseVtime += v * float64(s.reps)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s on %s: %v", s.name, s.base.Name, err))
		} else if got := ph.outputs[s.name]; got != sum {
			fails = append(fails, fmt.Sprintf("%s: %s outputs %016x differ from %s's %016x", s.name, s.sys.Name, got, s.base.Name, sum))
		}
	}
	return fails, baseVtime
}

// probes runs the first pipeline once more and keeps its context open for
// the lineage and compiler probes. The kernel shapes are HBAND's training
// matrix times its two-class weights, or PNMF's ratings matrix against its
// rank-8 factor.
func (p *pipeInstance) probes(d time.Duration, ph *phase, out map[string]float64) {
	s := p.specs[0]
	ctx := s.sys.NewContext(s.env)
	defer ctx.Close()
	w := s.build()
	wl.BindHostInputs(ctx, p.inputs[0])
	if err := ctx.RunProgram(w.Prog); err != nil {
		return
	}
	x := p.inputs[0]["X"]
	env := probeEnv{ctx: ctx, prog: w.Prog, outputs: s.fetch, streams: ph.rec.sortedStreams(), rows: x.Rows, cols: x.Cols, inner: 2}
	if len(p.specs) > 1 {
		env.inner = 8
	}
	runProbes(env, d, ph, out)
}

func (p *pipeInstance) close() {}
