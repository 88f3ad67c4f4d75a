package runtime

import (
	"errors"
	"fmt"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/ir"
	"memphis/internal/lineage"
	"memphis/internal/spark"
)

// RunProgram interprets a program: every basic block is fetched from the
// compile cache — compiled against the current variable sizes on a miss, so
// a block is recompiled exactly when the shapes it reads or the compiler
// configuration change — then executed instruction by instruction through
// the reuse path.
//
// The program's statements must not change once it has run (see ir.Program):
// the session memoizes per-block key components by block pointer for as long
// as it keeps running the same program.
//
// A Spark stage abort (a task exceeding its attempt limit under fault
// injection) unwinds the RDD evaluation as an ErrStageAbort panic; it is
// converted to an error here so callers — the serve layer's retry loop in
// particular — see a failed program run, not a crashed process — and the
// frames and call scopes the run had entered are left as their returns
// would have left them. All other panics propagate.
func (ctx *Context) RunProgram(p *ir.Program) (err error) {
	if ctx.closed {
		return fmt.Errorf("runtime: context is closed")
	}
	frame, scope, depth := frameMark{ctx.layout, ctx.frame, len(ctx.frames)}, ctx.LMap.scope, ctx.depth
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, spark.ErrStageAbort) {
				ctx.unwind(frame, scope, depth)
				err = e
				return
			}
			panic(r)
		}
	}()
	if ctx.prog != p {
		ctx.prog, ctx.bbKeys, ctx.condBBs, ctx.loopLeaves, ctx.fnOuts = p, nil, nil, nil, nil
	}
	return ctx.runBlocks(p.Main)
}

func (ctx *Context) runBlocks(blocks []ir.Block) error {
	for _, b := range blocks {
		switch t := b.(type) {
		case *ir.BasicBlock:
			if err := ctx.runBasicBlock(t); err != nil {
				return err
			}
		case *ir.ForBlock:
			leaves := ctx.loopLits(t)
			for i, val := range t.Values {
				ctx.bindLoopVar(t.Var, val, leaves[i])
				if err := ctx.runBlocks(t.Body); err != nil {
					return err
				}
			}
		case *ir.WhileBlock:
			maxIter := t.MaxIter
			if maxIter <= 0 {
				maxIter = 1000
			}
			for it := 0; it < maxIter; it++ {
				c, err := ctx.evalScalar(t.Cond)
				if err != nil {
					return err
				}
				if c == 0 {
					break
				}
				if err := ctx.runBlocks(t.Body); err != nil {
					return err
				}
			}
		case *ir.IfBlock:
			c, err := ctx.evalScalar(t.Cond)
			if err != nil {
				return err
			}
			if c != 0 {
				if err := ctx.runBlocks(t.Then); err != nil {
					return err
				}
			} else if err := ctx.runBlocks(t.Else); err != nil {
				return err
			}
		case *ir.EvictBlock:
			ctx.Stats.Evicts++
			ctx.Cache.EvictGPUPercent(t.Fraction)
		default:
			return fmt.Errorf("runtime: unknown block type %T", b)
		}
	}
	return nil
}

// runBasicBlock executes one basic block's compiled stream, applying the
// block-header reuse parameters (§5.2) and clearing temporaries afterwards.
// With a memory planner configured the block carries a plan: the rewritten
// stream executes under it, lifetime hints are stamped per position, and
// measured evictions are attributed back to the stream's report row. Plan
// state is saved and restored around the block because function calls and
// scalar-condition evaluation recurse here.
func (ctx *Context) runBasicBlock(bb *ir.BasicBlock) error {
	cb := ctx.compiledBlock(bb)
	insts := cb.Planned
	frame := ctx.enterFrame(cb.layout)
	savedPlan, savedPos := ctx.activePlan, ctx.planPos
	var rec *planRecord
	var evictBefore int64
	if cb.Plan != nil {
		rec = ctx.planRecordFor(cb)
		ctx.activePlan, ctx.planPos = cb.Plan, 0
		ctx.Cache.BeginPlanEpoch()
		ctx.Stats.PlanBlocks++
		evictBefore = ctx.Cache.Stats.EvictionsCP
	}
	prevDelay, prevLevel := ctx.delayFactor, ctx.storageLevel
	ctx.delayFactor = bb.DelayFactor
	switch bb.StorageLevel {
	case "MEMORY":
		ctx.storageLevel = spark.StorageMemory
	case "MEMORY_AND_DISK":
		ctx.storageLevel = spark.StorageMemoryAndDisk
	default:
		ctx.storageLevel = spark.StorageMemory
	}
	var err error
	for i := range insts {
		if rec != nil {
			ctx.planPos = i
		}
		if err = ctx.execute(&insts[i]); err != nil {
			break
		}
		if rec != nil {
			// Restore the position in case a call/condition recursed and
			// planned a nested stream, then track the live-byte peak.
			// Sampling walks every bound variable, so it runs only at the
			// planner-predicted peak, every 32 instructions, and at block
			// end — not after every instruction.
			ctx.activePlan, ctx.planPos = cb.Plan, i
			if i == cb.Plan.PeakAt || i == len(insts)-1 || i%32 == 31 {
				if lv := ctx.sampleLive(); lv > rec.peakLiveBytes {
					rec.peakLiveBytes = lv
				}
			}
		}
	}
	ctx.clearTemps(cb.temps)
	ctx.leaveFrame(frame)
	ctx.delayFactor, ctx.storageLevel = prevDelay, prevLevel
	if rec != nil {
		rec.runs++
		rec.evictions += ctx.Cache.Stats.EvictionsCP - evictBefore
	}
	ctx.activePlan, ctx.planPos = savedPlan, savedPos
	return err
}

// bindLoopVar binds the loop variable as a literal scalar: its lineage is
// leaf, a value-carrying leaf whose data is the value's text, so
// loop-dependent operations have iteration-specific lineage (not reusable)
// while loop-independent ones reuse across iterations.
func (ctx *Context) bindLoopVar(name string, val float64, leaf *lineage.Item) {
	c := ctx.LMap.cell(name)
	ctx.bindCell(c, NewScalar(val))
	if ctx.tracing() {
		c.li = leaf
	}
}

// loopLits returns the lineage leaf ("lit", fmt.Sprint of the value) of each
// value of a for loop, built once per loop of the running program: a leaf
// is immutable, so every iteration over a value binds the same one.
func (ctx *Context) loopLits(f *ir.ForBlock) []*lineage.Item {
	leaves, ok := ctx.loopLeaves[f]
	if !ok || len(leaves) != len(f.Values) {
		leaves = make([]*lineage.Item, len(f.Values))
		for i, v := range f.Values {
			leaves[i] = lineage.NewLeaf("lit", fmt.Sprint(v))
		}
		if ctx.loopLeaves == nil {
			ctx.loopLeaves = make(map[*ir.ForBlock][]*lineage.Item)
		}
		ctx.loopLeaves[f] = leaves
	}
	return leaves
}

// fnOutData returns the data strings ("fn#ret") of a function's output
// keys, built once per function name of the running program. They live in
// the session, not in a compiled block: block keys cover neither the
// program nor function bodies, so programs that share a call block may
// define the function differently.
func (ctx *Context) fnOutData(fnName string, fn *ir.Function) []string {
	data, ok := ctx.fnOuts[fnName]
	if !ok || len(data) != len(fn.Returns) {
		data = make([]string, len(fn.Returns))
		for i, ret := range fn.Returns {
			data[i] = fnName + "#" + ret
		}
		if ctx.fnOuts == nil {
			ctx.fnOuts = make(map[string][]string)
		}
		ctx.fnOuts[fnName] = data
	}
	return data
}

// evalScalar evaluates a scalar condition expression. The block wrapped
// around a condition is made once per condition node, so every evaluation of
// a loop condition presents the same block to the key memo.
func (ctx *Context) evalScalar(cond *ir.Node) (float64, error) {
	bb := ctx.condBBs[cond]
	if bb == nil {
		bb = ir.BB(ir.Assign("_cond", cond))
		if ctx.condBBs == nil {
			ctx.condBBs = make(map[*ir.Node]*ir.BasicBlock)
		}
		ctx.condBBs[cond] = bb
	}
	if err := ctx.runBasicBlock(bb); err != nil {
		return 0, err
	}
	v := ctx.Var("_cond")
	if v == nil {
		return 0, fmt.Errorf("runtime: condition produced no value")
	}
	res := ctx.ensureHost(v).ScalarValue()
	ctx.removeVar("_cond")
	return res, nil
}

// callStack is how many arguments and how many outputs a call keeps in
// arrays on execCall's stack.
const callStack = 4

// fit returns buf[:n], or a new slice when n exceeds buf.
func fit[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// execCall invokes a function with multi-level (function output) reuse:
// outputs of deterministic functions called with identical inputs are
// reused as a whole, even across backends (§3.3).
func (ctx *Context) execCall(inst *compiler.Instruction) error {
	ctx.Stats.FuncCalls++
	fnName := inst.Attr("fn")
	fn := ctx.prog.Funcs[fnName]
	if fn == nil {
		return fmt.Errorf("runtime: undefined function %q", fnName)
	}
	if len(inst.Inputs) != len(fn.Params) {
		return fmt.Errorf("runtime: %s expects %d args, got %d", fnName, len(fn.Params), len(inst.Inputs))
	}
	if len(inst.Outputs) != len(fn.Returns) {
		return fmt.Errorf("runtime: %s returns %d values, got %d targets", fnName, len(fn.Returns), len(inst.Outputs))
	}
	// Arguments, output keys and probed values of a call with few of them
	// stay on the stack: a reused call allocates only its keys.
	var argBuf [callStack]*Value
	var linBuf [callStack]*lineage.Item
	args, argLis := fit(argBuf[:], len(inst.Inputs)), fit(linBuf[:], len(inst.Inputs))
	for i, in := range inst.Inputs {
		v, err := ctx.operand(inst, i)
		if err != nil {
			return err
		}
		args[i] = v
		if ctx.tracing() {
			if s := inst.Slot(i); s < 0 {
				argLis[i] = inst.LiteralLeaf(i)
			} else {
				argLis[i] = itemOrLeaf(ctx.frame[s], in)
			}
		}
	}
	multiLevel := ctx.tracing() && fn.Deterministic && ctx.multiLevelReuse(fnName)
	var keyBuf [callStack]*lineage.Item
	var outKeys []*lineage.Item
	if multiLevel {
		var valBuf [callStack]*Value
		outKeys = fit(keyBuf[:], len(fn.Returns))
		vals := fit(valBuf[:], len(fn.Returns))
		for i, data := range ctx.fnOutData(fnName, fn) {
			outKeys[i] = lineage.NewItem("fnout", data, argLis...)
		}
		// Probe all outputs; reuse only if the whole call is covered. On a
		// local miss the shared level (serving layer) is consulted and a
		// hit is installed locally, so whole calls reuse across tenants.
		allHit := true
		for i, key := range outKeys {
			if e, hit := ctx.Cache.Probe(key); hit {
				if v := ctx.valueFromEntry(e); v != nil {
					vals[i] = v
					continue
				}
			}
			if m, computeCost, ok := ctx.shareProbe(key); ok {
				ctx.Cache.PutCP(key, m, computeCost, 1, false, true)
				v := NewHostValue(m)
				vals[i] = v
				continue
			}
			allHit = false
			break
		}
		if allHit {
			ctx.Stats.FuncReuses++
			for i, key := range outKeys {
				// Bind the fine-grained alias lineage when recorded so
				// downstream operations key consistently across hit and
				// miss paths, and the value stays recomputable.
				lin := key
				if e := ctx.Cache.Lookup(key); e != nil && e.Alias != nil {
					lin = e.Alias
				}
				vals[i].Lin = lin
				out := ctx.outCell(inst, i)
				ctx.bindCell(out, vals[i])
				out.li = lin
			}
			return nil
		}
	}
	// Execute the body in a scope of its own. The caller's frame stays
	// resolved in the caller's scope, and callee blocks stack their frames
	// above it.
	start := ctx.Clock.Now()
	frame := ctx.frame
	caller := ctx.enterScope()
	for i, p := range fn.Params {
		if args[i].HasGPU() && ctx.GM != nil {
			ctx.GM.Retain(args[i].GPU)
		}
		c := ctx.LMap.cell(p)
		c.v = args[i]
		if ctx.tracing() {
			c.li = argLis[i]
		}
	}
	runErr := ctx.runBlocks(fn.Body)
	outs := make([]*Value, len(fn.Returns))
	outLis := make([]*lineage.Item, len(fn.Returns))
	if runErr == nil {
		for i, ret := range fn.Returns {
			c := ctx.LMap.lookup(ret)
			if c == nil || c.v == nil {
				runErr = fmt.Errorf("runtime: %s did not assign return %q", fnName, ret)
				break
			}
			outs[i], outLis[i] = c.v, c.li
			if outs[i].HasGPU() && ctx.GM != nil {
				ctx.GM.Retain(outs[i].GPU) // caller's reference
			}
		}
	}
	ctx.leaveScope(caller)
	if runErr != nil {
		return runErr
	}
	elapsed := ctx.Clock.Now() - start
	for i := range inst.Outputs {
		lin := outLis[i]
		if lin == nil && multiLevel {
			lin = outKeys[i]
		}
		outs[i].Lin = lin
		out := frame[inst.OutSlot(i)]
		ctx.bindCell(out, outs[i])
		if ctx.tracing() && lin != nil {
			out.li = lin
		}
	}
	if multiLevel {
		cost := elapsed / float64(len(outs))
		for i, v := range outs {
			var e *core.Entry
			switch {
			case v.RDD != nil && v.M == nil:
				e = ctx.Cache.PutRDD(outKeys[i], v.RDD, v.children, v.bcasts, cost, 1, ctx.storageLevel)
			case v.HasHost():
				if ctx.arena != nil {
					ctx.arena.Escape(v.M)
				}
				e = ctx.putCP(outKeys[i], v, cost, 1, true)
				ctx.sharePublish(outKeys[i], v, cost)
			case v.HasGPU():
				e = ctx.Cache.PutGPU(outKeys[i], v.GPU, cost, 1)
			}
			if e != nil {
				e.Alias = outLis[i]
			}
		}
	}
	return nil
}
