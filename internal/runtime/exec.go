package runtime

import (
	"fmt"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/ir"
	"memphis/internal/lineage"
	"memphis/internal/spark"
	"memphis/internal/vtime"
)

// ensureHost returns the host copy of a value, waiting on pending prefetch
// transfers, materializing a deferred transpose, reusing cached Spark action
// results (bypassing the job, §4.1), or collecting/copying from the owning
// backend. Every consumer that wants host data comes through here, which is
// what lets a deferred value stay unbuilt until one does.
func (ctx *Context) ensureHost(v *Value) *data.Matrix {
	if v.Pending != nil {
		ctx.Clock.WaitChain(v.Pending)
		v.Pending = nil
	}
	if m := v.host(); m != nil {
		return m
	}
	switch {
	case v.RDD != nil:
		// Spark action reuse: a previously collected result with the same
		// lineage bypasses the whole job.
		if v.Lin != nil && ctx.fineGrainedReuse(core.BackendSpark) {
			key := collectKey(v.Lin)
			if e, hit := ctx.Cache.Probe(key); hit {
				ctx.Stats.ActionReuses++
				v.M = ctx.Cache.Matrix(e)
				return v.M
			}
			ctx.Stats.Collects++
			v.M = ctx.SC.Collect(v.RDD)
			cost := costs.Transfer(v.SizeBytes(), ctx.Model.CollectBW, 0) +
				ctx.Model.SparkJobOverhead
			ctx.Cache.PutCP(key, v.M, cost, ctx.delay(), true, false)
			return v.M
		}
		ctx.Stats.Collects++
		v.M = ctx.SC.Collect(v.RDD)
		return v.M
	case v.HasGPU():
		if v.Lin != nil && ctx.fineGrainedReuse(core.BackendGPU) {
			key := d2hKey(v.Lin)
			if e, hit := ctx.Cache.Probe(key); hit {
				ctx.Stats.ActionReuses++
				v.M = ctx.Cache.Matrix(e)
				return v.M
			}
			ctx.Stats.D2HFetches++
			v.M = ctx.GM.Device().D2H(v.GPU)
			cost := costs.Transfer(v.SizeBytes(), ctx.Model.D2HBW, ctx.Model.CopyLatency)
			ctx.Cache.PutCP(key, v.M, cost, ctx.delay(), true, false)
			return v.M
		}
		ctx.Stats.D2HFetches++
		v.M = ctx.GM.Device().D2H(v.GPU)
		return v.M
	}
	panic("runtime: value has no backend copy")
}

// collectKey derives the lineage key of a collected (driver-side) copy of a
// distributed value.
func collectKey(li *lineage.Item) *lineage.Item {
	return lineage.NewItem("collect", "", li)
}

// d2hKey derives the lineage key of the host copy of a device value.
func d2hKey(li *lineage.Item) *lineage.Item {
	return lineage.NewItem("d2h", "", li)
}

// ensureRDD returns the distributed form of a value, parallelizing a host
// matrix on demand.
func (ctx *Context) ensureRDD(v *Value, name string) *spark.RDD {
	if v.RDD != nil {
		return v.RDD
	}
	v.RDD = ctx.SC.Parallelize(ctx.ensureHost(v), ctx.Conf.Spark.NumExecutors, name)
	return v.RDD
}

// ensureBcast returns a live broadcast handle for a value, creating one
// synchronously if the compiler did not place an async broadcast (§5.1).
func (ctx *Context) ensureBcast(v *Value) *spark.Broadcast {
	if v.Bcast != nil && !v.Bcast.Destroyed() {
		return v.Bcast
	}
	v.Bcast = ctx.SC.NewBroadcast(ctx.ensureHost(v), false)
	return v.Bcast
}

// ensureGPU returns the device copy of a value, uploading through the
// memory manager (so recycled pointers are reused for transfers too).
func (ctx *Context) ensureGPU(v *Value, height int) (*Value, error) {
	if v.HasGPU() {
		return v, nil
	}
	m := ctx.ensureHost(v)
	p, err := ctx.GM.Allocate(m.SizeBytes(), height, 0)
	if err != nil {
		return nil, err
	}
	ctx.GM.Device().CopyIn(p, m)
	v.GPU = p
	return v, nil
}

// trace records the instruction in the lineage map (TRACE of the unified
// API) and returns the new item. Fused instructions replay their
// constituent ops so reuse keys are identical with fusion on or off.
func (ctx *Context) trace(inst *compiler.Instruction) *lineage.Item {
	if inst.Op == ir.FusedOp {
		if li := ctx.traceFused(inst); li != nil {
			return li
		}
	}
	ctx.Clock.Advance(ctx.Model.Trace)
	ctx.candidate(inst)
	return ctx.keep(inst)
}

// keep binds a heap copy of the sealed candidate to the instruction's output
// and returns it.
func (ctx *Context) keep(inst *compiler.Instruction) *lineage.Item {
	li := ctx.cand.Keep()
	ctx.outCell(inst, 0).li = li
	return li
}

// candidate fills the context's lineage candidate with the item tracing
// the instruction would bind, counts the trace, and returns the sealed
// candidate: its inputs are the operands' items (a leaf for an operand
// never traced, bound to it as Map.Trace binds one) and its hash folds
// their hashes onto the prepared prefix. Nothing is allocated unless a
// leaf is.
func (ctx *Context) candidate(inst *compiler.Instruction) *lineage.Item {
	ctx.cand.Reset(inst.LineagePrefix(), inst.Op, inst.LineageData())
	for i, name := range inst.Inputs {
		if s := inst.Slot(i); s >= 0 {
			ctx.cand.Add(itemOrLeaf(ctx.frame[s], name))
		}
	}
	ctx.LMap.traced++
	return ctx.cand.Seal()
}

// delay returns the active delayed-caching factor (block header, §5.2).
// Only full MEMPHIS applies delays; other modes cache eagerly like LIMA.
func (ctx *Context) delay() int {
	if ctx.Conf.Mode != ReuseMemphis && ctx.Conf.Mode != ReuseMemphisFine {
		return 1
	}
	if ctx.delayFactor <= 0 {
		return 1
	}
	return ctx.delayFactor
}

// execute runs one instruction of the current frame through the Figure-4
// path: interpret, trace, probe/reuse, execute, put.
func (ctx *Context) execute(inst *compiler.Instruction) error {
	switch inst.Kind {
	case compiler.KindPrefetch:
		return ctx.execPrefetch(inst)
	case compiler.KindBroadcast:
		return ctx.execBroadcast(inst)
	case compiler.KindCheckpoint:
		return ctx.execCheckpoint(inst)
	}
	switch inst.Op {
	case "call":
		return ctx.execCall(inst)
	case "assign":
		return ctx.execAssign(inst)
	case "chkpoint":
		return ctx.execCheckpoint(inst)
	}
	ctx.Stats.Instructions++
	ctx.Clock.Advance(ctx.Model.Interpret)
	out := ctx.outCell(inst, 0)
	var li *lineage.Item
	wantReuse := ctx.tracing() && inst.Cacheable() && ctx.fineGrainedReuse(inst.Backend) &&
		(ctx.Conf.CPAllowlist == nil || inst.Backend != core.BackendCP || ctx.Conf.CPAllowlist[inst.Op]) &&
		!ctx.skipCache(inst.Output())
	switch {
	case wantReuse && inst.Op != ir.FusedOp:
		// Probe with the unallocated candidate; an item is kept only if
		// the probe does not serve the value.
		ctx.Clock.Advance(ctx.Model.Trace)
		if ctx.reuse(inst, out, ctx.candidate(inst)) {
			return nil
		}
		li = ctx.keep(inst)
	case ctx.tracing():
		li = ctx.trace(inst)
		if wantReuse && ctx.reuse(inst, out, li) {
			return nil
		}
	}
	if wantReuse {
		// Second level: the cross-session shared cache (serving layer).
		// A hit installs the value locally so later probes stay session-
		// local, keyed under this session's item.
		if inst.Backend == core.BackendCP && ctx.Shared != nil {
			if m, computeCost, ok := ctx.shareProbe(li); ok {
				ctx.Cache.PutCP(li, m, computeCost, 1, false, false)
				v := NewHostValue(m)
				v.Lin = li
				ctx.bindCell(out, v)
				ctx.Stats.Reused++
				return nil
			}
		}
	}
	v, err := ctx.execOp(inst)
	if err != nil {
		return fmt.Errorf("runtime: %s: %w", inst, err)
	}
	v.Lin = li
	ctx.bindCell(out, v)
	if wantReuse {
		ctx.putValue(inst, li, v)
	}
	return nil
}

// reuse probes the driver cache for an instruction's lineage item and, on a
// hit whose value is still usable, binds the value to the output cell with
// the cached key as its lineage: compaction, so future DAGs share sub-DAGs
// by identity (Figure 5).
func (ctx *Context) reuse(inst *compiler.Instruction, out *binding, li *lineage.Item) bool {
	e, hit := ctx.Cache.Probe(li)
	if !hit {
		return false
	}
	v := ctx.valueFromEntry(e)
	if v == nil {
		return false
	}
	v.Lin = e.Key
	ctx.bindCell(out, v)
	out.li = e.Key
	ctx.Stats.Reused++
	return true
}

// valueFromEntry materializes a Value from a cache entry, performing the
// backend-side reuse bookkeeping. Returns nil when the entry is no longer
// usable (e.g. a recycled GPU pointer).
func (ctx *Context) valueFromEntry(e *core.Entry) *Value {
	switch e.Backend {
	case core.BackendCP:
		m := ctx.Cache.Matrix(e)
		return NewHostValue(m)
	case core.BackendSpark:
		ctx.Cache.OnRDDReuse(e)
		return NewRDDValue(e.RDD)
	case core.BackendGPU:
		if !ctx.Cache.ReuseGPU(e) {
			return nil
		}
		rows, cols := gpuDims(e)
		return NewGPUValue(e.GPUPtr, rows, cols)
	}
	return nil
}

// gpuDims recovers matrix dimensions of a cached device value.
func gpuDims(e *core.Entry) (int, int) {
	if v := e.GPUPtr.Value(); v != nil {
		return v.Rows, v.Cols
	}
	return 1, int(e.Size / 8)
}

// putValue stores a freshly computed value (PUT of the unified API) in the
// cache of the backend that holds it.
func (ctx *Context) putValue(inst *compiler.Instruction, li *lineage.Item, v *Value) {
	switch {
	case v.RDD != nil && v.M == nil:
		cost := costs.Compute(inst.Flops, ctx.Model.SparkFlops) + ctx.Model.SparkJobOverhead
		ctx.Cache.PutRDD(li, v.RDD, v.children, v.bcasts, cost, ctx.delay(), ctx.storageLevel)
	case v.HasGPU() && v.M == nil:
		cost := costs.Compute(inst.Flops, ctx.Model.GPUFlops)
		ctx.Cache.PutGPU(li, v.GPU, cost, ctx.delay())
	case v.HasHost():
		cost := costs.Compute(inst.Flops, ctx.Model.CPUFlops)
		ctx.putCP(li, v, cost, ctx.delay(), false)
		if ctx.Shared != nil {
			ctx.sharePublish(li, v, cost)
		}
	}
}

// putCP stores a host value in the driver cache. The put is accounted in
// full (count, CachePut charge, delayed-caching state, evictions for the
// logical size), but a deferred value is materialized only if the cache
// really keeps the object.
func (ctx *Context) putCP(key *lineage.Item, v *Value, cost float64, delay int, isFunc bool) *core.Entry {
	if v.M != nil {
		return ctx.Cache.PutCP(key, v.M, cost, delay, false, isFunc)
	}
	return ctx.Cache.PutCPLazy(key, v.SizeBytes(), v.host, cost, delay, isFunc)
}

// execAssign copies a binding (variable-to-variable assignment) or binds a
// literal. The target always takes the source's lineage — a literal's is a
// value-carrying leaf — so it never keeps the lineage of what it held before.
func (ctx *Context) execAssign(inst *compiler.Instruction) error {
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return err
	}
	if v.HasGPU() && ctx.GM != nil {
		ctx.GM.Retain(v.GPU)
	}
	out := ctx.outCell(inst, 0)
	ctx.bindCell(out, v)
	if ctx.tracing() {
		if s := inst.Slot(0); s < 0 {
			out.li = lineage.NewLeaf("lit", compiler.LiteralValue(inst.Inputs[0]))
		} else {
			out.li = ctx.frame[s].li
		}
	}
	return nil
}

// execPrefetch triggers the remote job or device copy asynchronously and
// records the future on the value; results are cached once fetched so
// subsequent iterations reuse them (§5.1).
func (ctx *Context) execPrefetch(inst *compiler.Instruction) error {
	ctx.Stats.Prefetches++
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return err
	}
	if v.HasHost() || v.Pending != nil {
		return nil // already local or in flight
	}
	switch {
	case v.RDD != nil && ctx.SC != nil:
		// A previously collected result with this lineage bypasses the
		// job entirely (Spark action reuse, §4.1).
		if v.Lin != nil && ctx.fineGrainedReuse(core.BackendSpark) {
			if e, hit := ctx.Cache.Probe(collectKey(v.Lin)); hit {
				ctx.Stats.ActionReuses++
				v.M = ctx.Cache.Matrix(e)
				return nil
			}
		}
		val, chain := ctx.SC.CollectAsync(v.RDD)
		v.M = val
		v.Pending = chain
		if v.Lin != nil && ctx.fineGrainedReuse(core.BackendSpark) {
			cost := costs.Transfer(val.SizeBytes(), ctx.Model.CollectBW, 0) +
				ctx.Model.SparkJobOverhead
			ctx.Cache.PutCP(collectKey(v.Lin), val, cost, ctx.delay(), true, false)
		}
	case v.HasGPU() && ctx.GM != nil:
		if v.Lin != nil && ctx.fineGrainedReuse(core.BackendGPU) {
			if e, hit := ctx.Cache.Probe(d2hKey(v.Lin)); hit {
				ctx.Stats.ActionReuses++
				v.M = ctx.Cache.Matrix(e)
				return nil
			}
		}
		val, f := ctx.GM.Device().D2HAsync(v.GPU)
		v.M = val
		v.Pending = &vtime.FutureChain{Job: f}
		if v.Lin != nil && ctx.fineGrainedReuse(core.BackendGPU) {
			cost := costs.Transfer(val.SizeBytes(), ctx.Model.D2HBW, ctx.Model.CopyLatency)
			ctx.Cache.PutCP(d2hKey(v.Lin), val, cost, ctx.delay(), true, false)
		}
	}
	return nil
}

// execBroadcast registers the value as an asynchronous broadcast variable.
func (ctx *Context) execBroadcast(inst *compiler.Instruction) error {
	if ctx.SC == nil {
		return nil
	}
	ctx.Stats.Broadcasts++
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return err
	}
	if v.HasHost() && (v.Bcast == nil || v.Bcast.Destroyed()) {
		v.Bcast = ctx.SC.NewBroadcast(v.host(), true)
	}
	return nil
}

// execCheckpoint persists an RDD-backed variable at the block's storage
// level and registers it with the cache so eviction tracks it (§5.2). It is
// lineage-transparent and a no-op for local values.
func (ctx *Context) execCheckpoint(inst *compiler.Instruction) error {
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return nil // variable out of scope: checkpoint is a no-op
	}
	out := ctx.outCell(inst, 0)
	ctx.bindCell(out, v)
	// Checkpoints are lineage-transparent: the output carries the input's
	// lineage unchanged (the linearizer may route it through a temporary).
	if s := inst.Slot(0); ctx.tracing() && s >= 0 {
		out.li = ctx.frame[s].li
	}
	if v.RDD == nil || v.M != nil {
		return nil
	}
	ctx.Stats.Checkpoints++
	level := ctx.storageLevel
	if level == spark.StorageNone {
		level = spark.StorageMemoryAndDisk
	}
	v.RDD.Persist(level)
	if ctx.tracing() && v.Lin != nil && ctx.fineGrainedReuse(core.BackendSpark) {
		cost := costs.Transfer(v.SizeBytes(), ctx.Model.SparkExchangeBW, 0) +
			ctx.Model.SparkJobOverhead
		ctx.Cache.PutRDD(v.Lin, v.RDD, v.children, v.bcasts, cost, 1, level)
	}
	return nil
}

// EnsureHostValue is the exported host-fetch used by the public facade and
// tests: it waits on pending transfers and collects/copies from the owning
// backend, going through the Spark-action/D2H reuse path.
func (ctx *Context) EnsureHostValue(v *Value) *data.Matrix { return ctx.ensureHost(v) }
