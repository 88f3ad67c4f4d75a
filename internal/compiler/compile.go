package compiler

import (
	"fmt"
	"sort"

	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/ir"
)

// Config controls placement and the MEMPHIS compiler extensions. Every
// field is written into the runtime's block key (runtime.blockKey), so a
// new field must be added there too, or blocks compiled under different
// values would share a compile-cache entry.
type Config struct {
	// OpMemBudget is the operation memory: operators whose input or output
	// estimates exceed it are compiled to Spark instructions (§2.1).
	OpMemBudget int64
	// GPUEnabled turns on GPU placement for compute-intensive dense ops.
	GPUEnabled bool
	// GPUMinCells is the minimum output size for starting a GPU chain.
	GPUMinCells int
	// Async enables prefetch/broadcast operator insertion (§5.1).
	Async bool
	// MaxParallelize enables the Algorithm-2 operator ordering; otherwise
	// blocks linearize depth-first in statement order (§5.3).
	MaxParallelize bool
	// CheckpointInjection enables the within-block checkpoint rewrite for
	// overlapping Spark jobs (§5.2).
	CheckpointInjection bool
	// Fusion enables the elementwise fusion pass: maximal chains of
	// CP-placed elementwise/unary/scalar ops collapse into single fused
	// instructions executed as one loop with zero intermediate matrices.
	// Results are bitwise-identical with fusion on or off.
	Fusion bool
}

// DefaultConfig returns placement thresholds for simulation scale,
// derived from the default cost model's break-even points (costs.
// DeriveThresholds is anchored so the default model reproduces the
// original hand-calibrated constants: 1 MB plays the role of the paper's
// 7 GB, and 4096 cells the smallest profitable GPU chain start).
func DefaultConfig() Config {
	th := costs.DeriveThresholds(costs.Default())
	return Config{
		OpMemBudget: th.OpMemBudget,
		GPUMinCells: th.GPUMinCells,
	}
}

// blockCompiler holds per-block compilation state.
type blockCompiler struct {
	conf   Config
	env    map[string]ir.Shape
	shapes map[*ir.Node]ir.Shape
	place  map[*ir.Node]core.Backend
	name   map[*ir.Node]string
	tmp    int
	out    []Instruction
}

// CompileBlock lowers a basic block to a placed, linearized instruction
// stream given the current variable shapes (dynamic recompilation).
func CompileBlock(bb *ir.BasicBlock, env map[string]ir.Shape, conf Config) []Instruction {
	bc := &blockCompiler{
		conf:   conf,
		env:    env,
		shapes: make(map[*ir.Node]ir.Shape),
		place:  make(map[*ir.Node]core.Backend),
		name:   make(map[*ir.Node]string),
	}
	// Resolve variable references to producing nodes (intra-block) so the
	// statement DAG is explicit, applying local CSE on the way.
	bindings := make(map[string]*ir.Node)
	cse := make(map[string]*ir.Node)
	roots := make([]*ir.Node, len(bb.Stmts))
	for i, st := range bb.Stmts {
		roots[i] = bc.resolve(st.Expr, bindings, cse)
		if st.Expr.Op == "call" {
			// Call results are opaque: later reads see leaf vars, and the
			// call acts as an ordering barrier for its targets.
			for _, t := range st.Targets {
				delete(bindings, t)
				delete(bc.env, t)
			}
		} else {
			bindings[st.Targets[0]] = roots[i]
		}
	}
	order := bc.statementOrder(bb.Stmts, roots)
	// Final binding per target: the last statement assigning it names its
	// node directly; earlier assignments get temps.
	lastAssign := make(map[string]int)
	for i, st := range bb.Stmts {
		for _, t := range st.Targets {
			lastAssign[t] = i
		}
	}
	for _, i := range order {
		st := bb.Stmts[i]
		root := roots[i]
		if st.Expr.Op == "call" {
			bc.emitCall(st, root)
			continue
		}
		if conf.MaxParallelize {
			// Algorithm 2, steps 1-2: emit the statement's remote operator
			// chains first, longest first, so the prefetch/broadcast
			// operators inserted after their roots trigger all jobs before
			// any dependent local operator blocks on a result.
			bc.emitRemoteChains(root)
		}
		target := ""
		if lastAssign[st.Targets[0]] == i {
			target = st.Targets[0]
		}
		name := bc.emit(root, target)
		if target != "" && name != target {
			// The root was already emitted under another name (CSE or
			// repeated statement); emit an assignment.
			bc.out = append(bc.out, Instruction{
				Kind: KindOp, Op: "assign", Inputs: []string{name},
				Outputs: []string{target}, Backend: core.BackendCP,
				Shape:    bc.shapes[root],
				InShapes: []ir.Shape{bc.shapes[root]},
			})
		}
		// Keep env in sync so later statements see updated shapes.
		bc.env[st.Targets[0]] = bc.shapes[root]
	}
	insts := bc.out
	if conf.Fusion {
		insts = FuseElementwise(insts)
	}
	if conf.CheckpointInjection {
		insts = injectBlockCheckpoints(insts)
	}
	if conf.Async {
		insts = insertPrefetch(insts)
		insts = insertBroadcast(insts, conf)
	}
	return insts
}

// resolve replaces intra-block variable reads with their producing nodes
// and deduplicates structurally identical nodes (local CSE).
func (bc *blockCompiler) resolve(n *ir.Node, bindings map[string]*ir.Node, cse map[string]*ir.Node) *ir.Node {
	if n.Op == "var" {
		if prod, ok := bindings[n.Attr("name")]; ok {
			return prod
		}
		// Canonicalize leaf reads so structurally equal expressions share
		// node identity (enables the tsmm peephole and local CSE).
		key := "var|" + n.Attr("name")
		if prev, ok := cse[key]; ok {
			return prev
		}
		cse[key] = n
		return n
	}
	if n.Op == "lit" {
		key := "lit|" + n.Attr("value")
		if prev, ok := cse[key]; ok {
			return prev
		}
		cse[key] = n
		return n
	}
	resolved := make([]*ir.Node, len(n.Inputs))
	for i, in := range n.Inputs {
		resolved[i] = bc.resolve(in, bindings, cse)
	}
	nn := &ir.Node{Op: n.Op, Inputs: resolved, Attrs: n.Attrs}
	// Physical-operator peepholes (SystemDS-style rewrites): t(A) %*% A
	// becomes a self-product, and t(A) %*% B over two distributed inputs
	// becomes a cross-product multiply that never materializes t(A).
	if nn.Op == "mm" && len(resolved) == 2 && resolved[0].Op == "t" {
		inner := resolved[0].Inputs[0]
		switch {
		case inner == resolved[1]:
			nn = &ir.Node{Op: "tsmm", Inputs: []*ir.Node{inner}}
		case bc.shapeOf(inner).Bytes() > bc.conf.OpMemBudget &&
			bc.shapeOf(resolved[1]).Bytes() > bc.conf.OpMemBudget:
			nn = &ir.Node{Op: "cpmm", Inputs: []*ir.Node{inner, resolved[1]}}
		}
	}
	if n.Op == "call" {
		return nn // calls are never CSE'd here; function reuse handles them
	}
	key := cseKey(nn)
	if prev, ok := cse[key]; ok {
		return prev
	}
	cse[key] = nn
	return nn
}

// cseKey identifies a node by op, attrs, and input identities.
func cseKey(n *ir.Node) string {
	key := n.Op
	if n.Attrs != nil {
		ks := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			key += "|" + k + "=" + n.Attrs[k]
		}
	}
	for _, in := range n.Inputs {
		key += fmt.Sprintf("|%p", in)
	}
	return key
}

// shapeOf computes and memoizes a node's shape.
func (bc *blockCompiler) shapeOf(n *ir.Node) ir.Shape {
	if s, ok := bc.shapes[n]; ok {
		return s
	}
	// ir.Infer recurses on inputs itself; memoize bottom-up to stay linear.
	for _, in := range n.Inputs {
		bc.shapeOf(in)
	}
	var s ir.Shape
	switch n.Op {
	case "var":
		if v, ok := bc.env[n.Attr("name")]; ok {
			s = v
		} else {
			s = ir.Shape{Rows: 1, Cols: 1}
		}
	default:
		// Build a one-level env: Infer only needs leaf shapes, and all
		// non-leaf inputs are memoized here.
		s = bc.inferShallow(n)
	}
	bc.shapes[n] = s
	return s
}

// inferShallow applies ir.Infer's rule for n using memoized input shapes.
func (bc *blockCompiler) inferShallow(n *ir.Node) ir.Shape {
	// Wrap inputs as pseudo-variables so ir.Infer sees their shapes.
	env := make(map[string]ir.Shape, len(n.Inputs))
	ins := make([]*ir.Node, len(n.Inputs))
	for i, in := range n.Inputs {
		name := fmt.Sprintf("__in%d", i)
		env[name] = bc.shapes[in]
		ins[i] = ir.Var(name)
	}
	shadow := &ir.Node{Op: n.Op, Inputs: ins, Attrs: n.Attrs}
	return ir.Infer(shadow, env)
}

// placement decides the backend of a node (§2.1 operator scheduling):
// memory estimates above the operation budget go to Spark; compute-
// intensive dense operations (or GPU-local chains) go to the GPU.
func (bc *blockCompiler) placement(n *ir.Node) core.Backend {
	if b, ok := bc.place[n]; ok {
		return b
	}
	out := bc.shapeOf(n)
	backend := core.BackendCP
	big := out.Bytes() > bc.conf.OpMemBudget
	gpuLocal := false
	for _, in := range n.Inputs {
		if bc.shapeOf(in).Bytes() > bc.conf.OpMemBudget {
			big = true
		}
		if in.Op == "var" || in.Op == "lit" {
			continue
		}
		if bc.placement(in) == core.BackendGPU {
			gpuLocal = true
		}
	}
	switch {
	case big && spSupported[n.Op]:
		backend = core.BackendSpark
	case bc.conf.GPUEnabled && gpuSupported[n.Op] &&
		(gpuLocal || (computeIntensive[n.Op] && out.Rows*out.Cols >= bc.conf.GPUMinCells)):
		backend = core.BackendGPU
	}
	bc.place[n] = backend
	return backend
}

// emitRemoteChains pre-emits the maximal Spark/GPU sub-DAGs under root in
// descending chain length (Algorithm 2). The later depth-first emission of
// the statement finds them memoized.
func (bc *blockCompiler) emitRemoteChains(root *ir.Node) {
	type chain struct {
		node *ir.Node
		size int
	}
	var chains []chain
	seen := make(map[*ir.Node]bool)
	var countRemote func(n *ir.Node) int
	countRemote = func(n *ir.Node) int {
		if n.Op == "var" || n.Op == "lit" || n.Op == "call" {
			return 0
		}
		c := 0
		if b := bc.placement(n); b == core.BackendSpark || b == core.BackendGPU {
			c = 1
		}
		for _, in := range n.Inputs {
			c += countRemote(in)
		}
		return c
	}
	var find func(n *ir.Node)
	find = func(n *ir.Node) {
		if seen[n] || n.Op == "var" || n.Op == "lit" || n.Op == "call" {
			return
		}
		seen[n] = true
		if b := bc.placement(n); b == core.BackendSpark || b == core.BackendGPU {
			chains = append(chains, chain{n, countRemote(n)})
			return // the chain root covers its own sub-DAG
		}
		for _, in := range n.Inputs {
			find(in)
		}
	}
	find(root)
	sort.SliceStable(chains, func(a, b int) bool { return chains[a].size > chains[b].size })
	for _, c := range chains {
		bc.emit(c.node, "")
	}
}

// emit lowers a node depth-first, returning its output operand name. If
// target is non-empty the node's output is bound to that variable.
func (bc *blockCompiler) emit(n *ir.Node, target string) string {
	if name, ok := bc.name[n]; ok {
		return name
	}
	switch n.Op {
	case "var":
		bc.name[n] = n.Attr("name")
		return bc.name[n]
	case "lit":
		bc.name[n] = LiteralOperand(n.Attr("value"))
		return bc.name[n]
	}
	inputs := make([]string, len(n.Inputs))
	for i, in := range n.Inputs {
		inputs[i] = bc.emit(in, "")
	}
	name := target
	if name == "" {
		bc.tmp++
		name = fmt.Sprintf("_t%d", bc.tmp)
	}
	out := bc.shapeOf(n)
	inShapes := make([]ir.Shape, len(n.Inputs))
	for i, in := range n.Inputs {
		inShapes[i] = bc.shapeOf(in)
	}
	bc.out = append(bc.out, Instruction{
		Kind:     KindOp,
		Op:       n.Op,
		Inputs:   inputs,
		Outputs:  []string{name},
		Attrs:    n.Attrs,
		Backend:  bc.placement(n),
		Shape:    out,
		Flops:    flopsOf(n, inShapes, out),
		InShapes: inShapes,
	})
	bc.name[n] = name
	return name
}

// emitCall lowers a function-call statement.
func (bc *blockCompiler) emitCall(st ir.Stmt, root *ir.Node) {
	inputs := make([]string, len(root.Inputs))
	inShapes := make([]ir.Shape, len(root.Inputs))
	for i, in := range root.Inputs {
		inputs[i] = bc.emit(in, "")
		inShapes[i] = bc.shapeOf(in)
	}
	bc.out = append(bc.out, Instruction{
		Kind:     KindOp,
		Op:       "call",
		Inputs:   inputs,
		Outputs:  append([]string(nil), st.Targets...),
		Attrs:    root.Attrs,
		Backend:  core.BackendCP,
		Shape:    ir.Shape{Rows: 1, Cols: 1},
		InShapes: inShapes,
	})
}

// CompileEvict lowers an evict block (§5.2).
func CompileEvict(e *ir.EvictBlock) []Instruction {
	return []Instruction{{
		Kind:    KindEvict,
		Op:      "evict",
		Inputs:  []string{LiteralOperand(fmt.Sprint(e.Fraction))},
		Outputs: []string{"_"},
		Backend: core.BackendGPU,
	}}
}

// CheckpointInstruction builds the loop-checkpoint instruction for a
// variable (§5.2, Figure 9(c)).
func CheckpointInstruction(variable string) Instruction {
	return Instruction{
		Kind:    KindCheckpoint,
		Op:      "chkpoint",
		Inputs:  []string{variable},
		Outputs: []string{variable},
		Backend: core.BackendSpark,
	}
}
