package compiler

import (
	"sort"
	"strings"

	"memphis/internal/ir"
)

// RewriteProgram applies full MEMPHIS's program-level rewrites — AutoTune,
// InjectLoopCheckpoints, InjectEvictions — the first time it sees a program
// and marks it Rewritten: the rewrites edit the block lists in place and are
// not idempotent, and a program may reach several sessions and servers.
func RewriteProgram(p *ir.Program) {
	if p.Rewritten {
		return
	}
	AutoTune(p)
	InjectLoopCheckpoints(p)
	InjectEvictions(p)
	p.Rewritten = true
}

// AutoTune implements the automatic parameter tuning rewrite (§5.2,
// Figure 10): it recursively traverses program blocks, analyzes which
// statements are loop-iteration-dependent (not reusable), and stores a
// delay factor and Spark storage level in each basic block's header.
// Mostly-reusable blocks cache eagerly (n=1) with disk-backed storage;
// loop-dependent blocks defer caching (larger n) and avoid disk spilling.
func AutoTune(p *ir.Program) {
	tuneBlocks(p.Main, nil)
	for _, f := range p.Funcs {
		tuneBlocks(f.Body, nil)
	}
}

func tuneBlocks(blocks []ir.Block, loopVars []string) {
	for _, b := range blocks {
		switch t := b.(type) {
		case *ir.BasicBlock:
			tuneBasicBlock(t, loopVars)
		case *ir.ForBlock:
			tuneBlocks(t.Body, append(loopVars, t.Var))
		case *ir.WhileBlock:
			// While-loop bodies are conservatively loop-dependent via all
			// variables they themselves update.
			updated := updatedVars(t.Body)
			tuneBlocks(t.Body, append(loopVars, updated...))
		case *ir.IfBlock:
			tuneBlocks(t.Then, loopVars)
			tuneBlocks(t.Else, loopVars)
		}
	}
}

func tuneBasicBlock(bb *ir.BasicBlock, loopVars []string) {
	if len(bb.Stmts) == 0 {
		return
	}
	names := make(map[string]struct{}, len(loopVars))
	for _, v := range loopVars {
		names[v] = struct{}{}
	}
	dep := 0
	for i := range bb.Stmts {
		if ir.DependsOn(bb.Stmts, i, names) {
			dep++
		}
	}
	reusable := 1 - float64(dep)/float64(len(bb.Stmts))
	switch {
	case reusable > 0.8:
		bb.DelayFactor = 1
		bb.StorageLevel = "MEMORY_AND_DISK"
	case reusable > 0.3:
		bb.DelayFactor = 2
		bb.StorageLevel = "MEMORY_AND_DISK"
	default:
		bb.DelayFactor = 4
		bb.StorageLevel = "MEMORY"
	}
}

// updatedVars returns the loop-carried variables of a loop body: those read
// before their first assignment (the read observes the previous iteration)
// and assigned somewhere in the body. Per-iteration temporaries that are
// assigned before use are excluded — checkpointing them would only churn
// cluster storage (the paper checkpoints just the updated factor W in
// Figure 9(c)).
func updatedVars(blocks []ir.Block) []string {
	assigned := make(map[string]struct{})
	carried := make(map[string]struct{})
	var visit func(bs []ir.Block)
	visit = func(bs []ir.Block) {
		for _, b := range bs {
			switch t := b.(type) {
			case *ir.BasicBlock:
				for _, st := range t.Stmts {
					reads := make(map[string]struct{})
					ir.VarsRead(st.Expr, reads)
					for v := range reads {
						if _, done := assigned[v]; !done {
							carried[v] = struct{}{}
						}
					}
					for _, tgt := range st.Targets {
						assigned[tgt] = struct{}{}
					}
				}
			case *ir.ForBlock:
				visit(t.Body)
			case *ir.WhileBlock:
				visit(t.Body)
			case *ir.IfBlock:
				// Conditional assignments may not execute: treat reads as
				// potentially carried, assignments as not guaranteed.
				visit(t.Then)
				visit(t.Else)
			}
		}
	}
	visit(blocks)
	var out []string
	for v := range carried {
		if strings.HasPrefix(v, "_") {
			continue // block-local scratch variables are never checkpointed
		}
		if _, ok := assigned[v]; ok {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// InjectLoopCheckpoints implements the iterative-algorithm checkpoint
// rewrite (§5.2, rewrite 2): variables updated in each loop iteration
// build ever-growing operator graphs under lazy evaluation; appending a
// checkpoint statement per updated variable persists the previous
// iteration's result (Figure 9(c), PNMF's factor W). The checkpoint is a
// runtime no-op for variables that are not RDD-backed.
func InjectLoopCheckpoints(p *ir.Program) {
	injectLoops(p.Main)
	for _, f := range p.Funcs {
		injectLoops(f.Body)
	}
}

func injectLoops(blocks []ir.Block) {
	for _, b := range blocks {
		switch t := b.(type) {
		case *ir.ForBlock:
			injectLoops(t.Body)
			appendCheckpoints(&t.Body)
		case *ir.WhileBlock:
			injectLoops(t.Body)
			appendCheckpoints(&t.Body)
		case *ir.IfBlock:
			injectLoops(t.Then)
			injectLoops(t.Else)
		}
	}
}

func appendCheckpoints(body *[]ir.Block) {
	updated := updatedVars(*body)
	if len(updated) == 0 {
		return
	}
	var stmts []ir.Stmt
	for _, v := range updated {
		stmts = append(stmts, ir.Stmt{
			Targets: []string{v},
			Expr:    ir.NewNode("chkpoint", ir.Var(v)),
		})
	}
	*body = append(*body, &ir.BasicBlock{Stmts: stmts, DelayFactor: 1})
}

// InjectEvictions implements the eviction-injection rewrite (§5.2, Figure
// 9(b)): when consecutive loops have different GPU allocation patterns
// (e.g. ensembles of models with different conv2d geometries), an evict
// instruction between them clears the now-useless free pointers instead of
// paying incremental one-at-a-time eviction. Loops with identical access
// patterns are left alone to preserve recycling.
func InjectEvictions(p *ir.Program) {
	p.Main = injectEvictions(p.Main)
	for _, f := range p.Funcs {
		f.Body = injectEvictions(f.Body)
	}
}

func injectEvictions(blocks []ir.Block) []ir.Block {
	out := make([]ir.Block, 0, len(blocks))
	var prevSig string
	for _, b := range blocks {
		if f, ok := b.(*ir.ForBlock); ok {
			f.Body = injectEvictions(f.Body)
			sig := gpuSignature(f.Body)
			if sig != "" {
				f.GPUHint = true
				if prevSig != "" && prevSig != sig {
					out = append(out, &ir.EvictBlock{Fraction: 1.0})
				}
				prevSig = sig
			}
		} else if bb, ok := b.(*ir.BasicBlock); ok && len(bb.Stmts) > 0 {
			// Non-loop compute between loops resets the pattern tracking.
			_ = bb
		}
		out = append(out, b)
	}
	return out
}

// gpuSignature fingerprints the GPU allocation pattern of a loop body: the
// sorted multiset of compute-intensive op shapes (op + attributes).
func gpuSignature(blocks []ir.Block) string {
	var sigs []string
	ir.Walk(blocks, func(b ir.Block) {
		bb, ok := b.(*ir.BasicBlock)
		if !ok {
			return
		}
		for _, st := range bb.Stmts {
			var collect func(n *ir.Node)
			collect = func(n *ir.Node) {
				if n == nil {
					return
				}
				if computeIntensive[n.Op] {
					sig := n.Op
					keys := make([]string, 0, len(n.Attrs))
					for k := range n.Attrs {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					for _, k := range keys {
						if k != "seed" { // seeds vary without changing sizes
							sig += ";" + k + "=" + n.Attrs[k]
						}
					}
					sigs = append(sigs, sig)
				}
				for _, in := range n.Inputs {
					collect(in)
				}
			}
			collect(st.Expr)
		}
	})
	if len(sigs) == 0 {
		return ""
	}
	sort.Strings(sigs)
	return strings.Join(sigs, "|")
}
