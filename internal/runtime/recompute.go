package runtime

import (
	"fmt"
	"strconv"
	"strings"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/lineage"
)

// Recompute implements the RECOMPUTE API (§3.2): it re-executes a lineage
// trace and returns the root's value. Leaf "read" items resolve to
// variables bound in the context; leaf "lit" items to scalar literals; all
// other items are lowered back into instructions through the regular
// execution path (so the environment — placement, backends — may differ
// from the original run while producing the exact same values, since every
// randomized operation carries its seed in the trace).
func Recompute(ctx *Context, root *lineage.Item) (*data.Matrix, error) {
	order := topoOrder(root)
	names := make(map[uint64]string, len(order))
	var stream []compiler.Instruction
	for i, it := range order {
		name := fmt.Sprintf("_rc%d", i)
		names[it.ID()] = name
		switch it.Opcode() {
		case "read":
			if ctx.LMap.value(it.Data()) == nil {
				return nil, fmt.Errorf("runtime: recompute needs input %q", it.Data())
			}
			names[it.ID()] = it.Data()
			continue
		case "lit":
			names[it.ID()] = compiler.LiteralOperand(it.Data())
			continue
		case "fnout":
			return nil, fmt.Errorf("runtime: cannot recompute opaque function item %q; serialize the fine-grained trace instead", it.Data())
		}
		inst, err := itemToInstruction(it, names, name)
		if err != nil {
			return nil, err
		}
		stream = append(stream, inst)
	}
	frame := ctx.enterFrame(compiler.Prepare(stream))
	for i := range stream {
		if err := ctx.execute(&stream[i]); err != nil {
			ctx.leaveFrame(frame)
			return nil, err
		}
	}
	ctx.leaveFrame(frame)
	out := ctx.LMap.value(names[root.ID()])
	if out == nil {
		return nil, fmt.Errorf("runtime: recompute produced no value")
	}
	m := ctx.ensureHost(out)
	// Clean up recompute temporaries.
	for _, it := range order {
		if n := names[it.ID()]; strings.HasPrefix(n, "_rc") {
			ctx.removeVar(n)
		}
	}
	return m, nil
}

// topoOrder returns the items of a DAG inputs-first.
func topoOrder(root *lineage.Item) []*lineage.Item {
	var order []*lineage.Item
	seen := make(map[uint64]struct{})
	var visit func(it *lineage.Item)
	visit = func(it *lineage.Item) {
		if _, ok := seen[it.ID()]; ok {
			return
		}
		seen[it.ID()] = struct{}{}
		for _, in := range it.Inputs() {
			visit(in)
		}
		order = append(order, it)
	}
	visit(root)
	return order
}

// itemToInstruction reverses the trace encoding: the data field holds
// "key=value" attributes plus "inN=literal" positional literal operands.
func itemToInstruction(it *lineage.Item, names map[uint64]string, output string) (compiler.Instruction, error) {
	attrs := make(map[string]string)
	literals := make(map[int]string)
	if d := it.Data(); d != "" {
		for _, kv := range strings.Split(d, ";") {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				return compiler.Instruction{}, fmt.Errorf("runtime: malformed lineage data %q", kv)
			}
			k, v := kv[:eq], kv[eq+1:]
			if strings.HasPrefix(k, "in") {
				if pos, err := strconv.Atoi(k[2:]); err == nil {
					literals[pos] = v
					continue
				}
			}
			attrs[k] = v
		}
	}
	total := len(it.Inputs()) + len(literals)
	inputs := make([]string, total)
	vi := 0
	for pos := 0; pos < total; pos++ {
		if lit, ok := literals[pos]; ok {
			inputs[pos] = compiler.LiteralOperand(lit)
			continue
		}
		if vi >= len(it.Inputs()) {
			return compiler.Instruction{}, fmt.Errorf("runtime: lineage item %s has inconsistent operands", it.Opcode())
		}
		inputs[pos] = names[it.Inputs()[vi].ID()]
		vi++
	}
	return compiler.Instruction{
		Kind:    compiler.KindOp,
		Op:      it.Opcode(),
		Inputs:  inputs,
		Outputs: []string{output},
		Attrs:   attrs,
		Backend: core.BackendCP,
	}, nil
}
