package ir

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// The fmt-based fingerprints that the key.Hash fingerprinter replaced, kept
// verbatim as its oracle: the two must agree on every program, block and
// node, because the fingerprints key the compile cache and the serving
// layer's coalesce groups.

func RefProgramFingerprint(p *Program) uint64 {
	h := fnv.New64a()
	fp := &refFingerprinter{h: h, ids: make(map[*Node]int)}
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := p.Funcs[name]
		fmt.Fprintf(h, "fn:%s(%v)->(%v):det=%v{", f.Name, f.Params, f.Returns, f.Deterministic)
		fp.blocks(f.Body)
		h.Write([]byte{'}'})
	}
	h.Write([]byte("main{"))
	fp.blocks(p.Main)
	h.Write([]byte{'}'})
	return h.Sum64()
}

func RefFingerprintBlock(b Block) uint64 {
	h := fnv.New64a()
	fp := &refFingerprinter{h: h, ids: make(map[*Node]int)}
	fp.blocks([]Block{b})
	return h.Sum64()
}

func RefFingerprintNode(n *Node) uint64 {
	h := fnv.New64a()
	fp := &refFingerprinter{h: h, ids: make(map[*Node]int)}
	fp.node(n)
	return h.Sum64()
}

type refFingerprinter struct {
	h    interface{ Write([]byte) (int, error) }
	ids  map[*Node]int
	next int
}

func (fp *refFingerprinter) blocks(blocks []Block) {
	for _, b := range blocks {
		switch t := b.(type) {
		case *BasicBlock:
			fmt.Fprintf(fp.h, "bb:d%d:s%s[", t.DelayFactor, t.StorageLevel)
			for _, st := range t.Stmts {
				fmt.Fprintf(fp.h, "%v=", st.Targets)
				fp.node(st.Expr)
				fp.h.Write([]byte{';'})
			}
			fp.h.Write([]byte{']'})
		case *ForBlock:
			fmt.Fprintf(fp.h, "for:%s:%v:g%v{", t.Var, t.Values, t.GPUHint)
			fp.blocks(t.Body)
			fp.h.Write([]byte{'}'})
		case *WhileBlock:
			fmt.Fprintf(fp.h, "while:m%d(", t.MaxIter)
			fp.node(t.Cond)
			fp.h.Write([]byte("){"))
			fp.blocks(t.Body)
			fp.h.Write([]byte{'}'})
		case *IfBlock:
			fp.h.Write([]byte("if("))
			fp.node(t.Cond)
			fp.h.Write([]byte("){"))
			fp.blocks(t.Then)
			fp.h.Write([]byte("}{"))
			fp.blocks(t.Else)
			fp.h.Write([]byte{'}'})
		case *EvictBlock:
			fmt.Fprintf(fp.h, "evict:%g", t.Fraction)
		default:
			fmt.Fprintf(fp.h, "unknown:%T", b)
		}
	}
}

func (fp *refFingerprinter) node(n *Node) {
	if n == nil {
		fp.h.Write([]byte("nil"))
		return
	}
	if id, seen := fp.ids[n]; seen {
		fmt.Fprintf(fp.h, "@%d", id)
		return
	}
	fp.ids[n] = fp.next
	fp.next++
	fp.h.Write([]byte(n.Op))
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(fp.h, ",%s=%s", k, n.Attrs[k])
		}
	}
	fp.h.Write([]byte{'('})
	for i, in := range n.Inputs {
		if i > 0 {
			fp.h.Write([]byte{' '})
		}
		fp.node(in)
	}
	fp.h.Write([]byte{')'})
}
