package ir

import (
	"sort"

	"memphis/internal/key"
)

// Fingerprint returns a structural hash of the program covering every
// function, block, statement, operator, and attribute (literal values
// included). It is the program-identity component of the serving layer's
// coalesce key: two programs with equal fingerprints compute the same
// values from the same inputs.
//
// Shared subexpressions (DAG nodes referenced from several statements) are
// hashed once and referenced by a memoized ID thereafter, so fingerprinting
// is linear in program size and a diamond-shaped DAG does not collide with
// the equivalent tree.
func (p *Program) Fingerprint() uint64 {
	fp := fingerprinter{ids: make(map[*Node]int)}
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := key.New()
	for _, name := range names {
		f := p.Funcs[name]
		h = strs(strs(h.Str("fn:").Str(f.Name).Byte('('), f.Params).Str(")->("), f.Returns)
		h = fp.blocks(h.Str("):det=").Bool(f.Deterministic).Byte('{'), f.Body).Byte('}')
	}
	return fp.blocks(h.Str("main{"), p.Main).Byte('}').Sum64()
}

// FingerprintBlock returns a structural hash of one block (statements,
// operators, attributes, reuse-parameter headers, nested bodies), with the
// same DAG-memoized node identity as Program.Fingerprint. It is the
// structural component of the compile-cache key.
func FingerprintBlock(b Block) uint64 {
	fp := fingerprinter{ids: make(map[*Node]int)}
	return fp.blocks(key.New(), []Block{b}).Sum64()
}

// fingerprinter numbers nodes in first-visit order; the hash state is
// threaded through its methods. The bytes are the fmt text the fingerprints
// were first defined by, lists included as %v prints them.
type fingerprinter struct {
	ids  map[*Node]int
	next int
}

// strs appends ss as fmt's %v prints a []string: "[a b]".
func strs(h key.Hash, ss []string) key.Hash {
	h = h.Byte('[')
	for i, s := range ss {
		if i > 0 {
			h = h.Byte(' ')
		}
		h = h.Str(s)
	}
	return h.Byte(']')
}

func (fp *fingerprinter) blocks(h key.Hash, blocks []Block) key.Hash {
	for _, b := range blocks {
		switch t := b.(type) {
		case *BasicBlock:
			h = h.Str("bb:d").Int(int64(t.DelayFactor)).Str(":s").Str(t.StorageLevel).Byte('[')
			for _, st := range t.Stmts {
				h = fp.node(strs(h, st.Targets).Byte('='), st.Expr).Byte(';')
			}
			h = h.Byte(']')
		case *ForBlock:
			h = h.Str("for:").Str(t.Var).Str(":[")
			for i, v := range t.Values {
				if i > 0 {
					h = h.Byte(' ')
				}
				h = h.Float(v)
			}
			h = fp.blocks(h.Str("]:g").Bool(t.GPUHint).Byte('{'), t.Body).Byte('}')
		case *WhileBlock:
			h = fp.node(h.Str("while:m").Int(int64(t.MaxIter)).Byte('('), t.Cond)
			h = fp.blocks(h.Str("){"), t.Body).Byte('}')
		case *IfBlock:
			h = fp.blocks(fp.node(h.Str("if("), t.Cond).Str("){"), t.Then)
			h = fp.blocks(h.Str("}{"), t.Else).Byte('}')
		case *EvictBlock:
			h = h.Str("evict:").Float(t.Fraction)
		}
	}
	return h
}

func (fp *fingerprinter) node(h key.Hash, n *Node) key.Hash {
	if n == nil {
		return h.Str("nil")
	}
	if id, seen := fp.ids[n]; seen {
		return h.Byte('@').Int(int64(id))
	}
	fp.ids[n] = fp.next
	fp.next++
	h = h.Str(n.Op)
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = h.Byte(',').Str(k).Byte('=').Str(n.Attrs[k])
		}
	}
	h = h.Byte('(')
	for i, in := range n.Inputs {
		if i > 0 {
			h = h.Byte(' ')
		}
		h = fp.node(h, in)
	}
	return h.Byte(')')
}
