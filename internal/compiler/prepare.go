package compiler

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// prepared is what executing an instruction needs that depends on the
// instruction alone, computed once by Prepare instead of on every
// execution: its lineage data string, its non-literal operands in order,
// and its literal operands parsed.
type prepared struct {
	linData  string
	operands []string
	// lits is parallel to Inputs when the instruction has a literal
	// operand, nil otherwise.
	lits []literal
}

// literal is one parsed literal operand: its value, or why it does not
// parse (reported when the operand is evaluated, as before preparation).
type literal struct {
	val float64
	err error
}

// Prepare fills in the execution-ready view of every instruction of a
// stream. It runs where a stream becomes executable, after every rewrite
// (fusion, memory planning) that adds or changes instructions, and before
// the stream is shared: a prepared instruction is read-only from then on.
// Preparing an instruction again recomputes the same view.
func Prepare(insts []Instruction) {
	// One backing array each for the records, the operand lists and the
	// parsed literals of the whole stream.
	var nOps, nLits int
	for i := range insts {
		lit := false
		for _, name := range insts[i].Inputs {
			if IsLiteral(name) {
				lit = true
			} else {
				nOps++
			}
		}
		if lit {
			nLits += len(insts[i].Inputs)
		}
	}
	preps := make([]prepared, len(insts))
	ops := make([]string, 0, nOps)
	lits := make([]literal, 0, nLits)
	var keys []string
	for i := range insts {
		in, p := &insts[i], &preps[i]
		start, hasLit := len(ops), false
		for _, name := range in.Inputs {
			if IsLiteral(name) {
				hasLit = true
			} else {
				ops = append(ops, name)
			}
		}
		p.operands = ops[start:len(ops):len(ops)]
		if hasLit {
			start = len(lits)
			for _, name := range in.Inputs {
				var l literal
				if IsLiteral(name) {
					l.val, l.err = parseLiteral(name)
				}
				lits = append(lits, l)
			}
			p.lits = lits[start:len(lits):len(lits)]
		}
		p.linData, keys = lineageData(in, keys)
		in.prep = p
	}
}

// parseLiteral parses a literal operand ("#<value>") the way the runtime
// always has: fmt's %g scan, so the accepted spellings do not change.
func parseLiteral(operand string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(LiteralValue(operand), "%g", &f)
	return f, err
}

// lineageData serializes the instruction's attributes (sorted by key) and
// literal operands (by position) into the lineage item's data field, so
// seeds and parameters distinguish otherwise identical operations. keys is
// scratch for the sort, returned for reuse.
func lineageData(in *Instruction, keys []string) (string, []string) {
	keys = keys[:0]
	for k := range in.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	parts := 0
	sep := func() {
		if parts > 0 {
			b.WriteByte(';')
		}
		parts++
	}
	for _, k := range keys {
		sep()
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(in.Attrs[k])
	}
	for i, name := range in.Inputs {
		if IsLiteral(name) {
			sep()
			b.WriteString("in")
			b.WriteString(strconv.Itoa(i))
			b.WriteByte('=')
			b.WriteString(LiteralValue(name))
		}
	}
	return b.String(), keys
}

// Prepared reports whether the instruction went through Prepare.
func (in *Instruction) Prepared() bool { return in.prep != nil }

// LineageData returns the prepared lineage data string.
func (in *Instruction) LineageData() string { return in.prep.linData }

// Operands returns the prepared non-literal operands, in input order. The
// slice is shared and must not be modified.
func (in *Instruction) Operands() []string { return in.prep.operands }

// Literal returns the parsed value of literal operand i.
func (in *Instruction) Literal(i int) (float64, error) {
	l := in.prep.lits[i]
	return l.val, l.err
}
