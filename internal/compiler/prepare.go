package compiler

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"memphis/internal/key"
	"memphis/internal/lineage"
)

// prepared is what executing an instruction needs that depends on the
// instruction alone, computed once by Prepare instead of on every
// execution: its lineage data string and hash prefix, the frame slots of
// its operands and outputs, and its literal operands parsed.
type prepared struct {
	linData string
	// linHash is lineage.Prefix(Op, linData): the hash state a trace folds
	// the input items' hashes onto.
	linHash key.Hash
	// slots is parallel to Inputs: the operand's slot in layout, or -1 for
	// a literal. outSlots is parallel to Outputs.
	slots, outSlots []int32
	layout          *Layout
	// lits is parallel to Inputs when the instruction has a literal
	// operand, nil otherwise.
	lits []literal
}

// literal is one parsed literal operand: its value, or why it does not
// parse (reported when the operand is evaluated, as before preparation).
// A call's literal argument also carries its lineage leaf, built once: a
// leaf is immutable, so every execution may bind the same one.
type literal struct {
	val  float64
	err  error
	leaf *lineage.Item
}

// Layout lists the distinct variable names a prepared stream reads or
// writes, each once, in first-use order. A name's index is its slot: the
// runtime resolves the names once per execution of the stream into a frame,
// and its instructions reach their operands and outputs by slot.
type Layout struct {
	Names []string
}

// Prepare fills in the execution-ready view of every instruction of a
// stream and returns the stream's layout. It runs where a stream becomes
// executable, after every rewrite (fusion, memory planning) that adds or
// changes instructions, and before the stream is shared: a prepared
// instruction is read-only from then on. Preparing a stream again
// recomputes the same view.
func Prepare(insts []Instruction) *Layout {
	// One backing array each for the records, the slots and the parsed
	// literals of the whole stream.
	var nSlots, nLits int
	for i := range insts {
		nSlots += len(insts[i].Inputs) + len(insts[i].Outputs)
		for _, name := range insts[i].Inputs {
			if IsLiteral(name) {
				nLits += len(insts[i].Inputs)
				break
			}
		}
	}
	preps := make([]prepared, len(insts))
	slots := make([]int32, 0, nSlots)
	lits := make([]literal, 0, nLits)
	layout := &Layout{}
	index := make(map[string]int32)
	slot := func(name string) int32 {
		s, ok := index[name]
		if !ok {
			s = int32(len(layout.Names))
			layout.Names = append(layout.Names, name)
			index[name] = s
		}
		return s
	}
	var keys []string
	for i := range insts {
		in, p := &insts[i], &preps[i]
		start, hasLit := len(slots), false
		for _, name := range in.Inputs {
			s := int32(-1)
			if IsLiteral(name) {
				hasLit = true
			} else {
				s = slot(name)
			}
			slots = append(slots, s)
		}
		p.slots = slots[start:len(slots):len(slots)]
		start = len(slots)
		for _, name := range in.Outputs {
			slots = append(slots, slot(name))
		}
		p.outSlots = slots[start:len(slots):len(slots)]
		if hasLit {
			start = len(lits)
			for _, name := range in.Inputs {
				var l literal
				if IsLiteral(name) {
					l.val, l.err = parseLiteral(name)
					if in.Op == "call" {
						l.leaf = lineage.NewLeaf("lit", LiteralValue(name))
					}
				}
				lits = append(lits, l)
			}
			p.lits = lits[start:len(lits):len(lits)]
		}
		p.linData, keys = lineageData(in, keys)
		p.linHash = lineage.Prefix(in.Op, p.linData)
		p.layout = layout
		in.prep = p
	}
	return layout
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

// LineagePrefix returns lineage.Prefix(Op, LineageData()), prepared.
func (in *Instruction) LineagePrefix() key.Hash { return in.prep.linHash }

// Layout returns the layout of the stream the instruction was prepared in.
func (in *Instruction) Layout() *Layout { return in.prep.layout }

// Slot returns the layout slot of input i, or -1 for a literal operand.
func (in *Instruction) Slot(i int) int { return int(in.prep.slots[i]) }

// OutSlot returns the layout slot of output i.
func (in *Instruction) OutSlot(i int) int { return int(in.prep.outSlots[i]) }

// Literal returns the parsed value of literal operand i.
func (in *Instruction) Literal(i int) (float64, error) {
	l := in.prep.lits[i]
	return l.val, l.err
}

// LiteralLeaf returns the lineage leaf of a call's literal argument i.
func (in *Instruction) LiteralLeaf(i int) *lineage.Item { return in.prep.lits[i].leaf }
