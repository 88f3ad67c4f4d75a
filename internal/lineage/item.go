// Package lineage implements MEMPHIS's backend-agnostic, fine-grained
// lineage tracing (paper §3.2). A lineage trace is a DAG whose nodes
// (Items) represent operations and whose edges represent data dependencies.
// A lineage item uniquely identifies an intermediate: two intermediates with
// equal lineage DAGs are guaranteed to hold identical values because every
// randomized operation carries its seed in the item's data field.
//
// Items are immutable after construction; their hash is precomputed by
// hashing the input items' hashes, the opcode, and the data items through
// the key package's FNV-1a appender, so DAG probing is cheap. An item with
// up to three inputs holds its input slice in its own allocation, so tracing
// an instruction costs one allocation, and a probe with a Candidate, which
// is filled without allocating, costs none unless its item is kept.
//
// Equality uses a non-recursive, queue-based comparison with sub-DAG
// memoization and early aborts on hash mismatch, height difference, and
// shared sub-DAGs (object identity), as described in §3.2. Its queue and
// memo live in fixed arrays on the caller's stack and spill to the heap
// only past 32 pending or compared pairs, so a probe of a typical trace
// allocates nothing; a compacted hit (Figure 5), whose inputs are the
// cached key's inputs, is answered by pointer identity before any walk.
package lineage

import (
	"sync/atomic"

	"memphis/internal/key"
)

// Item is one node of a lineage DAG.
type Item struct {
	id     uint64
	opcode string
	data   string
	inputs []*Item
	hash   uint64
	height int
}

// nextID allocates distinct object identities for memoization and
// serialization; it never affects hashing or equality.
var nextID atomic.Uint64

// NewLeaf returns a lineage item with no inputs, e.g. a literal, a read of a
// persistent dataset, or a function argument binding.
func NewLeaf(opcode, data string) *Item {
	return NewItem(opcode, data)
}

// NewItem returns a lineage item for an operation with the given opcode,
// serialized data items (scalar literals, seeds, dimensions), and inputs.
// The item keeps a copy of inputs, never the caller's slice.
func NewItem(opcode, data string, inputs ...*Item) *Item {
	it := alloc(len(inputs))
	copy(it.inputs, inputs)
	it.seal(opcode, data)
	return it
}

// alloc returns an unsealed item with room for n inputs. Up to three inputs
// share the item's allocation: the slice points into the same object.
func alloc(n int) *Item {
	switch n {
	case 0:
		return &Item{}
	case 1:
		p := new(struct {
			it Item
			in [1]*Item
		})
		p.it.inputs = p.in[:]
		return &p.it
	case 2:
		p := new(struct {
			it Item
			in [2]*Item
		})
		p.it.inputs = p.in[:]
		return &p.it
	case 3:
		p := new(struct {
			it Item
			in [3]*Item
		})
		p.it.inputs = p.in[:]
		return &p.it
	}
	return &Item{inputs: make([]*Item, n)}
}

// seal completes an item whose inputs are filled in: identity, hash and
// height.
func (it *Item) seal(opcode, data string) {
	it.id = nextID.Add(1)
	it.opcode, it.data = opcode, data
	it.hash, it.height = fold(Prefix(opcode, data), it.inputs)
}

// Prefix returns the hash state of an item's opcode and data, before its
// inputs. It depends on the operation alone, so compiler.Prepare keeps one
// per instruction and a trace folds only the input hashes onto it.
func Prefix(opcode, data string) key.Hash {
	return key.New().Str(opcode).Byte(0).Str(data)
}

// fold completes a hash from its prefix and the inputs' hashes, and returns
// it with the height of an item over those inputs.
func fold(h key.Hash, inputs []*Item) (uint64, int) {
	maxH := 0
	for _, in := range inputs {
		h = h.U64(in.hash)
		if in.height > maxH {
			maxH = in.height
		}
	}
	return h.Sum64(), maxH + 1
}

// Candidate is a caller-owned scratch item: the item NewItem would return
// for one traced operation, assembled without allocating, so that a probe
// which hits keeps nothing. Its item has no identity (ID 0, which no
// allocated item has) and is overwritten by the next Reset, so it must not
// outlive the probe: Keep copies it into an ordinary item when the caller
// needs one.
type Candidate struct {
	it     Item
	prefix key.Hash
	buf    [4]*Item
}

// Reset starts a candidate for an operation; prefix must be
// Prefix(opcode, data).
func (c *Candidate) Reset(prefix key.Hash, opcode, data string) {
	c.prefix, c.it.opcode, c.it.data = prefix, opcode, data
	if c.it.inputs == nil {
		c.it.inputs = c.buf[:0]
	}
	c.it.inputs = c.it.inputs[:0]
}

// Add appends the operation's next input.
func (c *Candidate) Add(in *Item) { c.it.inputs = append(c.it.inputs, in) }

// Seal completes the candidate's hash and height and returns its item, valid
// until the next Reset.
func (c *Candidate) Seal() *Item {
	c.it.hash, c.it.height = fold(c.prefix, c.it.inputs)
	return &c.it
}

// Keep returns an allocated item equal to the sealed candidate, with an
// identity of its own: one allocation, as NewItem.
func (c *Candidate) Keep() *Item {
	it := alloc(len(c.it.inputs))
	copy(it.inputs, c.it.inputs)
	it.id = nextID.Add(1)
	it.opcode, it.data, it.hash, it.height = c.it.opcode, c.it.data, c.it.hash, c.it.height
	return it
}

// ID returns the item's unique object identity.
func (it *Item) ID() uint64 { return it.id }

// Opcode returns the operation code.
func (it *Item) Opcode() string { return it.opcode }

// Data returns the serialized data items (literals, seeds).
func (it *Item) Data() string { return it.data }

// Inputs returns the input items. The returned slice must not be modified.
func (it *Item) Inputs() []*Item { return it.inputs }

// Hash returns the precomputed DAG hash.
func (it *Item) Hash() uint64 { return it.hash }

// Height returns the height of the item's DAG (leaves have height 1).
// The GPU eviction policy (Eq. 2) uses height to preserve input-data-pipeline
// intermediates, which sit close to the inputs.
func (it *Item) Height() int { return it.height }

// pairKey identifies an (a, b) comparison for memoization.
type pairKey struct{ a, b uint64 }

// equalsStack is how many queued and how many compared pairs Equals keeps
// in fixed arrays on its stack before it spills to the heap.
const equalsStack = 32

// pairSet is Equals' memo of compared pairs: a fixed array, and a map only
// once more than equalsStack pairs have been compared.
type pairSet struct {
	n     int
	small [equalsStack]pairKey
	spill map[pairKey]struct{}
}

// add inserts k and reports whether it was absent.
func (s *pairSet) add(k pairKey) bool {
	if s.spill != nil {
		if _, ok := s.spill[k]; ok {
			return false
		}
		s.spill[k] = struct{}{}
		return true
	}
	for i := 0; i < s.n; i++ {
		if s.small[i] == k {
			return false
		}
	}
	if s.n < len(s.small) {
		s.small[s.n] = k
		s.n++
		return true
	}
	s.spill = make(map[pairKey]struct{}, 2*len(s.small))
	for _, p := range s.small {
		s.spill[p] = struct{}{}
	}
	s.spill[k] = struct{}{}
	return true
}

// sameNode compares two nodes without their inputs.
func sameNode(a, b *Item) bool {
	return a.hash == b.hash && a.height == b.height &&
		a.opcode == b.opcode && a.data == b.data &&
		len(a.inputs) == len(b.inputs)
}

// Equals reports whether two lineage DAGs are structurally identical. It is
// non-recursive (explicit queue), memoizes compared sub-DAG pairs, and
// aborts early on hash or height mismatches and on shared sub-DAGs.
func (it *Item) Equals(other *Item) bool {
	if it == other {
		return true
	}
	if it == nil || other == nil {
		return false
	}
	if it.hash != other.hash || it.height != other.height {
		return false
	}
	// A compacted hit: equal nodes over the very same inputs.
	if sameNode(it, other) {
		shared := true
		for i := range it.inputs {
			if it.inputs[i] != other.inputs[i] {
				shared = false
				break
			}
		}
		if shared {
			return true
		}
	}
	var qbuf [equalsStack][2]*Item
	queue := append(qbuf[:0], [2]*Item{it, other})
	var seen pairSet
	for head := 0; head < len(queue); {
		a, b := queue[head][0], queue[head][1]
		head++
		if a == b {
			continue // shared sub-DAG: object identity
		}
		if !seen.add(pairKey{a.id, b.id}) {
			continue // already compared
		}
		if !sameNode(a, b) {
			return false
		}
		for i := range a.inputs {
			if len(queue) == cap(queue) && head > 0 {
				// Reclaim the consumed front before append would grow.
				n := copy(queue, queue[head:])
				queue, head = queue[:n], 0
			}
			queue = append(queue, [2]*Item{a.inputs[i], b.inputs[i]})
		}
	}
	return true
}
