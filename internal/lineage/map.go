package lineage

import "fmt"

// Map is the LineageMap of §3.2: it maps live variable names to the lineage
// DAGs of their current values. It is rebuilt incrementally at runtime by
// TRACE calls on the instruction execution path.
type Map struct {
	items map[string]*Item
	// traced counts TRACE calls for statistics.
	traced int64
}

// NewMap returns an empty lineage map.
func NewMap() *Map {
	return &Map{items: make(map[string]*Item)}
}

// Trace records that executing opcode over the named inputs (plus literal
// data) produced the output variable, and returns the new lineage item.
// Unknown input variables are traced as leaves, which covers persistent
// reads and externally bound inputs. The names are only read: a caller may
// pass a slice it keeps, such as an instruction's prepared operand list.
func (m *Map) Trace(output, opcode, data string, inputs ...string) *Item {
	it := alloc(len(inputs))
	for i, name := range inputs {
		it.inputs[i] = m.GetOrLeaf(name)
	}
	it.seal(opcode, data)
	m.items[output] = it
	m.traced++
	return it
}

// TraceItem binds an already-constructed lineage item to a variable. Used
// by the reuse path to compact the map: after a successful probe, the map
// entry is replaced by the cached entry's key so future DAGs share sub-DAGs
// by object identity (paper Figure 5).
func (m *Map) TraceItem(output string, it *Item) {
	m.items[output] = it
}

// Get returns the lineage of a live variable, or nil if unknown.
func (m *Map) Get(name string) *Item { return m.items[name] }

// GetOrLeaf returns the lineage of a live variable, creating a leaf item for
// names that were never traced (persistent inputs).
func (m *Map) GetOrLeaf(name string) *Item {
	if it, ok := m.items[name]; ok {
		return it
	}
	leaf := NewLeaf("read", name)
	m.items[name] = leaf
	return leaf
}

// Bind copies the lineage of src to dst (variable assignment).
func (m *Map) Bind(dst, src string) {
	if it, ok := m.items[src]; ok {
		m.items[dst] = it
	} else {
		delete(m.items, dst)
	}
}

// Remove drops a variable from the map (end of scope).
func (m *Map) Remove(name string) { delete(m.items, name) }

// Len returns the number of live variables.
func (m *Map) Len() int { return len(m.items) }

// Traced returns the number of Trace calls.
func (m *Map) Traced() int64 { return m.traced }

// Snapshot returns a copy of the current name->item bindings; used when
// entering function scopes.
func (m *Map) Snapshot() map[string]*Item {
	cp := make(map[string]*Item, len(m.items))
	for k, v := range m.items {
		cp[k] = v
	}
	return cp
}

// Restore replaces the bindings with a snapshot. The map adopts the
// snapshot instead of copying it, so a snapshot must not be used after
// Restore: later traces write into it.
func (m *Map) Restore(s map[string]*Item) {
	m.items = s
}

// String renders the map for debugging.
func (m *Map) String() string {
	return fmt.Sprintf("LineageMap{%d live vars, %d traced}", len(m.items), m.traced)
}
