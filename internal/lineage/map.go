package lineage

// Map is a standalone LineageMap (§3.2): it maps variable names to the
// lineage DAGs of their current values, built incrementally by Trace. The
// runtime keeps the same bindings in the cells of its symbol table, beside
// the values (runtime.Table); Map serves callers without a runtime, such as
// the benchmark's trace probe.
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
// pass a slice it keeps.
func (m *Map) Trace(output, opcode, data string, inputs ...string) *Item {
	it := alloc(len(inputs))
	for i, name := range inputs {
		it.inputs[i] = m.getOrLeaf(name)
	}
	it.seal(opcode, data)
	m.items[output] = it
	m.traced++
	return it
}

// TraceItem binds an already-constructed lineage item to a variable, as a
// reuse hit compacts the bindings: the cached entry's key replaces the
// traced item, so future DAGs share sub-DAGs by object identity (paper
// Figure 5).
func (m *Map) TraceItem(output string, it *Item) {
	m.items[output] = it
}

// Get returns the lineage of a live variable, or nil if unknown.
func (m *Map) Get(name string) *Item { return m.items[name] }

// getOrLeaf returns the lineage of a live variable, creating a leaf item for
// names that were never traced (persistent inputs).
func (m *Map) getOrLeaf(name string) *Item {
	if it, ok := m.items[name]; ok {
		return it
	}
	leaf := NewLeaf("read", name)
	m.items[name] = leaf
	return leaf
}

// Traced returns the number of Trace calls.
func (m *Map) Traced() int64 { return m.traced }
