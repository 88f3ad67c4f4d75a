package runtime

import (
	"memphis/internal/compiler"
	"memphis/internal/data"
	"memphis/internal/lineage"
)

// binding is one name's cell in a scope: the value bound to it and the
// lineage item of that value (the LineageMap of §3.2). Either may be nil
// independently: an untraced session binds no items, and a trace of an
// unknown input binds a leaf to a name without a value. A cell with neither
// is unbound. A scope never deletes a cell, so a cell stays the name's for
// the scope's life and a frame may hold it across instructions.
//
// A CP cache hit or a loop scalar is bound in place: v points at own, and
// nothing but the cell may. A value handed to a second cell or out of the
// runtime is lent first (lend), which moves it to the heap, so the backend
// attachments a later instruction gives it (an RDD, a broadcast, a device
// copy) are shared by exactly the cells that received it, as when every
// hit had a Value of its own. own is zero whenever v does not point at it,
// so a cell never keeps a matrix alive that it no longer binds.
type binding struct {
	v   *Value
	li  *lineage.Item
	own Value
}

// Table is the session's symbol table: one map from names to cells serving
// both the variable bindings and the lineage map. Function calls swap the
// scope, so a callee sees only its parameters; scopes of finished calls are
// kept per call depth and reused, their cells emptied.
type Table struct {
	scope  map[string]*binding
	traced int64
}

func newTable() *Table { return &Table{scope: make(map[string]*binding)} }

// Get returns the lineage of a live variable, or nil if unknown.
func (t *Table) Get(name string) *lineage.Item {
	if c := t.scope[name]; c != nil {
		return c.li
	}
	return nil
}

// Traced returns the number of operations traced into the table.
func (t *Table) Traced() int64 { return t.traced }

// lookup returns name's cell in the current scope, or nil.
func (t *Table) lookup(name string) *binding { return t.scope[name] }

// value returns name's bound value in the current scope, or nil, without
// lending it: for reads that keep no pointer to it past the read.
func (t *Table) value(name string) *Value {
	if c := t.scope[name]; c != nil {
		return c.v
	}
	return nil
}

// cell returns name's cell in the current scope, adding an unbound one.
func (t *Table) cell(name string) *binding {
	c := t.scope[name]
	if c == nil {
		c = new(binding)
		t.scope[name] = c
	}
	return c
}

// itemOrLeaf returns the lineage of a cell, binding a "read" leaf to it
// when it has none: an input that was never traced is a persistent read.
func itemOrLeaf(c *binding, name string) *lineage.Item {
	if c.li == nil {
		c.li = lineage.NewLeaf("read", name)
	}
	return c.li
}

// frameMark is what entering a frame saved: the enclosing frame.
type frameMark struct {
	layout *compiler.Layout
	frame  []*binding
	base   int
}

// enterFrame resolves a prepared stream's names to their cells in the
// current scope, once for the stream's execution. Frames stack in one
// buffer the context owns, so a warm execution allocates none; a nested
// frame that outgrows it moves only the buffer, and the enclosing frame
// keeps the cells it resolved.
func (ctx *Context) enterFrame(l *compiler.Layout) frameMark {
	m := frameMark{layout: ctx.layout, frame: ctx.frame, base: len(ctx.frames)}
	if l != nil {
		for _, name := range l.Names {
			ctx.frames = append(ctx.frames, ctx.LMap.cell(name))
		}
	}
	ctx.layout, ctx.frame = l, ctx.frames[m.base:]
	return m
}

// leaveFrame restores the frame enterFrame saved in m.
func (ctx *Context) leaveFrame(m frameMark) {
	clear(ctx.frames[m.base:])
	ctx.frames = ctx.frames[:m.base]
	ctx.layout, ctx.frame = m.layout, m.frame
}

// inCell returns the cell of input i of an instruction of the current
// frame (i must not be a literal operand).
func (ctx *Context) inCell(inst *compiler.Instruction, i int) *binding {
	return ctx.frame[inst.Slot(i)]
}

// outCell returns the cell of output i of an instruction of the current
// frame.
func (ctx *Context) outCell(inst *compiler.Instruction, i int) *binding {
	return ctx.frame[inst.OutSlot(i)]
}

// lend returns a cell's value for a second holder: a value bound in place
// moves to the heap first, and the cell binds the moved value, so both hold
// one object.
func lend(c *binding) *Value {
	if c.v == &c.own {
		v := new(Value)
		*v = c.own
		c.own = Value{}
		c.v = v
	}
	return c.v
}

// bindCell rebinds a cell's value, managing GPU reference counts: the old
// binding's device reference is released and the new binding retained.
func (ctx *Context) bindCell(c *binding, v *Value) {
	if old := c.v; old != nil && old != v {
		ctx.drop(c)
	}
	c.v = v
}

// bindOwn binds a host matrix in place: the cell's own value becomes m with
// lineage lin, and nothing is allocated.
func (ctx *Context) bindOwn(c *binding, m *data.Matrix, lin *lineage.Item) {
	if c.v != nil {
		ctx.drop(c)
	}
	c.own = Value{Rows: m.Rows, Cols: m.Cols, M: m, Lin: lin}
	c.v = &c.own
}

// drop lets go of a cell's bound value: its device reference is released
// and a value bound in place is cleared. The caller rebinds c.v.
func (ctx *Context) drop(c *binding) {
	if old := c.v; old.HasGPU() && ctx.GM != nil {
		ctx.GM.Release(old.GPU)
	}
	if c.v == &c.own {
		c.own = Value{}
	}
}

// unbindCell empties a cell, releasing its GPU reference.
func (ctx *Context) unbindCell(c *binding) {
	if c.v != nil {
		ctx.drop(c)
	}
	c.v, c.li = nil, nil
}

// enterScope swaps in an empty scope for a function call and returns the
// caller's. The callee's scope is the one the last call at this depth
// used, its cells emptied when that call returned.
func (ctx *Context) enterScope() map[string]*binding {
	caller := ctx.LMap.scope
	if ctx.depth == len(ctx.scopes) {
		ctx.scopes = append(ctx.scopes, make(map[string]*binding))
	}
	ctx.LMap.scope = ctx.scopes[ctx.depth]
	ctx.depth++
	return caller
}

// leaveScope tears down a callee scope, releasing the GPU references its
// bindings hold, and restores the caller's.
func (ctx *Context) leaveScope(caller map[string]*binding) {
	for _, c := range ctx.LMap.scope {
		ctx.unbindCell(c)
	}
	ctx.depth--
	ctx.LMap.scope = caller
}

// unwind restores the frame and scope a run started in after a panic
// unwound it: every call scope the run entered is torn down as its return
// would have torn it down, innermost first.
func (ctx *Context) unwind(frame frameMark, scope map[string]*binding, depth int) {
	ctx.leaveFrame(frame)
	for ctx.depth > depth {
		caller := scope
		if ctx.depth-2 >= depth {
			caller = ctx.scopes[ctx.depth-2]
		}
		ctx.leaveScope(caller)
	}
}
