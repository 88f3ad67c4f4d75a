package ir

import "fmt"

// Stmt assigns the value of Expr to Targets. Ordinary statements have one
// target; function calls (Op "call") may have several.
type Stmt struct {
	Targets []string
	Expr    *Node
}

// Block is a program block.
type Block interface{ block() }

// BasicBlock is a straight-line sequence of statements forming one operator
// DAG. The compiler-tuned reuse parameters (delay factor, storage level)
// are stored in the block header by the auto-tuning rewrite (§5.2).
type BasicBlock struct {
	Stmts []Stmt

	// Compiler-assigned reuse parameters (block header).
	DelayFactor  int    // 0 = unset; 1 = eager caching
	StorageLevel string // "", "MEMORY", "MEMORY_AND_DISK"
}

// ForBlock iterates Var over Values, executing Body each time.
type ForBlock struct {
	Var    string
	Values []float64
	Body   []Block

	// GPUHint marks loops dominated by GPU ops (set by the compiler's
	// eviction-injection analysis).
	GPUHint bool
}

// WhileBlock executes Body while the scalar condition variable (set inside
// the body or before) is non-zero, up to MaxIter iterations.
type WhileBlock struct {
	Cond    *Node
	Body    []Block
	MaxIter int
}

// IfBlock branches on a scalar condition.
type IfBlock struct {
	Cond *Node
	Then []Block
	Else []Block
}

// EvictBlock is a compiler-injected cache cleanup instruction (§5.2).
type EvictBlock struct {
	Fraction float64 // share of the GPU free list to release
}

func (*BasicBlock) block() {}
func (*ForBlock) block()   {}
func (*WhileBlock) block() {}
func (*IfBlock) block()    {}
func (*EvictBlock) block() {}

// Function is a callable unit; deterministic functions are subject to
// multi-level reuse (§3.3).
type Function struct {
	Name    string
	Params  []string
	Returns []string
	Body    []Block
	// Deterministic marks the function reusable when called with equal
	// inputs. Functions with unseeded randomness would set this false;
	// in this system all randomness is seeded, so it defaults to true.
	Deterministic bool
}

// Program is a compiled script: functions plus a main block sequence.
// Source holds the raw script text when the program came from the DML
// parser; programs built programmatically leave it empty. It is the
// primary component of the program key, so two scripts differing only in
// whitespace or literals key differently.
//
// A program's statements are immutable once it has run. The program-level
// rewrites (compiler.RewriteProgram: parameter tuning, loop checkpoints,
// eviction injection) edit the block lists in place, so they run before the
// first compile and once per program — Rewritten records that — and nothing
// edits the blocks afterwards: sessions memoize compile-cache key components
// by block pointer, and Key is remembered here. One goroutine at a time may
// prepare (rewrite, key) a program; running it is read-only.
type Program struct {
	Funcs     map[string]*Function
	Main      []Block
	Source    string
	Rewritten bool

	key uint64 // Fingerprint() once taken; 0 before
}

// Key returns Fingerprint(), computed on the first call — which callers make
// after the rewrites — and remembered beside Rewritten.
func (p *Program) Key() uint64 {
	if p.key == 0 {
		p.key = p.Fingerprint()
	}
	return p.key
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{Funcs: make(map[string]*Function)} }

// Define registers a function.
func (p *Program) Define(f *Function) {
	if _, dup := p.Funcs[f.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %q", f.Name))
	}
	if f.Name == "" || len(f.Returns) == 0 {
		panic("ir: function needs a name and at least one return")
	}
	p.Funcs[f.Name] = f
}

// Assign builds a single-target statement.
func Assign(target string, expr *Node) Stmt {
	return Stmt{Targets: []string{target}, Expr: expr}
}

// Call builds a function-call statement binding the function's returns to
// the targets.
func Call(fn string, targets []string, args ...*Node) Stmt {
	n := NewNode("call", args...).WithAttr("fn", fn)
	return Stmt{Targets: targets, Expr: n}
}

// BB is shorthand for a basic block from statements.
func BB(stmts ...Stmt) *BasicBlock { return &BasicBlock{Stmts: stmts} }

// For is shorthand for a for block over explicit values.
func For(v string, values []float64, body ...Block) *ForBlock {
	return &ForBlock{Var: v, Values: values, Body: body}
}

// ForRange iterates i = 0..n-1.
func ForRange(v string, n int, body ...Block) *ForBlock {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	return &ForBlock{Var: v, Values: vals, Body: body}
}

// If is shorthand for an if block.
func If(cond *Node, then []Block, els []Block) *IfBlock {
	return &IfBlock{Cond: cond, Then: then, Else: els}
}

// Walk visits every block in the program (pre-order), including nested
// bodies. The visitor may mutate block fields but not the structure.
func Walk(blocks []Block, visit func(Block)) {
	for _, b := range blocks {
		visit(b)
		switch t := b.(type) {
		case *ForBlock:
			Walk(t.Body, visit)
		case *WhileBlock:
			Walk(t.Body, visit)
		case *IfBlock:
			Walk(t.Then, visit)
			Walk(t.Else, visit)
		}
	}
}

// VarsRead returns the program variables referenced by an expression tree.
func VarsRead(n *Node, out map[string]struct{}) {
	if n == nil {
		return
	}
	if n.Op == "var" {
		out[n.Attr("name")] = struct{}{}
		return
	}
	for _, in := range n.Inputs {
		VarsRead(in, out)
	}
}

// DependsOn reports whether the expression references any of the names,
// directly or through variables assigned earlier in the same statement list
// (a conservative intra-block dataflow check used by the delay-factor
// tuning rewrite).
func DependsOn(stmts []Stmt, idx int, names map[string]struct{}) bool {
	tainted := make(map[string]struct{}, len(names))
	for n := range names {
		tainted[n] = struct{}{}
	}
	for i := 0; i <= idx; i++ {
		reads := make(map[string]struct{})
		VarsRead(stmts[i].Expr, reads)
		dep := false
		for r := range reads {
			if _, ok := tainted[r]; ok {
				dep = true
				break
			}
		}
		if i == idx {
			return dep
		}
		if dep {
			for _, t := range stmts[i].Targets {
				tainted[t] = struct{}{}
			}
		}
	}
	return false
}
