package dml

import (
	"fmt"
	"strconv"

	"memphis/internal/ir"
)

// Parse compiles a DML script into an ir program.
func Parse(src string) (*ir.Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: ir.NewProgram()}
	blocks, err := p.parseStmts(tokEOF)
	if err != nil {
		return nil, err
	}
	// parseStmts stops at any closing brace; at the top level that means
	// unconsumed input (e.g. a stray `}`), which must be an error, not a
	// silently truncated program.
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected %q after end of program", t.text)
	}
	p.prog.Main = blocks
	if err := p.validateCalls(p.prog.Main); err != nil {
		return nil, err
	}
	for _, f := range p.prog.Funcs {
		if err := p.validateCalls(f.Body); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

// validateCalls checks that every user-function call resolves to a defined
// function with matching arity.
func (p *parser) validateCalls(blocks []ir.Block) error {
	var failure error
	ir.Walk(blocks, func(b ir.Block) {
		bb, ok := b.(*ir.BasicBlock)
		if !ok || failure != nil {
			return
		}
		for _, st := range bb.Stmts {
			if st.Expr.Op != "call" {
				continue
			}
			name := st.Expr.Attr("fn")
			fn, ok := p.prog.Funcs[name]
			if !ok {
				failure = fmt.Errorf("dml: call to undefined function %q", name)
				return
			}
			if len(st.Expr.Inputs) != len(fn.Params) {
				failure = fmt.Errorf("dml: %s expects %d arguments, got %d",
					name, len(fn.Params), len(st.Expr.Inputs))
				return
			}
			if len(st.Targets) != len(fn.Returns) {
				failure = fmt.Errorf("dml: %s returns %d values, got %d targets",
					name, len(fn.Returns), len(st.Targets))
				return
			}
		}
	})
	return failure
}

type parser struct {
	toks []token
	pos  int
	prog *ir.Program
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) expectOp(op string) error {
	t := p.next()
	if t.kind != tokOp || t.text != op {
		return fmt.Errorf("dml: line %d: expected %q, got %q", t.line, op, t.text)
	}
	return nil
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("dml: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

// parseStmts parses statements until the given closing token kind/op,
// grouping consecutive straight-line statements into basic blocks.
func (p *parser) parseStmts(until tokKind) ([]ir.Block, error) {
	var blocks []ir.Block
	var pending []ir.Stmt
	flush := func() {
		if len(pending) > 0 {
			blocks = append(blocks, &ir.BasicBlock{Stmts: pending})
			pending = nil
		}
	}
	for {
		p.skipNewlines()
		t := p.peek()
		if until == tokEOF && t.kind == tokEOF {
			break
		}
		if t.kind == tokOp && t.text == "}" {
			break
		}
		if t.kind == tokEOF {
			break
		}
		switch {
		case t.kind == tokKeyword && (t.text == "for" || t.text == "while" || t.text == "if"):
			flush()
			b, err := p.parseControl()
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
		default:
			st, isFunc, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			if !isFunc {
				pending = append(pending, st)
			}
		}
	}
	flush()
	return blocks, nil
}

// parseSimpleStmt parses `x = expr`, `[a, b] = f(args)`, or a function
// definition (which registers itself and returns isFunc=true).
func (p *parser) parseSimpleStmt() (ir.Stmt, bool, error) {
	t := p.peek()
	// Multi-assignment: [a, b] = f(...)
	if t.kind == tokOp && t.text == "[" {
		p.next()
		var targets []string
		for {
			id := p.next()
			if id.kind != tokIdent {
				return ir.Stmt{}, false, p.errf(id, "expected identifier in multi-assignment")
			}
			targets = append(targets, id.text)
			sep := p.next()
			if sep.kind == tokOp && sep.text == "]" {
				break
			}
			if sep.kind != tokOp || sep.text != "," {
				return ir.Stmt{}, false, p.errf(sep, "expected , or ] in multi-assignment")
			}
		}
		if err := p.expectOp("="); err != nil {
			return ir.Stmt{}, false, err
		}
		fn := p.next()
		if fn.kind != tokIdent {
			return ir.Stmt{}, false, p.errf(fn, "multi-assignment requires a function call")
		}
		args, err := p.parseArgs()
		if err != nil {
			return ir.Stmt{}, false, err
		}
		return ir.Call(fn.text, targets, args...), false, nil
	}
	if t.kind != tokIdent {
		return ir.Stmt{}, false, p.errf(t, "expected statement, got %q", t.text)
	}
	name := p.next().text
	if err := p.expectOp("="); err != nil {
		return ir.Stmt{}, false, err
	}
	// Function definition?
	if nt := p.peek(); nt.kind == tokKeyword && nt.text == "function" {
		if err := p.parseFunction(name); err != nil {
			return ir.Stmt{}, false, err
		}
		return ir.Stmt{}, true, nil
	}
	// User function call as RHS? (single return)
	if nt := p.peek(); nt.kind == tokIdent && p.toks[p.pos+1].kind == tokOp &&
		p.toks[p.pos+1].text == "(" && !isBuiltin(nt.text) {
		fn := p.next().text
		args, err := p.parseArgs()
		if err != nil {
			return ir.Stmt{}, false, err
		}
		if after := p.peek(); after.kind == tokOp && after.text != "}" {
			return ir.Stmt{}, false, p.errf(after,
				"unknown builtin %q: user functions cannot appear inside expressions", fn)
		}
		return ir.Call(fn, []string{name}, args...), false, nil
	}
	expr, err := p.parseExpr()
	if err != nil {
		return ir.Stmt{}, false, err
	}
	return ir.Assign(name, expr), false, nil
}

// parseFunction parses `function(params) -> (rets) { body }` after the
// `name =` prefix has been consumed.
func (p *parser) parseFunction(name string) error {
	fn := p.next() // function
	if err := p.expectOp("("); err != nil {
		return err
	}
	var params []string
	for p.peek().text != ")" {
		id := p.next()
		if id.kind != tokIdent {
			return p.errf(id, "expected parameter name")
		}
		params = append(params, id.text)
		if p.peek().text == "," {
			p.next()
		}
	}
	p.next() // )
	if err := p.expectOp("->"); err != nil {
		return err
	}
	if err := p.expectOp("("); err != nil {
		return err
	}
	var rets []string
	for p.peek().text != ")" {
		id := p.next()
		if id.kind != tokIdent {
			return p.errf(id, "expected return name")
		}
		rets = append(rets, id.text)
		if p.peek().text == "," {
			p.next()
		}
	}
	p.next() // )
	if _, dup := p.prog.Funcs[name]; dup || len(rets) == 0 {
		return p.errf(fn, "function %q needs one definition with at least one return", name)
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	p.prog.Define(&ir.Function{
		Name: name, Params: params, Returns: rets,
		Body: body, Deterministic: true,
	})
	return nil
}

// parseBlock parses `{ stmts }`.
func (p *parser) parseBlock() ([]ir.Block, error) {
	p.skipNewlines()
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	blocks, err := p.parseStmts(tokOp)
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("}"); err != nil {
		return nil, err
	}
	return blocks, nil
}

// parseControl parses for/while/if blocks.
func (p *parser) parseControl() (ir.Block, error) {
	kw := p.next()
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	switch kw.text {
	case "for":
		id := p.next()
		if id.kind != tokIdent {
			return nil, p.errf(id, "expected loop variable")
		}
		in := p.next()
		if in.kind != tokKeyword || in.text != "in" {
			return nil, p.errf(in, "expected 'in'")
		}
		if err := p.expectOp("["); err != nil {
			return nil, err
		}
		var vals []float64
		for p.peek().text != "]" {
			neg := false
			if p.peek().text == "-" {
				neg = true
				p.next()
			}
			num := p.next()
			if num.kind != tokNumber {
				return nil, p.errf(num, "for-loop values must be numeric literals")
			}
			v, err := strconv.ParseFloat(num.text, 64)
			if err != nil {
				return nil, p.errf(num, "bad number %q", num.text)
			}
			if neg {
				v = -v
			}
			vals = append(vals, v)
			if p.peek().text == "," {
				p.next()
			}
		}
		p.next() // ]
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ir.ForBlock{Var: id.text, Values: vals, Body: body}, nil
	case "while":
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ir.WhileBlock{Cond: cond, Body: body, MaxIter: 10000}, nil
	case "if":
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []ir.Block
		p.skipNewlines()
		if t := p.peek(); t.kind == tokKeyword && t.text == "else" {
			p.next()
			els, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
		return ir.If(cond, then, els), nil
	}
	return nil, p.errf(kw, "unknown control keyword %q", kw.text)
}

// parseArgs parses a parenthesized argument list.
func (p *parser) parseArgs() ([]*ir.Node, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var args []*ir.Node
	for p.peek().text != ")" {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.peek().text == "," {
			p.next()
		}
	}
	p.next() // )
	return args, nil
}

// Expression grammar: comparison > add/sub > mul/div/%*% > power > unary.

func (p *parser) parseExpr() (*ir.Node, error) { return p.parseComparison() }

func (p *parser) parseComparison() (*ir.Node, error) {
	left, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "<" && t.text != ">") {
			return left, nil
		}
		p.next()
		right, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		if t.text == "<" {
			left = ir.Lt(left, right)
		} else {
			left = ir.Gt(left, right)
		}
	}
}

func (p *parser) parseAddSub() (*ir.Node, error) {
	left, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.next()
		right, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			left = ir.Add(left, right)
		} else {
			left = ir.Sub(left, right)
		}
	}
}

func (p *parser) parseMulDiv() (*ir.Node, error) {
	left, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/" && t.text != "%*%") {
			return left, nil
		}
		p.next()
		right, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		switch t.text {
		case "*":
			left = ir.Mul(left, right)
		case "/":
			left = ir.Div(left, right)
		case "%*%":
			left = ir.MatMul(left, right)
		}
	}
}

func (p *parser) parsePower() (*ir.Node, error) {
	base, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokOp && t.text == "^" {
		p.next()
		num := p.next()
		if num.kind != tokNumber {
			return nil, p.errf(num, "exponent must be a numeric literal")
		}
		v, err := strconv.ParseFloat(num.text, 64)
		if err != nil {
			return nil, p.errf(num, "bad exponent")
		}
		return ir.Pow(base, v), nil
	}
	return base, nil
}

func (p *parser) parseUnary() (*ir.Node, error) {
	if t := p.peek(); t.kind == tokOp && t.text == "-" {
		p.next()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if inner.Op == "lit" {
			v, _ := strconv.ParseFloat(inner.Attr("value"), 64)
			return ir.Lit(-v), nil
		}
		return ir.Mul(inner, ir.Lit(-1)), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*ir.Node, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		return ir.Lit(v), nil
	case t.kind == tokOp && t.text == "(":
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		if nt := p.peek(); nt.kind == tokOp && nt.text == "(" {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.buildCall(t, args)
		}
		return ir.Var(t.text), nil
	}
	return nil, p.errf(t, "unexpected token %q in expression", t.text)
}
