package dml

import (
	"strings"
	"testing"
)

// parseGuarded runs Parse and converts any panic into a test failure: the
// contract under test is that malformed programs come back as errors, never
// as crashes.
func parseGuarded(t *testing.T, src string) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("Parse(%q) panicked: %v", src, r)
		}
	}()
	_, err = Parse(src)
	return err
}

// TestMalformedProgramsError is the error-path table: every lexer and parser
// failure mode returns an error (with the expected message fragment where one
// is stable) and never panics.
func TestMalformedProgramsError(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		// Lexer: characters outside the language.
		{"unexpected char tilde", "x = 1 ~ 2", "unexpected character"},
		{"unexpected char at", "@", "unexpected character"},
		{"unexpected char quote", `x = "hello"`, "unexpected character"},
		{"unexpected char semicolon", "x = 1;", "unexpected character"},
		{"unexpected char backslash", "x = 1 \\ 2", "unexpected character"},
		{"unexpected char dollar", "$y = 1", "unexpected character"},
		{"unexpected char bang alone", "x = !y", "unexpected character"},
		{"unexpected char ampersand", "x = 1 & 2", "unexpected character"},

		// Truncated expressions and statements.
		{"assign without rhs", "x = ", ""},
		{"dangling operator", "x = 1 +", ""},
		{"dangling matmul", "x = A %*%", ""},
		{"dangling power", "x = A ^", ""},
		{"dangling comparison", "x = 1 <", ""},
		{"lone identifier", "x", ""},
		{"lone number", "42", ""},
		{"op without lhs", "= 1", ""},
		{"double assign", "x = = 1", ""},

		// Unbalanced delimiters.
		{"unclosed paren", "x = (1 + 2", ""},
		{"unopened paren", "x = 1 + 2)", ""},
		{"unclosed call", "x = t(A", ""},
		{"unclosed brace", "if (x > 0) { y = 1", ""},
		{"unopened brace", "y = 1 }", ""},
		{"unclosed bracket", "for (i in [1, 2) { x = 1 }", ""},
		{"empty parens expr", "x = ()", ""},

		// Control-flow malformations.
		{"for without var", "for (in [1]) { x = 1 }", "loop variable"},
		{"for without in", "for (i of [1]) { x = 1 }", "expected 'in'"},
		{"for non-literal values", "for (i in [a]) { x = 1 }", "numeric literals"},
		{"for missing body", "for (i in [1, 2])", ""},
		{"while missing cond", "while () { x = 1 }", ""},
		{"while missing body", "while (x > 0)", ""},
		{"if missing cond", "if { x = 1 }", ""},
		{"else without if", "else { x = 1 }", ""},
		{"unknown keyword as expr", "x = function", ""},

		// Function definitions.
		{"function unclosed params", "f = function(a -> (r) { r = a }", "expected"},
		{"function missing returns", "f = function(a) { r = a }", ""},
		{"function bad param", "f = function(1) -> (r) { r = 1 }", "parameter name"},
		{"function bad return", "f = function(a) -> (1) { r = a }", "return name"},
		{"function missing body", "f = function(a) -> (r)", ""},
		{"function without returns", "A = function(A) -> () {}", "needs one definition"},
		{"function defined twice", "f = function(a) -> (r) { r = a }\nf = function(b) -> (s) { s = b }", "needs one definition"},

		// Calls: arity, undefined names, placement.
		{"undefined function stmt", "x = foo(1)", "undefined function"},
		{"builtin in expression", "x = foo(1) + 2", "unknown builtin"},
		{"t arity", "x = t(1, 2)", "expects 1 argument"},
		{"solve arity", "x = solve(1)", "expects 2 arguments"},
		{"sum arity", "x = sum(A, B)", "expects 1 argument"},
		{"rand non-literal arg", "x = rand(n, 4, 0, 1, 1, 7)", "literal"},
		{"call arity mismatch", "f = function(a, b) -> (r) { r = a }\n[x] = f(1)", ""},

		// Multi-assignment.
		{"multi-assign non-ident", "[1, x] = f(1)", "identifier in multi-assignment"},
		{"multi-assign bad sep", "[x; y] = f(1)", ""},
		{"multi-assign without call", "[x] = 1", "requires a function call"},
		{"multi-assign unclosed", "[x, y = f(1)", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := parseGuarded(t, c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", c.src)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Parse(%q) err = %v, want containing %q", c.src, err, c.want)
			}
		})
	}
}

// TestDegenerateProgramsParse: degenerate but well-formed sources neither
// error nor panic.
func TestDegenerateProgramsParse(t *testing.T) {
	for _, src := range []string{
		"",
		"\n\n\n",
		"# only a comment",
		"# comment\n\n# another\n",
		"x = 1",
		"x = 1\n\n\ny = x",
	} {
		if err := parseGuarded(t, src); err != nil {
			t.Errorf("Parse(%q) err = %v, want nil", src, err)
		}
	}
}

// TestTruncationNeverPanics chops every well-formed program at each byte
// offset: whatever the parser makes of the prefix — error or success — it
// must not crash. This sweeps the "unexpected EOF mid-production" space far
// beyond the hand-written table.
func TestTruncationNeverPanics(t *testing.T) {
	full := []string{
		"linReg = function(X, y, reg, eye) -> (beta) {\n" +
			"    A = t(X) %*% X\n" +
			"    beta = solve(A + eye * reg, t(X) %*% y)\n" +
			"}\n" +
			"for (lambda in [0.01, 0.1, 1]) {\n" +
			"    [beta] = linReg(X, y, lambda, eye)\n" +
			"    err = sum((y - X %*% beta)^2)\n" +
			"}\n",
		"while (d > 1e-3) {\n    if (x >= 0) { x = x - 0.5 } else { x = x + 0.5 }\n    d = x^2\n}\n",
		"x = rand(10, 4, 0, 1, 1.0, 7)\ny = dropout(x, 0.5, 3)\nz = sum(x %*% t(y))\n",
	}
	for _, src := range full {
		for i := 0; i <= len(src); i++ {
			parseGuarded(t, src[:i])
		}
	}
}
