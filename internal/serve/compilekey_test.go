package serve

import (
	"testing"

	"memphis/internal/dml"
	"memphis/internal/ir"
)

// TestProgramKeySeparation is the table-driven program-key test: the
// serving layer keys source-backed programs on their raw text, so scripts
// differing in whitespace or literals — which may compile to identical
// instruction streams — must never share compile-cache entries. Structural
// keys (programmatic programs) must separate on any DAG difference and
// collide for equal structures.
func TestProgramKeySeparation(t *testing.T) {
	parse := func(src string) *ir.Program {
		p, err := dml.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return p
	}
	base := "z = 1 + 2\n"
	cases := []struct {
		name string
		src  string
		same bool // whether the key must equal base's
	}{
		{"identical text", "z = 1 + 2\n", true},
		{"whitespace only", "z = 1 + 2 \n", false},
		{"extra blank line", "z = 1 + 2\n\n", false},
		{"different literal", "z = 1 + 3\n", false},
		{"different variable", "w = 1 + 2\n", false},
	}
	ref := parse(base).Fingerprint()
	for _, tc := range cases {
		got := parse(tc.src).Fingerprint()
		if tc.same && got != ref {
			t.Errorf("%s: fingerprint %016x != base %016x, want equal", tc.name, got, ref)
		}
		if !tc.same && got == ref {
			t.Errorf("%s: fingerprint collides with base", tc.name)
		}
	}

	// Programmatic (source-less) programs key structurally: equal
	// structures collide, literal and attribute differences separate.
	mk := func(lit float64) *ir.Program {
		p := ir.NewProgram()
		p.Main = []ir.Block{ir.BB(ir.Assign("z", ir.Add(ir.Lit(lit), ir.Var("x"))))}
		return p
	}
	if mk(1).Fingerprint() != mk(1).Fingerprint() {
		t.Error("equal structures must share a fingerprint")
	}
	if mk(1).Fingerprint() == mk(2).Fingerprint() {
		t.Error("literal difference must change the structural fingerprint")
	}

	// The server prepares (rewrites, keys) each program object once and
	// keys equal sources equally across distinct objects.
	srv := New(DefaultConfig())
	defer srv.Close()
	first := parse(base)
	srv.mu.Lock()
	k1 := srv.prepareLocked(first)
	k2 := srv.prepareLocked(parse(base))
	k3 := srv.prepareLocked(parse("z = 9\n"))
	again := srv.prepareLocked(first)
	srv.mu.Unlock()
	if !first.Rewritten || again != k1 {
		t.Errorf("preparing a program twice: Rewritten=%v, keys %016x then %016x", first.Rewritten, k1, again)
	}
	if k1 != k2 {
		t.Error("equal sources must yield equal program keys across objects")
	}
	if k1 == k3 {
		t.Error("different sources must yield different program keys")
	}
}
