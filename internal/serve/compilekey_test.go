package serve

import (
	"testing"

	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/ir"
)

// TestProgramKeySeparation is the table-driven program-key test: a program's
// key is its structure, parsed or built, so scripts that differ only in
// whitespace are one program, while any difference in a literal, a variable
// or an appended block separates them.
func TestProgramKeySeparation(t *testing.T) {
	parse := func(src string) *ir.Program {
		p, err := dml.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return p
	}
	base := "z = 1 + 2\n"
	appended := parse(base)
	appended.Main = append(appended.Main, ir.BB(ir.Assign("z", ir.Add(ir.Var("z"), ir.Lit(1)))))
	cases := []struct {
		name string
		prog *ir.Program
		same bool // whether the key must equal base's
	}{
		{"identical text", parse("z = 1 + 2\n"), true},
		{"whitespace only", parse("z = 1 + 2 \n"), true},
		{"extra blank line", parse("z = 1 + 2\n\n"), true},
		{"different literal", parse("z = 1 + 3\n"), false},
		{"different variable", parse("w = 1 + 2\n"), false},
		{"appended block", appended, false},
	}
	ref := parse(base).Fingerprint()
	for _, tc := range cases {
		got := tc.prog.Fingerprint()
		if tc.same && got != ref {
			t.Errorf("%s: fingerprint %016x != base %016x, want equal", tc.name, got, ref)
		}
		if !tc.same && got == ref {
			t.Errorf("%s: fingerprint collides with base", tc.name)
		}
	}

	// Programmatic programs key the same way: equal structures collide,
	// literal differences separate.
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
	// keys equal programs equally across distinct objects.
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
		t.Error("equal programs must yield equal program keys across objects")
	}
	if k1 == k3 {
		t.Error("different programs must yield different program keys")
	}
}

// TestAppendedBlockDoesNotCoalesce: two parses of one script, the second
// with a block appended before its first run, are different programs. With
// coalescing on, the same inputs and the same fetch set, the second request
// must execute its own program, not join the first one's group.
func TestAppendedBlockDoesNotCoalesce(t *testing.T) {
	srv := New(coalesceConf(1))
	defer srv.Close()
	x := data.RandNorm(8, 4, 0, 1, 3)
	submit := func(tenant string, p *ir.Program) *Result {
		f, err := srv.Submit(tenant, p, SubmitOptions{Inputs: map[string]*data.Matrix{"X": x}, Fetch: []string{"z"}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p1, err1 := dml.Parse("z = X * 2\n")
	p2, err2 := dml.Parse("z = X * 2\n")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	p2.Main = append(p2.Main, ir.BB(ir.Assign("z", ir.Add(ir.Var("z"), ir.Lit(1)))))
	r1, r2 := submit("a", p1), submit("b", p2)
	if r2.Coalesced {
		t.Fatalf("the extended program coalesced with request %d", r2.CoalescedWith)
	}
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			if got, want := r1.Values["z"].At(i, j), x.At(i, j)*2; got != want {
				t.Fatalf("first program z[%d,%d] = %v, want %v", i, j, got, want)
			}
			if got, want := r2.Values["z"].At(i, j), x.At(i, j)*2+1; got != want {
				t.Fatalf("extended program z[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestCompiledBlocksSharedAcrossPrograms: two three-block programs that
// differ in one block's literal leave four compiled blocks on the server,
// not six. A block compiles the same in any program, so its key holds no
// program identity.
func TestCompiledBlocksSharedAcrossPrograms(t *testing.T) {
	conf := DefaultConfig()
	conf.Workers = 1
	srv := New(conf)
	defer srv.Close()
	mk := func(lit float64) *ir.Program {
		p := ir.NewProgram()
		p.Main = []ir.Block{
			ir.BB(ir.Assign("G", ir.TSMM(ir.Var("X")))),
			ir.BB(ir.Assign("s", ir.Sum(ir.Var("G")))),
			ir.BB(ir.Assign("z", ir.Mul(ir.Var("s"), ir.Lit(lit)))),
		}
		return p
	}
	x := data.RandNorm(16, 4, 0, 1, 5)
	for _, lit := range []float64{2, 3} {
		f, err := srv.Submit("t", mk(lit), SubmitOptions{Inputs: map[string]*data.Matrix{"X": x}, Fetch: []string{"z"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Snapshot().CompileCache; st.Lookups != 6 || st.Entries != 4 {
		t.Errorf("%d lookups left %d resident blocks, want 6 and 4", st.Lookups, st.Entries)
	}
}
