package lineage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLeafEquality(t *testing.T) {
	a := NewLeaf("read", "X")
	b := NewLeaf("read", "X")
	c := NewLeaf("read", "Y")
	if !a.Equals(b) {
		t.Fatal("identical leaves must be equal")
	}
	if a.Equals(c) {
		t.Fatal("leaves with different data must differ")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("equal items must have equal hashes")
	}
}

func TestDagEquality(t *testing.T) {
	build := func() *Item {
		x := NewLeaf("read", "X")
		y := NewLeaf("read", "y")
		tx := NewItem("t", "", x)
		return NewItem("ba*", "", tx, y)
	}
	if !build().Equals(build()) {
		t.Fatal("structurally identical DAGs must be equal")
	}
}

func TestDagInequalityByOpcode(t *testing.T) {
	x := NewLeaf("read", "X")
	a := NewItem("t", "", x)
	b := NewItem("exp", "", x)
	if a.Equals(b) {
		t.Fatal("different opcodes must differ")
	}
}

func TestDagInequalityByData(t *testing.T) {
	x := NewLeaf("read", "X")
	a := NewItem("dropout", "p=0.5,seed=1", x)
	b := NewItem("dropout", "p=0.5,seed=2", x)
	if a.Equals(b) {
		t.Fatal("different seeds must produce different lineage")
	}
}

func TestDagInequalityByStructure(t *testing.T) {
	x := NewLeaf("read", "X")
	y := NewLeaf("read", "Y")
	a := NewItem("ba+*", "", x, y)
	b := NewItem("ba+*", "", y, x)
	if a.Equals(b) {
		t.Fatal("operand order matters")
	}
}

func TestEqualsNil(t *testing.T) {
	var a *Item
	b := NewLeaf("read", "X")
	if a.Equals(b) || b.Equals(a) {
		t.Fatal("nil comparisons must be false")
	}
	if !a.Equals(nil) {
		t.Fatal("nil equals nil")
	}
}

func TestSharedSubDagFastPath(t *testing.T) {
	// Build a deep ladder sharing one instance, then compare an identical
	// separate one: must still be equal (memoization correctness).
	mk := func(shared *Item) *Item {
		cur := shared
		for i := 0; i < 100; i++ {
			cur = NewItem("op", fmt.Sprint(i), cur, shared)
		}
		return cur
	}
	base := NewLeaf("read", "X")
	a := mk(base)
	b := mk(base)
	if !a.Equals(b) {
		t.Fatal("DAGs sharing sub-structures must compare equal")
	}
}

func TestHeight(t *testing.T) {
	x := NewLeaf("read", "X")
	if x.Height() != 1 {
		t.Fatalf("leaf height = %d, want 1", x.Height())
	}
	t1 := NewItem("t", "", x)
	t2 := NewItem("t", "", t1)
	if t2.Height() != 3 {
		t.Fatalf("height = %d, want 3", t2.Height())
	}
}

func TestMapTraceAndBind(t *testing.T) {
	m := NewMap()
	it := m.Trace("a", "rand", "rows=2,cols=2,seed=1")
	if m.Get("a") != it {
		t.Fatal("Trace did not bind output")
	}
	m.Trace("b", "t", "", "a")
	if m.Get("b").Inputs()[0] != it {
		t.Fatal("input lineage not linked")
	}
	if m.Traced() != 2 {
		t.Fatalf("Traced = %d, want 2", m.Traced())
	}
}

func TestMapUnknownInputBecomesLeaf(t *testing.T) {
	m := NewMap()
	it := m.Trace("out", "t", "", "X")
	in := it.Inputs()[0]
	if in.Opcode() != "read" || in.Data() != "X" {
		t.Fatalf("unknown input should trace as read leaf, got %s %q", in.Opcode(), in.Data())
	}
	// Second use must reuse the same leaf (object identity for sharing).
	it2 := m.Trace("out2", "exp", "", "X")
	if it2.Inputs()[0] != in {
		t.Fatal("repeated unknown input must share one leaf")
	}
}

func TestTraceItemCompaction(t *testing.T) {
	m := NewMap()
	m.Trace("a", "rand", "s=1")
	cachedKey := NewItem("rand", "s=1")
	m.TraceItem("a", cachedKey)
	if m.Get("a") != cachedKey {
		t.Fatal("TraceItem must replace the binding with the cached key")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	x := NewLeaf("read", "X with spaces \"and quotes\"")
	y := NewLeaf("read", "y")
	tx := NewItem("t", "", x)
	root := NewItem("ba+*", "k=3", tx, y)
	log := Serialize(root)
	back, err := Deserialize(log)
	if err != nil {
		t.Fatal(err)
	}
	if !root.Equals(back) {
		t.Fatalf("round-trip changed the DAG:\n%s", log)
	}
}

func TestSerializeDeterministic(t *testing.T) {
	mk := func() *Item {
		x := NewLeaf("read", "X")
		return NewItem("t", "", NewItem("exp", "", x))
	}
	if Serialize(mk()) != Serialize(mk()) {
		t.Fatal("equal DAGs must serialize identically")
	}
}

func TestSerializeSharedSubDagOnce(t *testing.T) {
	x := NewLeaf("read", "X")
	root := NewItem("ba+*", "", NewItem("t", "", x), x)
	log := Serialize(root)
	if n := strings.Count(log, "read"); n != 1 {
		t.Fatalf("shared leaf serialized %d times, want 1\n%s", n, log)
	}
}

func TestDeserializeErrors(t *testing.T) {
	cases := []string{
		"",
		"0 op",
		"abc op \"\" ",
		"0 op \"\" 5", // forward/unknown reference
	}
	for _, c := range cases {
		if _, err := Deserialize(c); err == nil {
			t.Errorf("Deserialize(%q) should fail", c)
		}
	}
}

// TestDeserializeRejectsReboundID: a line whose ID is already bound is an
// error naming that line. It used to replace the binding silently, so later
// references read the second item; Serialize never writes such a line.
func TestDeserializeRejectsReboundID(t *testing.T) {
	log := "0 read \"X\" \n0 read \"Y\" \n1 t \"\" 0\n"
	it, err := Deserialize(log)
	if err == nil {
		t.Fatalf("Deserialize accepted a re-bound ID, root %s(%s)", it.Opcode(), it.Inputs()[0].Data())
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name line 2", err)
	}
}

// Property: random DAGs round-trip through serialization preserving equality.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := []*Item{NewLeaf("read", "X"), NewLeaf("read", "Y")}
		for i := 0; i < 3+rng.Intn(15); i++ {
			nIn := 1 + rng.Intn(2)
			ins := make([]*Item, nIn)
			for j := range ins {
				ins[j] = nodes[rng.Intn(len(nodes))]
			}
			nodes = append(nodes, NewItem(fmt.Sprintf("op%d", rng.Intn(4)), fmt.Sprint(rng.Intn(3)), ins...))
		}
		root := nodes[len(nodes)-1]
		back, err := Deserialize(Serialize(root))
		return err == nil && root.Equals(back) && back.Hash() == root.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: equal DAGs have equal hashes and heights (hash consistency).
func TestHashConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		build := func() *Item {
			cur := NewLeaf("read", "X")
			for _, op := range ops {
				cur = NewItem(fmt.Sprintf("op%d", op%5), "", cur)
			}
			return cur
		}
		a, b := build(), build()
		return a.Equals(b) && a.Hash() == b.Hash() && a.Height() == b.Height()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEqualsDeepChain(b *testing.B) {
	mk := func() *Item {
		cur := NewLeaf("read", "X")
		for i := 0; i < 1000; i++ {
			cur = NewItem("op", "", cur)
		}
		return cur
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Equals(y) {
			b.Fatal("must be equal")
		}
	}
}

func BenchmarkProbeHashMismatch(b *testing.B) {
	x := NewItem("op", "1", NewLeaf("read", "X"))
	y := NewItem("op", "2", NewLeaf("read", "X"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.Equals(y) {
			b.Fatal("must differ")
		}
	}
}

// FuzzDeserialize runs arbitrary logs through Deserialize, which must not
// panic. A log it accepts must re-serialize to a log that deserializes to
// an equal item with the same hash, and Serialize of that item must give
// the same log again.
func FuzzDeserialize(f *testing.F) {
	x := NewLeaf("read", "X with spaces \"and quotes\"")
	y := NewLeaf("read", "y")
	f.Add(Serialize(NewItem("ba+*", "k=3", NewItem("t", "", x), y)))
	f.Add(Serialize(NewItem("t", "", NewItem("exp", "", NewLeaf("read", "X")))))
	f.Add(Serialize(NewItem("ba+*", "", NewItem("t", "", x), x)))
	rng := rand.New(rand.NewSource(1))
	nodes := []*Item{x, y}
	for i := 0; i < 12; i++ {
		nodes = append(nodes, NewItem(fmt.Sprintf("op%d", rng.Intn(4)), fmt.Sprint(rng.Intn(3)),
			nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]))
	}
	f.Add(Serialize(nodes[len(nodes)-1]))
	f.Add("0 read \"X\" \n0 read \"Y\" \n1 t \"\" 0\n")
	f.Fuzz(func(t *testing.T, log string) {
		it, err := Deserialize(log)
		if err != nil {
			return
		}
		again := Serialize(it)
		back, err := Deserialize(again)
		if err != nil {
			t.Fatalf("the re-serialized log does not parse: %v\n%s", err, again)
		}
		if !back.Equals(it) || back.Hash() != it.Hash() {
			t.Fatalf("the re-serialized log names another item:\n%s", again)
		}
		if s := Serialize(back); s != again {
			t.Fatalf("Serialize is not stable:\n%s\nthen\n%s", again, s)
		}
	})
}

// TestCandidateMatchesNewItem: a candidate sealed over 0 to 6 inputs (past
// its four inline slots) has NewItem's hash, height, opcode and data and
// equals it; Keep returns a distinct item with an identity of its own that
// refilling the candidate does not change; and resetting, filling and
// sealing over four inputs allocates nothing.
func TestCandidateMatchesNewItem(t *testing.T) {
	var ins []*Item
	for i := 0; i < 6; i++ {
		ins = append(ins, NewItem("rand", fmt.Sprintf("seed=%d", i), NewLeaf("read", "X")))
	}
	var c Candidate
	for n := 0; n <= len(ins); n++ {
		want := NewItem("ba+*", "k=v", ins[:n]...)
		c.Reset(Prefix("ba+*", "k=v"), "ba+*", "k=v")
		for _, in := range ins[:n] {
			c.Add(in)
		}
		got := c.Seal()
		if got.Hash() != want.Hash() || got.Height() != want.Height() || got.Opcode() != "ba+*" || got.Data() != "k=v" || !got.Equals(want) {
			t.Fatalf("%d inputs: candidate %016x/%d, NewItem %016x/%d", n, got.Hash(), got.Height(), want.Hash(), want.Height())
		}
		kept := c.Keep()
		if kept == got || kept.ID() == 0 || kept.ID() == want.ID() || !kept.Equals(want) || len(kept.Inputs()) != n {
			t.Fatalf("%d inputs: Keep returned %p (candidate %p), id %d", n, kept, got, kept.ID())
		}
		c.Reset(Prefix("exp", ""), "exp", "")
		c.Add(kept)
		c.Seal()
		if kept.Hash() != want.Hash() || kept.Opcode() != "ba+*" || !kept.Equals(want) {
			t.Fatalf("%d inputs: refilling the candidate changed the kept item", n)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset(Prefix("+", ""), "+", "")
		for _, in := range ins[:4] {
			c.Add(in)
		}
		c.Seal()
	})
	if allocs != 0 {
		t.Fatalf("filling a candidate allocates %v objects, want 0", allocs)
	}
}
