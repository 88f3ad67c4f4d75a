package lineage

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEquals is the queue-and-map comparison Equals replaced, kept as the
// oracle: Equals must give the same answer on every pair.
func refEquals(it, other *Item) bool {
	if it == other {
		return true
	}
	if it == nil || other == nil {
		return false
	}
	if it.hash != other.hash || it.height != other.height {
		return false
	}
	seen := make(map[pairKey]struct{})
	queue := [][2]*Item{{it, other}}
	for len(queue) > 0 {
		a, b := queue[0][0], queue[0][1]
		queue = queue[1:]
		if a == b {
			continue
		}
		key := pairKey{a.id, b.id}
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		if a.hash != b.hash || a.height != b.height ||
			a.opcode != b.opcode || a.data != b.data ||
			len(a.inputs) != len(b.inputs) {
			return false
		}
		for i := range a.inputs {
			queue = append(queue, [2]*Item{a.inputs[i], b.inputs[i]})
		}
	}
	return true
}

// recipe is a random DAG description: node i reads earlier nodes only.
type recipe struct {
	op, data []string
	ins      [][]int
}

// randomRecipe draws a DAG of n nodes; inputs are picked from earlier nodes
// with a bias to recent ones (depth) and a chance of any (sharing).
func randomRecipe(r *rand.Rand, n int) recipe {
	rc := recipe{op: make([]string, n), data: make([]string, n), ins: make([][]int, n)}
	for i := 0; i < n; i++ {
		rc.op[i] = fmt.Sprintf("op%d", r.Intn(4))
		rc.data[i] = fmt.Sprint(r.Intn(3))
		if i == 0 {
			continue
		}
		k := r.Intn(5)
		for j := 0; j < k; j++ {
			src := i - 1 - r.Intn(min(i, 3))
			if r.Intn(3) == 0 {
				src = r.Intn(i)
			}
			rc.ins[i] = append(rc.ins[i], src)
		}
	}
	return rc
}

// build instantiates a recipe. Node i is taken from share (the other side of
// the pair) instead of built when reuse(i) says so.
func (rc recipe) build(share []*Item, reuse func(int) bool) []*Item {
	nodes := make([]*Item, len(rc.op))
	for i := range rc.op {
		if share != nil && reuse(i) {
			nodes[i] = share[i]
			continue
		}
		ins := make([]*Item, len(rc.ins[i]))
		for j, src := range rc.ins[i] {
			ins[j] = nodes[src]
		}
		nodes[i] = NewItem(rc.op[i], rc.data[i], ins...)
	}
	return nodes
}

// TestEqualsMatchesReference compares Equals with refEquals on seeded random
// DAG pairs of 1-300 nodes: object-distinct but structurally equal twins,
// twins that share random sub-DAGs, twins that differ at one node (a forced
// hash collision, so only the walk can find it), and identical and
// compacted roots.
func TestEqualsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20251016))
	check := func(what string, a, b *Item) bool {
		t.Helper()
		got, want := a.Equals(b), refEquals(a, b)
		if got != want {
			t.Fatalf("%s: Equals = %v, reference = %v (root %s, height %d)", what, got, want, a.opcode, a.height)
		}
		if got2 := b.Equals(a); got2 != want {
			t.Fatalf("%s: reversed Equals = %v, reference = %v", what, got2, want)
		}
		return got
	}
	trues, falses := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(300)
		rc := randomRecipe(r, n)
		a := rc.build(nil, nil)
		root := a[n-1]

		// Structurally equal, no shared objects.
		b := rc.build(nil, nil)
		if !check("distinct twin", root, b[n-1]) {
			t.Fatalf("trial %d: a rebuilt DAG of %d nodes must be equal", trial, n)
		}
		trues++

		// Structurally equal, sharing random sub-DAGs with a.
		p := r.Intn(4)
		s := rc.build(a, func(int) bool { return r.Intn(4) < p })
		check("shared twin", root, s[n-1])

		// Identical and compacted roots.
		check("identical", root, root)
		check("compacted", root, NewItem(root.opcode, root.data, root.inputs...))
		if k := len(root.inputs); k >= 2 {
			// Compacted but for the last input: a twin that differs below
			// its colliding hash, so the identity fast path must not answer.
			ins := append([]*Item(nil), root.inputs...)
			last := ins[k-1]
			twin := NewItem(last.opcode, last.data, last.inputs...)
			twin.data += "x"
			ins[k-1] = twin
			if check("compacted but the last input", root, NewItem(root.opcode, root.data, ins...)) {
				t.Fatalf("trial %d: a root over a differing input must not be equal", trial)
			}
		}

		// One node differs at a random depth, its hash left colliding.
		c := rc.build(nil, nil)
		victim := c[r.Intn(n)]
		switch r.Intn(3) {
		case 0:
			victim.data += "x"
		case 1:
			victim.opcode += "x"
		default:
			if len(victim.inputs) >= 2 && victim.inputs[0] != victim.inputs[1] {
				victim.inputs[0], victim.inputs[1] = victim.inputs[1], victim.inputs[0]
			} else {
				victim.data += "y"
			}
		}
		if check("one node differs", root, c[n-1]) {
			trues++
		} else {
			falses++
		}
	}
	if falses < 100 {
		t.Fatalf("only %d unequal pairs reached the walk; the generator is too shallow", falses)
	}
	t.Logf("%d equal, %d unequal pairs", trues, falses)
}

// chain builds a linear DAG of n nodes over its own leaf.
func chain(n int) *Item {
	cur := NewLeaf("read", "X")
	for i := 1; i < n; i++ {
		cur = NewItem("op", fmt.Sprint(i), cur)
	}
	return cur
}

// TestEqualsAllocatesNothingOnStack: a compacted hit and a 32-node walk stay
// within the stack arrays.
func TestEqualsAllocatesNothingOnStack(t *testing.T) {
	x, y := NewLeaf("read", "X"), NewLeaf("read", "Y")
	a, b := NewItem("ba+*", "", x, y), NewItem("ba+*", "", x, y)
	c, d := chain(equalsStack), chain(equalsStack)
	for name, pair := range map[string][2]*Item{"compacted": {a, b}, "deep32": {c, d}} {
		if n := testing.AllocsPerRun(100, func() {
			if !pair[0].Equals(pair[1]) {
				t.Fatal("must be equal")
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per Equals, want 0", name, n)
		}
	}
}

// TestItemsShareTheirInputsAllocation: an item of up to three inputs, and a
// Trace over known names, is one allocation.
func TestItemsShareTheirInputsAllocation(t *testing.T) {
	x, y, z := NewLeaf("read", "X"), NewLeaf("read", "Y"), NewLeaf("read", "Z")
	for k, ins := range [][]*Item{{x}, {x, y}, {x, y, z}} {
		if n := testing.AllocsPerRun(100, func() { NewItem("op", "", ins...) }); n != 1 {
			t.Errorf("%d inputs: %v allocs per item, want 1", k+1, n)
		}
	}
	m := NewMap()
	m.TraceItem("a", x)
	m.TraceItem("b", y)
	names := []string{"a", "b"}
	if n := testing.AllocsPerRun(100, func() { m.Trace("out", "ba+*", "", names...) }); n != 1 {
		t.Errorf("Trace: %v allocs, want 1", n)
	}
}

func BenchmarkEquals(b *testing.B) {
	x, y := NewLeaf("read", "X"), NewLeaf("read", "Y")
	pairs := []struct {
		name string
		a, b *Item
	}{
		{"compacted", NewItem("ba+*", "", x, y), NewItem("ba+*", "", x, y)},
		{"deep32", chain(equalsStack), chain(equalsStack)},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !p.a.Equals(p.b) {
					b.Fatal("must be equal")
				}
			}
		})
	}
}
