package data

import (
	"math"
	"testing"
)

func fusedEq(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: cell %d = %v (%x), want %v (%x)", label, i,
				got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func TestParseFusedValid(t *testing.T) {
	fp, err := ParseFused("+($0,$1);exp(@0);sigmoid(@1)")
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Steps) != 3 || fp.Leaves != 2 {
		t.Fatalf("steps %d leaves %d", len(fp.Steps), fp.Leaves)
	}
	if fp.Steps[0].Op != "+" || fp.Steps[2].Op != "sigmoid" {
		t.Fatalf("ops %q, %q", fp.Steps[0].Op, fp.Steps[2].Op)
	}
}

func TestParseFusedPowDefault(t *testing.T) {
	fp, err := ParseFused("pow($0)")
	if err != nil {
		t.Fatal(err)
	}
	if fp.Steps[0].P != 2 {
		t.Fatalf("pow default P = %v, want 2 (matching the kernel's attr default)", fp.Steps[0].P)
	}
	fp, err = ParseFused("pow{p=3}($0)")
	if err != nil {
		t.Fatal(err)
	}
	if fp.Steps[0].P != 3 || fp.Steps[0].PStr != "3" {
		t.Fatalf("pow P=%v PStr=%q", fp.Steps[0].P, fp.Steps[0].PStr)
	}
}

// rejectedFused are programs ParseFused must refuse.
var rejectedFused = []string{
	"",
	"frobnicate($0)",
	"+($0)",         // wrong arity
	"exp($0,$1)",    // wrong arity
	"+($0,@1)",      // forward step reference
	"+($0,@0)",      // self reference
	"exp(%0)",       // bad operand syntax
	"+($0,$1);;",    // empty step
	"+{p=2}($0,$1)", // attr on non-pow op
}

func TestParseFusedRejects(t *testing.T) {
	for _, bad := range rejectedFused {
		if _, err := ParseFused(bad); err == nil {
			t.Errorf("ParseFused(%q) accepted", bad)
		}
	}
}

// TestEvalFusedMatchesKernels runs fused programs against the equivalent
// kernel compositions: results must be bitwise identical, including the
// broadcast variants the fast path handles via broadcastIndex.
func TestEvalFusedMatchesKernels(t *testing.T) {
	X := RandNorm(13, 7, 0, 1, 5)
	Y := RandNorm(13, 7, 1, 2, 6)
	R := RandNorm(1, 7, 0, 1, 7)
	C := RandNorm(13, 1, 0, 1, 8)
	S := RandNorm(1, 1, 0, 1, 9)

	cases := []struct {
		name   string
		prog   string
		leaves []*Matrix
		want   func() *Matrix
	}{
		{"chain", "+($0,$1);exp(@0);sigmoid(@1)", []*Matrix{X, Y},
			func() *Matrix { return Sigmoid(Exp(Add(X, Y))) }},
		{"row-broadcast", "*($0,$1);relu(@0)", []*Matrix{X, R},
			func() *Matrix { return ReLU(Mul(X, R)) }},
		{"col-broadcast", "-($0,$1);abs(@0);sqrt(@1)", []*Matrix{X, C},
			func() *Matrix { return Sqrt(Abs(Sub(X, C))) }},
		{"scalar-broadcast", "/($0,$1);log(@0)", []*Matrix{X, S},
			func() *Matrix { return Log(Div(X, S)) }},
		{"swapped-args", "-($0,$1)", []*Matrix{R, X},
			func() *Matrix { return Sub(R, X) }},
		{"compare", ">($0,$1);min(@0,$0);max(@1,$1)", []*Matrix{X, Y},
			func() *Matrix { return MaxElem(MinElem(Greater(X, Y), X), Y) }},
		{"pow", "pow{p=3}($0);pow(@0)", []*Matrix{X},
			func() *Matrix { return PowScalar(PowScalar(X, 3), 2) }},
		{"diamond", "exp($0);log($0);+(@0,@1)", []*Matrix{X},
			func() *Matrix { return Add(Exp(X), Log(X)) }},
		// Non-uniform step shapes (vector intermediate) take the stepwise
		// fallback; results must still match exactly.
		{"vector-intermediate", "exp($1);*($0,@0)", []*Matrix{X, R},
			func() *Matrix { return Mul(X, Exp(R)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fp, err := ParseFused(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want()
			fusedEq(t, EvalFused(fp, tc.leaves, nil), want, "allocated")
			fusedEq(t, EvalFused(fp, tc.leaves, New(want.Rows, want.Cols)), want, "dst")
		})
	}
}

// TestEvalFusedParallelismInvariant checks bitwise identity across kernel
// fan-outs, with a matrix large enough that parallelFor actually shards.
func TestEvalFusedParallelismInvariant(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	X := RandNorm(600, 500, 0, 1, 11)
	R := RandNorm(1, 500, 0, 1, 12)
	fp, err := ParseFused("*($0,$1);sigmoid(@0);+(@1,$0)")
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(1)
	want := EvalFused(fp, []*Matrix{X, R}, nil)
	for _, par := range []int{4, 8} {
		SetParallelism(par)
		fusedEq(t, EvalFused(fp, []*Matrix{X, R}, nil), want, "parallel")
	}
}

// TestEvalFusedDst checks the caller-provided output: a dst of the output's
// cell count is written (and reshaped) to a result bitwise equal to the
// allocating one, whatever it held before; a dst of another cell count is
// left untouched; and the stepwise fallback for non-uniform shapes ignores
// dst altogether.
func TestEvalFusedDst(t *testing.T) {
	X := RandNorm(32, 32, 0, 1, 3)
	R := RandNorm(1, 32, 0, 1, 4)
	garbage := func(rows, cols int) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
		return m
	}
	untouched := func(m *Matrix, label string) {
		t.Helper()
		for i, v := range m.Data {
			if !math.IsNaN(v) {
				t.Fatalf("%s: dst cell %d written (%v)", label, i, v)
			}
		}
	}

	fp, err := ParseFused("exp($0);sigmoid(@0)")
	if err != nil {
		t.Fatal(err)
	}
	want := EvalFused(fp, []*Matrix{X}, nil)
	dst := garbage(64, 16) // same cell count, another shape
	if got := EvalFused(fp, []*Matrix{X}, dst); got != dst {
		t.Errorf("uniform program: result is not dst")
	}
	fusedEq(t, dst, want, "dst")

	wrong := garbage(32, 31)
	if got := EvalFused(fp, []*Matrix{X}, wrong); got == wrong {
		t.Errorf("wrong cell count: result is dst")
	} else {
		fusedEq(t, got, want, "wrong-size dst")
	}
	untouched(wrong, "wrong cell count")

	// exp of the 1x32 leaf is a vector intermediate: stepwise path.
	fp, err = ParseFused("exp($1);*($0,@0)")
	if err != nil {
		t.Fatal(err)
	}
	want = Mul(X, Exp(R))
	dst = garbage(32, 32)
	if got := EvalFused(fp, []*Matrix{X, R}, dst); got == dst {
		t.Errorf("stepwise program: result is dst")
	} else {
		fusedEq(t, got, want, "stepwise")
	}
	untouched(dst, "stepwise")
}

// fuzzLeaf returns a rows x cols leaf whose cells mix ordinary values with
// zeros, negatives, infinities and NaN, so that log, sqrt, division and the
// comparisons meet their edge cases.
func fuzzLeaf(rows, cols int, seed int64) *Matrix {
	m := RandNorm(rows, cols, 0, 2, seed)
	specials := []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range m.Data {
		if i%3 == 1 {
			m.Data[i] = specials[(i/3+int(seed))%len(specials)]
		}
	}
	return m
}

// sameBits reports whether two cells are bitwise equal, counting any two
// NaNs as equal: an operation on two NaN operands may keep either payload.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// evalOrNil runs eval, turning a panic (operands whose shapes do not
// broadcast) into a nil result.
func evalOrNil(eval func() *Matrix) (m *Matrix) {
	defer func() {
		if recover() != nil {
			m = nil
		}
	}()
	return eval()
}

// FuzzParseFused runs arbitrary text through ParseFused, which must not
// panic. A program it accepts over at most four leaves must evaluate, on
// leaves of the output shape, a row, a column or a scalar as shapes picks
// (two bits per leaf), to the same cells under EvalFused as under the
// stepwise kernels, bit for bit, and must panic under both or neither.
func FuzzParseFused(f *testing.F) {
	for _, prog := range []string{
		"+($0,$1);exp(@0);sigmoid(@1)",
		"*($0,$1);relu(@0)",
		"-($0,$1);abs(@0);sqrt(@1)",
		"/($0,$1);log(@0)",
		"-($0,$1)",
		">($0,$1);min(@0,$0);max(@1,$1)",
		"pow{p=3}($0);pow(@0)",
		"exp($0);log($0);+(@0,@1)",
		"exp($1);*($0,@0)",
		"*($0,$1);sigmoid(@0);+(@1,$0)",
		"exp($0);sigmoid(@0)",
		"pow($0)",
		"<($0,$3);max(@0,$2);/(@1,$1)",
	} {
		for _, shapes := range []uint8{0x00, 0x1b, 0xe4} {
			f.Add(prog, shapes)
		}
	}
	for _, bad := range rejectedFused {
		f.Add(bad, uint8(0))
	}
	const rows, cols = 5, 3
	f.Fuzz(func(t *testing.T, prog string, shapes uint8) {
		fp, err := ParseFused(prog)
		if err != nil || fp.Leaves > 4 {
			return
		}
		leaves := make([]*Matrix, fp.Leaves)
		for i := range leaves {
			r, c := rows, cols
			switch shapes >> (2 * i) & 3 {
			case 1:
				r = 1
			case 2:
				c = 1
			case 3:
				r, c = 1, 1
			}
			leaves[i] = fuzzLeaf(r, c, int64(i+1))
		}
		fused := evalOrNil(func() *Matrix { return EvalFused(fp, leaves, nil) })
		stepwise := evalOrNil(func() *Matrix { return fp.evalStepwise(leaves) })
		if (fused == nil) != (stepwise == nil) {
			t.Fatalf("%q: EvalFused panicked %v, the stepwise kernels %v", prog, fused == nil, stepwise == nil)
		}
		if fused == nil {
			return
		}
		if fused.Rows != stepwise.Rows || fused.Cols != stepwise.Cols {
			t.Fatalf("%q: EvalFused gives %dx%d, the stepwise kernels %dx%d",
				prog, fused.Rows, fused.Cols, stepwise.Rows, stepwise.Cols)
		}
		for i := range fused.Data {
			if !sameBits(fused.Data[i], stepwise.Data[i]) {
				t.Fatalf("%q: cell %d is %v under EvalFused, %v under the stepwise kernels",
					prog, i, fused.Data[i], stepwise.Data[i])
			}
		}
	})
}

// BenchmarkFusedChain pins the fused chain's allocation property: a fused
// three-op chain that writes into its previous output (the dst argument)
// allocates at most 2 allocations per evaluation at steady state (the CI
// alloc gate enforces the ceiling). Serial parallelism keeps the
// measurement free of shard-closure noise.
func BenchmarkFusedChain(b *testing.B) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(1)
	X := RandNorm(256, 256, 0, 1, 3)
	Y := RandNorm(256, 256, 1, 2, 4)
	fp, err := ParseFused("+($0,$1);exp(@0);sigmoid(@1)")
	if err != nil {
		b.Fatal(err)
	}
	leaves := []*Matrix{X, Y}
	out := EvalFused(fp, leaves, nil) // warm the program's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = EvalFused(fp, leaves, out)
	}
}

// BenchmarkUnfusedChain is the same computation through the ordinary
// kernels — the before side of the fused/unfused allocation comparison.
func BenchmarkUnfusedChain(b *testing.B) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(1)
	X := RandNorm(256, 256, 0, 1, 3)
	Y := RandNorm(256, 256, 1, 2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sigmoid(Exp(Add(X, Y)))
	}
}
