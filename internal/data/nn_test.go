package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReLU(t *testing.T) {
	m := FromSlice(1, 4, []float64{-2, 0, 1, 3})
	want := FromSlice(1, 4, []float64{0, 0, 1, 3})
	if !AllClose(ReLU(m), want, 0) {
		t.Fatal("ReLU wrong")
	}
}

func TestReLUBackward(t *testing.T) {
	x := FromSlice(1, 3, []float64{-1, 2, 0})
	dout := FromSlice(1, 3, []float64{5, 5, 5})
	want := FromSlice(1, 3, []float64{0, 5, 0})
	if !AllClose(ReLUBackward(x, dout), want, 0) {
		t.Fatal("ReLUBackward wrong")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		m := RandNorm(3, 5, 0, 3, seed)
		s := Softmax(m)
		for i := 0; i < s.Rows; i++ {
			sum := 0.0
			for j := 0; j < s.Cols; j++ {
				v := s.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	m := FromSlice(1, 2, []float64{1000, 1001})
	s := Softmax(m)
	if math.IsNaN(s.At(0, 0)) || math.IsNaN(s.At(0, 1)) {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestAffine(t *testing.T) {
	x := FromSlice(2, 2, []float64{1, 2, 3, 4})
	w := Identity(2)
	b := FromSlice(1, 2, []float64{10, 20})
	got := Affine(x, w, b)
	want := FromSlice(2, 2, []float64{11, 22, 13, 24})
	if !AllClose(got, want, 0) {
		t.Fatalf("Affine = %v", got)
	}
}

func TestDropoutDeterministicAndScaled(t *testing.T) {
	m := Ones(100, 10)
	a := Dropout(m, 0.3, 7)
	b := Dropout(m, 0.3, 7)
	if !AllClose(a, b, 0) {
		t.Fatal("dropout not deterministic for same seed")
	}
	// Survivors are scaled by 1/(1-p); overall mean stays ~1.
	mean := Mean(a)
	if mean < 0.9 || mean > 1.1 {
		t.Fatalf("dropout mean = %g, want ~1", mean)
	}
	zero := 0
	for _, v := range a.Data {
		if v == 0 {
			zero++
		}
	}
	if zero < 200 || zero > 400 {
		t.Fatalf("dropped %d of 1000, want ~300", zero)
	}
}

func TestDropoutEdges(t *testing.T) {
	m := Ones(2, 2)
	if !AllClose(Dropout(m, 0, 1), m, 0) {
		t.Fatal("p=0 should be identity")
	}
	if !AllClose(Dropout(m, 1, 1), Zeros(2, 2), 0) {
		t.Fatal("p=1 should be all zeros")
	}
}

// refDropout is Dropout as it was before the generator was reused: a fresh
// rand.Rand per row. It stays as the reference the mask is pinned to.
func refDropout(a *Matrix, p float64, seed int64) *Matrix {
	scale := 1 / (1 - p)
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		rng := rand.New(rand.NewSource(rowSeed(seed, i)))
		for j := 0; j < a.Cols; j++ {
			if rng.Float64() >= p {
				out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] * scale
			}
		}
	}
	return out
}

// TestDropoutMatchesPerRowGenerators: re-seeding one generator per shard
// draws exactly what a fresh generator per row drew, at every parallelism, so
// the mask is still a pure function of (seed, row).
func TestDropoutMatchesPerRowGenerators(t *testing.T) {
	for _, sh := range []struct{ r, c int }{{1, 1}, {7, 3}, {512, 12}, {300, 129}, {0, 5}} {
		a := RandNorm(sh.r, sh.c, 0, 1, int64(sh.r+sh.c))
		for _, p := range []float64{0.1, 0.5, 0.9} {
			for _, seed := range []int64{0, 42, -7} {
				want := refDropout(a, p, seed)
				for _, par := range []int{1, 4, 8} {
					withParallelism(par, func() {
						if got := Dropout(a, p, seed); !bitwiseEqual(want, got) {
							t.Errorf("%dx%d p=%g seed=%d par=%d: mask differs from per-row generators", sh.r, sh.c, p, seed, par)
						}
					})
				}
			}
		}
	}
}

func TestConv2DKnown(t *testing.T) {
	// 1 image 1x3x3, identity-ish kernel 1x2x2.
	x := FromSlice(1, 9, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	w := FromSlice(1, 4, []float64{1, 0, 0, 1}) // sums main diagonal of each 2x2 patch
	out := Conv2D(x, w, 1, 3, 3, 2, 2, 1, 0)
	want := FromSlice(1, 4, []float64{6, 8, 12, 14})
	if !AllClose(out, want, 0) {
		t.Fatalf("Conv2D = %v, want %v", out, want)
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	x := Ones(1, 9) // 1x3x3 of ones
	w := Ones(1, 9) // one 3x3 ones filter
	// Same-padding: center output is full 9, corners see 4 cells.
	out := Conv2D(x, w, 1, 3, 3, 3, 3, 1, 1)
	if out.Cols != 9 {
		t.Fatalf("padded output cols = %d, want 9", out.Cols)
	}
	if out.Data[4] != 9 || out.Data[0] != 4 {
		t.Fatalf("padded conv wrong: center=%g corner=%g", out.Data[4], out.Data[0])
	}
	// Stride 2, no pad: single output.
	out2 := Conv2D(x, w, 1, 3, 3, 3, 3, 2, 0)
	if out2.Cols != 1 || out2.Data[0] != 9 {
		t.Fatalf("strided conv wrong: %v", out2)
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	// 2 input channels, 2 output filters; filter 1 picks channel 0,
	// filter 2 picks channel 1.
	x := FromSlice(1, 8, []float64{
		1, 2, 3, 4, // channel 0 (2x2)
		10, 20, 30, 40, // channel 1
	})
	w := FromSlice(2, 8, []float64{
		1, 1, 1, 1, 0, 0, 0, 0,
		0, 0, 0, 0, 1, 1, 1, 1,
	})
	out := Conv2D(x, w, 2, 2, 2, 2, 2, 1, 0)
	want := FromSlice(1, 2, []float64{10, 100})
	if !AllClose(out, want, 0) {
		t.Fatalf("multi-channel conv = %v, want %v", out, want)
	}
}

func TestMaxPool(t *testing.T) {
	x := FromSlice(1, 16, []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out := MaxPool(x, 1, 4, 4, 2, 2, 2)
	want := FromSlice(1, 4, []float64{6, 8, 14, 16})
	if !AllClose(out, want, 0) {
		t.Fatalf("MaxPool = %v, want %v", out, want)
	}
}

// Property: conv with an all-zero filter yields zeros; ReLU is idempotent.
func TestNNProperties(t *testing.T) {
	f := func(seed int64) bool {
		x := RandNorm(2, 16, 0, 1, seed) // 2 images 1x4x4
		w := Zeros(1, 4)
		out := Conv2D(x, w, 1, 4, 4, 2, 2, 1, 0)
		for _, v := range out.Data {
			if v != 0 {
				return false
			}
		}
		r := ReLU(x)
		return AllClose(ReLU(r), r, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
