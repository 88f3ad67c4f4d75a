package data

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// refDropout is the mask's definition: a fresh rand.Rand per row, seeded
// with rowSeed(seed, row).
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

// TestDropoutMatchesPerRowGenerators: the closed-form streams draw exactly
// what a fresh generator per row drew, at every parallelism, so the mask is
// still a pure function of (seed, row). The widths straddle the draw (273)
// after which the generator reads back its own sums and the register length
// (607) after which it wraps.
func TestDropoutMatchesPerRowGenerators(t *testing.T) {
	shapes := []struct{ r, c int }{{1, 1}, {7, 3}, {512, 12}, {300, 129}, {0, 5},
		{40, 1}, {64, 16}, {9, 272}, {9, 273}, {9, 274}, {5, 607}, {5, 608}}
	seeds := []int64{0, 42, -7, int32max, -int32max, 2 * int32max, math.MinInt64, math.MaxInt64}
	for _, sh := range shapes {
		a := RandNorm(sh.r, sh.c, 0, 1, int64(sh.r+sh.c))
		for _, p := range []float64{0.1, 0.5, 0.9} {
			for _, seed := range seeds {
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

// TestRandStreamMatchesMathRand: for 10 000 seeds — the reduction's edge
// cases and then random ones — the first 1 300 draws (more than two turns of
// the 607-word register) equal those of rand.New(rand.NewSource(seed)).
func TestRandStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max - 1, int32max, int32max + 1, -int32max,
		2 * int32max, rngSeedZero, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(1))
	for len(seeds) < 10000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var rs randStream
	for _, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		rs.reset(seed)
		for k := 0; k < 1300; k++ {
			if got, want := rs.float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: %v, want %v", seed, k, got, want)
			}
		}
	}
}

// TestRandStreamRetriesOne: a draw whose division rounds up to 1 is
// discarded and the next one returned, as rand.Rand.Float64 does.
func TestRandStreamRetriesOne(t *testing.T) {
	var next randStream
	next.reset(5)
	next.int63()
	want := float64(next.int63()) / (1 << 63)

	var rs randStream
	rs.reset(5)
	rs.word(rngLen - rngTap - 1)
	rs.word(rngLen - 1)
	rs.vec[rngLen-rngTap-1], rs.vec[rngLen-1] = rngMask, 0 // first draw: 2^63-1
	if got := rs.float64(); got != want {
		t.Fatalf("float64 after a draw of 2^63-1 = %v, want the next draw %v", got, want)
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

// refConv2D is Conv2D as a per-pixel gather: each output cell sums its
// taps in ascending (ci, ky, kx), skipping those in the padding. It defines
// the per-cell contract the blocked kernel is held to.
func refConv2D(x, w *Matrix, cIn, h, width, kH, kW, stride, pad int) *Matrix {
	cOut := w.Rows
	outH := (h+2*pad-kH)/stride + 1
	outW := (width+2*pad-kW)/stride + 1
	out := New(x.Rows, cOut*outH*outW)
	for n := 0; n < x.Rows; n++ {
		img := x.Data[n*x.Cols : (n+1)*x.Cols]
		dst := out.Data[n*out.Cols : (n+1)*out.Cols]
		for co := 0; co < cOut; co++ {
			filt := w.Data[co*w.Cols : (co+1)*w.Cols]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					sum := 0.0
					for ci := 0; ci < cIn; ci++ {
						for ky := 0; ky < kH; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kW; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= width {
									continue
								}
								sum += img[ci*h*width+iy*width+ix] * filt[ci*kH*kW+ky*kW+kx]
							}
						}
					}
					dst[co*outH*outW+oy*outW+ox] = sum
				}
			}
		}
	}
	return out
}

// laced returns a random matrix with one of specials planted in about one
// cell in five.
func laced(r, c int, seed int64, specials []float64) *Matrix {
	m := RandNorm(r, c, 0, 1, seed)
	pick := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		if pick.Intn(5) == 0 {
			m.Data[i] = specials[pick.Intn(len(specials))]
		}
	}
	return m
}

// sameResult reports whether a and b hold the same bits in every cell, a
// NaN matching any NaN when nanPayloads is set.
func sameResult(a, b *Matrix, nanPayloads bool) bool {
	if !nanPayloads {
		return bitwiseEqual(a, b)
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) && !(math.IsNaN(v) && math.IsNaN(b.Data[i])) {
			return false
		}
	}
	return true
}

// TestConv2DMatchesReference holds the blocked kernel to refConv2D bit for
// bit: channel tails (cOut 1, 5, 9), 1x1 to 5x5 and non-square kernels,
// strides 1-3, every pad from 0 to the kernel size (so some taps fall
// entirely in the padding), non-square images, at parallelism 1, 4 and 8,
// on plain operands, on operands laced with ±Inf, 0 and −0 (whose products
// and sums make NaNs, all of the one payload x86 generates), and on
// operands also laced with math.NaN(). Only in the last case may two NaNs
// of different payloads meet in a cell, and which one survives depends on
// the operand order the compiler gives a commutative add or multiply, not
// on the term order: there a NaN cell need only be NaN.
func TestConv2DMatchesReference(t *testing.T) {
	const cIn, images = 3, 6
	infZero := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	laces := []struct {
		name        string
		specials    []float64
		nanPayloads bool
	}{{"plain", nil, false}, {"inf-zero", infZero, false}, {"nan", append(infZero, math.NaN()), true}}
	type kern struct{ kH, kW int }
	for _, img := range []struct{ h, w int }{{7, 9}, {5, 4}} {
		for _, k := range []kern{{1, 1}, {3, 3}, {5, 5}, {2, 3}} {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad <= max(k.kH, k.kW); pad++ {
					if k.kH > img.h+2*pad || k.kW > img.w+2*pad {
						continue
					}
					for _, cOut := range []int{1, 5, 9} {
						for _, l := range laces {
							seed := int64(img.h*1000 + k.kH*100 + k.kW*10 + stride + pad*7 + cOut*13)
							x := RandNorm(images, cIn*img.h*img.w, 0, 1, seed)
							w := RandNorm(cOut, cIn*k.kH*k.kW, 0, 1, seed+1)
							if l.specials != nil {
								x, w = laced(images, cIn*img.h*img.w, seed, l.specials), laced(cOut, cIn*k.kH*k.kW, seed+1, l.specials)
							}
							want := refConv2D(x, w, cIn, img.h, img.w, k.kH, k.kW, stride, pad)
							for _, par := range []int{1, 4, 8} {
								withParallelism(par, func() {
									got := Conv2D(x, w, cIn, img.h, img.w, k.kH, k.kW, stride, pad)
									if !sameResult(want, got, l.nanPayloads) {
										t.Errorf("%dx%d image, %dx%d kernel, stride %d, pad %d, cOut %d, %s, par %d: differs from the reference",
											img.h, img.w, k.kH, k.kW, stride, pad, cOut, l.name, par)
									}
								})
							}
						}
					}
				}
			}
		}
	}
	// One batch large enough to shard at every parallelism.
	x, w := laced(16, 3*16*16, 11, infZero), laced(9, 3*5*5, 12, infZero)
	want := refConv2D(x, w, 3, 16, 16, 5, 5, 1, 2)
	for _, par := range []int{1, 4, 8} {
		withParallelism(par, func() {
			if got := Conv2D(x, w, 3, 16, 16, 5, 5, 1, 2); !bitwiseEqual(want, got) {
				t.Errorf("16 images 3x16x16, 9 filters 5x5, par %d: differs from the reference", par)
			}
		})
	}
}

// TestConv2DRejectsGeometry: a stride below 1, a negative pad or a kernel
// larger than the padded image panics with a message naming the geometry,
// instead of dividing by zero or sizing a negative output.
func TestConv2DRejectsGeometry(t *testing.T) {
	cases := []struct {
		name                             string
		h, w, kH, kW, stride, pad, xCols int
	}{
		{"stride 0", 4, 4, 3, 3, 0, 0, 16},
		{"stride -1", 4, 4, 3, 3, -1, 0, 16},
		{"pad -1", 4, 4, 3, 3, 1, -1, 16},
		{"kernel taller than the padded image", 2, 6, 5, 3, 1, 1, 12},
		{"kernel wider than the padded image", 6, 2, 3, 5, 3, 1, 12},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "conv2d geometry") || !strings.Contains(msg, fmt.Sprintf("stride %d, pad %d", c.stride, c.pad)) {
					t.Errorf("%s: panic %v, want one naming the geometry", c.name, r)
				}
			}()
			Conv2D(Ones(1, c.xCols), Ones(1, c.kH*c.kW), 1, c.h, c.w, c.kH, c.kW, c.stride, c.pad)
		}()
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
