package data

import (
	"fmt"
	"math"
	"math/rand"
)

// ReLU returns max(0, a) elementwise.
func ReLU(a *Matrix) *Matrix {
	return Map(a, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// ReLUBackward masks upstream gradients dout where the forward input x <= 0.
func ReLUBackward(x, dout *Matrix) *Matrix {
	if x.Rows != dout.Rows || x.Cols != dout.Cols {
		panic("data: relu backward shape mismatch")
	}
	out := New(x.Rows, x.Cols)
	parallelFor(len(x.Data), float64(len(x.Data)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x.Data[i] > 0 {
				out.Data[i] = dout.Data[i]
			}
		}
	})
	return out
}

// Softmax returns the row-wise softmax with the usual max-shift for
// numerical stability, sharded over rows.
func Softmax(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	parallelFor(a.Rows, 4*float64(a.Cells()), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			maxV := math.Inf(-1)
			for j := 0; j < a.Cols; j++ {
				if v := a.At(i, j); v > maxV {
					maxV = v
				}
			}
			sum := 0.0
			for j := 0; j < a.Cols; j++ {
				e := math.Exp(a.At(i, j) - maxV)
				out.Set(i, j, e)
				sum += e
			}
			for j := 0; j < a.Cols; j++ {
				out.Set(i, j, out.At(i, j)/sum)
			}
		}
	})
	return out
}

// Affine returns x*w + b where b is a 1 x n bias row.
func Affine(x, w, b *Matrix) *Matrix { return Add(MatMul(x, w), b) }

// Dropout zeroes cells with probability p and scales survivors by 1/(1-p)
// (inverted dropout). Deterministic given the seed: each row draws from a
// generator seeded by (seed, row), so the mask is a pure function of the seed
// and the cell position — identical whether rows are processed serially or
// sharded across workers. A shard re-seeds one generator per row instead of
// allocating one (Seed resets the whole 607-word state, so the draws are
// those of a fresh generator).
func Dropout(a *Matrix, p float64, seed int64) *Matrix {
	if p <= 0 {
		return a.Clone()
	}
	if p >= 1 {
		return Zeros(a.Rows, a.Cols)
	}
	scale := 1 / (1 - p)
	out := New(a.Rows, a.Cols)
	parallelFor(a.Rows, 2*float64(a.Cells()), func(lo, hi int) {
		rng := rand.New(rand.NewSource(0))
		for i := lo; i < hi; i++ {
			rng.Seed(rowSeed(seed, i))
			row := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*a.Cols : (i+1)*a.Cols]
			for j, v := range row {
				if rng.Float64() >= p {
					orow[j] = v * scale
				}
			}
		}
	})
	return out
}

// rowSeed derives a per-row RNG seed from the op seed via a splitmix-style
// mix, decorrelating adjacent rows.
func rowSeed(seed int64, row int) int64 {
	z := uint64(seed) + uint64(row+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Conv2D performs a direct valid 2-D convolution with stride and zero
// padding. Input layout: each row of x is one image flattened as
// [cIn][h][w]; each row of w is one filter flattened as [cIn][kH][kW].
// The output rows are flattened as [cOut][outH][outW].
func Conv2D(x *Matrix, w *Matrix, cIn, h, width, kH, kW, stride, pad int) *Matrix {
	if x.Cols != cIn*h*width {
		panic(fmt.Sprintf("data: conv2d input cols %d != %d*%d*%d", x.Cols, cIn, h, width))
	}
	cOut := w.Rows
	if w.Cols != cIn*kH*kW {
		panic(fmt.Sprintf("data: conv2d filter cols %d != %d*%d*%d", w.Cols, cIn, kH, kW))
	}
	outH := (h+2*pad-kH)/stride + 1
	outW := (width+2*pad-kW)/stride + 1
	out := New(x.Rows, cOut*outH*outW)
	flops := 2 * float64(x.Rows) * float64(cOut) * float64(outH) * float64(outW) *
		float64(cIn) * float64(kH) * float64(kW)
	parallelFor(x.Rows, flops, func(nLo, nHi int) {
		convRows(x, w, out, nLo, nHi, cIn, h, width, kH, kW, stride, pad, cOut, outH, outW)
	})
	return out
}

// convRows computes the convolution for the batch rows [nLo, nHi); rows are
// independent images, so workers write disjoint output rows.
func convRows(x, w, out *Matrix, nLo, nHi, cIn, h, width, kH, kW, stride, pad, cOut, outH, outW int) {
	for n := nLo; n < nHi; n++ {
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
}

// MaxPool performs 2-D max pooling over images laid out as in Conv2D,
// sharded over batch rows.
func MaxPool(x *Matrix, c, h, width, poolH, poolW, stride int) *Matrix {
	outH := (h-poolH)/stride + 1
	outW := (width-poolW)/stride + 1
	out := New(x.Rows, c*outH*outW)
	work := float64(x.Rows) * float64(c) * float64(outH) * float64(outW) *
		float64(poolH) * float64(poolW)
	parallelFor(x.Rows, work, func(nLo, nHi int) {
		poolRows(x, out, nLo, nHi, c, h, width, poolH, poolW, stride, outH, outW)
	})
	return out
}

// poolRows pools the batch rows [nLo, nHi).
func poolRows(x, out *Matrix, nLo, nHi, c, h, width, poolH, poolW, stride, outH, outW int) {
	for n := nLo; n < nHi; n++ {
		img := x.Data[n*x.Cols : (n+1)*x.Cols]
		dst := out.Data[n*out.Cols : (n+1)*out.Cols]
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := math.Inf(-1)
					for ky := 0; ky < poolH; ky++ {
						for kx := 0; kx < poolW; kx++ {
							v := img[ci*h*width+(oy*stride+ky)*width+(ox*stride+kx)]
							if v > best {
								best = v
							}
						}
					}
					dst[ci*outH*outW+oy*outW+ox] = best
				}
			}
		}
	}
}
