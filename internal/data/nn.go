package data

import (
	"fmt"
	"math"
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
// (inverted dropout). Deterministic given the seed: cell (i, j) survives iff
// the j-th Float64 of rand.New(rand.NewSource(rowSeed(seed, i))) is >= p, so
// the mask is a pure function of the seed and the cell position — identical
// whether rows are processed serially or sharded across workers. A shard
// computes each row's stream in closed form (randStream) instead of seeding
// a source.
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
		var rng randStream
		for i := lo; i < hi; i++ {
			rng.reset(rowSeed(seed, i))
			row := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*a.Cols : (i+1)*a.Cols]
			for j, v := range row {
				if rng.float64() >= p {
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
//
// Per-cell contract: an output cell starts at +0 and adds its terms
// image*filter in ascending (ci, ky, kx); a tap that falls in the padding
// is skipped, never added as zero. The kernel scatters instead of
// gathering — each tap adds a run of one image row into the output rows of
// four channels — but every cell still takes the same additions in the
// same order, so every result bit, the sign of a zero and every ±Inf and
// NaN included, is that of the per-pixel loop kept as refConv2D in
// nn_test.go, at every parallelism. Only which payload a NaN carries when
// two NaNs meet is not part of the contract (DESIGN.md §6 item 7).
func Conv2D(x *Matrix, w *Matrix, cIn, h, width, kH, kW, stride, pad int) *Matrix {
	if x.Cols != cIn*h*width {
		panic(fmt.Sprintf("data: conv2d input cols %d != %d*%d*%d", x.Cols, cIn, h, width))
	}
	cOut := w.Rows
	if w.Cols != cIn*kH*kW {
		panic(fmt.Sprintf("data: conv2d filter cols %d != %d*%d*%d", w.Cols, cIn, kH, kW))
	}
	if stride < 1 || pad < 0 || kH < 1 || kW < 1 || kH > h+2*pad || kW > width+2*pad {
		panic(fmt.Sprintf("data: conv2d geometry: %dx%d kernel, stride %d, pad %d over a %dx%d image",
			kH, kW, stride, pad, h, width))
	}
	g := convGeom{cIn: cIn, h: h, w: width, kH: kH, kW: kW, stride: stride, pad: pad,
		outH: (h+2*pad-kH)/stride + 1, outW: (width+2*pad-kW)/stride + 1}
	plane := g.outH * g.outW
	out := New(x.Rows, cOut*plane)
	flops := 2 * float64(x.Rows) * float64(cOut) * float64(plane) *
		float64(cIn) * float64(kH) * float64(kW)
	parallelFor(x.Rows, flops, func(nLo, nHi int) {
		// Images are independent, so workers write disjoint output rows.
		for n := nLo; n < nHi; n++ {
			img := x.Data[n*x.Cols : (n+1)*x.Cols]
			dst := out.Data[n*out.Cols : (n+1)*out.Cols]
			co := 0
			for ; co+4 <= cOut; co += 4 {
				g.scatter(img, w.Data[co*w.Cols:(co+4)*w.Cols], dst[co*plane:(co+4)*plane], 4)
			}
			for ; co < cOut; co++ {
				g.scatter(img, w.Data[co*w.Cols:(co+1)*w.Cols], dst[co*plane:(co+1)*plane], 1)
			}
		}
	})
	return out
}

// convGeom is the geometry of one Conv2D call.
type convGeom struct {
	cIn, h, w, kH, kW, stride, pad, outH, outW int
}

// span returns the output positions [lo, hi) whose tap at kernel offset k
// reads inside an input extent of n cells (o*stride+k-pad in [0, n)),
// clipped to [0, out); it is empty when the tap lies in the padding for
// every output position.
func (g convGeom) span(k, n, out int) (lo, hi int) {
	if d := g.pad - k; d > 0 {
		lo = (d + g.stride - 1) / g.stride
	}
	if e := n - 1 + g.pad - k; e >= 0 {
		hi = min(out, e/g.stride+1)
	}
	return lo, max(lo, hi)
}

// scatter adds the terms of nc filters (4, or 1 for the cOut mod 4 tail)
// into their output planes of one image; filt holds the filters and dst
// the planes, back to back. Taps run in ascending (ci, ky, kx), and a tap
// touches only the output cells whose window it falls inside: for each of
// their rows, one run of image cells is loaded once and added, scaled, into
// the nc planes.
func (g convGeom) scatter(img, filt, dst []float64, nc int) {
	taps, plane := g.cIn*g.kH*g.kW, g.outH*g.outW
	t := 0
	for ci := 0; ci < g.cIn; ci++ {
		src := img[ci*g.h*g.w : (ci+1)*g.h*g.w]
		for ky := 0; ky < g.kH; ky++ {
			oy0, oy1 := g.span(ky, g.h, g.outH)
			for kx := 0; kx < g.kW; kx, t = kx+1, t+1 {
				ox0, ox1 := g.span(kx, g.w, g.outW)
				n := ox1 - ox0
				if n == 0 {
					continue
				}
				w0 := filt[t]
				var w1, w2, w3 float64
				if nc == 4 {
					w1, w2, w3 = filt[taps+t], filt[2*taps+t], filt[3*taps+t]
				}
				for oy := oy0; oy < oy1; oy++ {
					in := src[(oy*g.stride+ky-g.pad)*g.w+ox0*g.stride+kx-g.pad:]
					in = in[:(n-1)*g.stride+1]
					at := oy*g.outW + ox0
					if nc == 1 {
						o0 := dst[at : at+n]
						for j := range o0 {
							o0[j] += in[j*g.stride] * w0
						}
						continue
					}
					o0, o1, o2, o3 := dst[at:at+n], dst[plane+at:plane+at+n], dst[2*plane+at:2*plane+at+n], dst[3*plane+at:3*plane+at+n]
					if g.stride == 1 {
						for j, v := range in {
							o0[j] += v * w0
							o1[j] += v * w1
							o2[j] += v * w2
							o3[j] += v * w3
						}
						continue
					}
					for j := range o0 {
						v := in[j*g.stride]
						o0[j] += v * w0
						o1[j] += v * w1
						o2[j] += v * w2
						o3[j] += v * w3
					}
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
