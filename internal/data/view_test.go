package data

import (
	"math"
	"testing"
)

// viewKernel is one exported kernel or transform applied to m, a block of
// rows, and y, a label column over the same rows. Scalar results are wrapped
// so every kernel compares the same way.
type viewKernel struct {
	name string
	run  func(m, y *Matrix) []*Matrix
}

// viewKernels lists every exported kernel and transform of the package that
// reads a matrix. Shapes: m is n x 12 (one 1x3x4 image per row for the
// convolution and pooling kernels), y is n x 1.
func viewKernels() []viewKernel {
	fused, err := ParseFused("+($0,$1);exp(@0);sigmoid(@1)")
	if err != nil {
		panic(err)
	}
	filt := RandNorm(2, 4, 0, 1, 31) // two 1x2x2 filters
	one := func(m *Matrix) []*Matrix { return []*Matrix{m} }
	two := func(a, b *Matrix) []*Matrix { return []*Matrix{a, b} }
	scalar := func(v float64) []*Matrix { return one(Scalar(v)) }
	firstRow := func(m *Matrix) *Matrix { return m.RowView(0, 1) }
	cols := func(m *Matrix, k int) *Matrix { return RandNorm(m.Cols, k, 0, 1, int64(k)) } // a right operand for m
	return []viewKernel{
		{"Clone", func(m, _ *Matrix) []*Matrix { return one(m.Clone()) }},
		{"Slice", func(m, _ *Matrix) []*Matrix { return one(m.Slice(0, m.Rows, 1, 5)) }},
		{"SliceRows", func(m, _ *Matrix) []*Matrix { return one(m.SliceRows(0, m.Rows)) }},
		{"RowView", func(m, _ *Matrix) []*Matrix { return one(m.RowView(0, m.Rows)) }},
		{"Col", func(m, _ *Matrix) []*Matrix { return one(m.Col(3)) }},
		{"RBind", func(m, _ *Matrix) []*Matrix { return one(RBind(m, m)) }},
		{"CBind", func(m, y *Matrix) []*Matrix { return one(CBind(m, y)) }},
		{"Diag", func(m, y *Matrix) []*Matrix { return two(Diag(m), Diag(y)) }},
		{"Checksum", func(m, _ *Matrix) []*Matrix { return scalar(float64(m.Checksum() >> 11)) }},
		{"Fingerprint", func(m, _ *Matrix) []*Matrix { return scalar(float64(m.Fingerprint() >> 11)) }},
		{"Add", func(m, y *Matrix) []*Matrix { return two(Add(m, m), Add(y, m)) }},
		{"AddRow", func(m, _ *Matrix) []*Matrix { return two(Add(m, firstRow(m)), Add(firstRow(m), m)) }},
		{"Sub", func(m, y *Matrix) []*Matrix { return one(Sub(m, y)) }},
		{"Mul", func(m, y *Matrix) []*Matrix { return one(Mul(y, m)) }},
		{"Div", func(m, y *Matrix) []*Matrix { return one(Div(m, y)) }},
		{"MinElem", func(m, y *Matrix) []*Matrix { return one(MinElem(m, y)) }},
		{"MaxElem", func(m, y *Matrix) []*Matrix { return one(MaxElem(m, y)) }},
		{"Greater", func(m, y *Matrix) []*Matrix { return one(Greater(m, y)) }},
		{"Less", func(m, y *Matrix) []*Matrix { return one(Less(m, y)) }},
		{"Map", func(m, _ *Matrix) []*Matrix { return one(Map(m, math.Cbrt)) }},
		{"AddScalar", func(m, _ *Matrix) []*Matrix { return one(AddScalar(m, 1.5)) }},
		{"MulScalar", func(m, _ *Matrix) []*Matrix { return one(MulScalar(m, -2)) }},
		{"PowScalar", func(m, _ *Matrix) []*Matrix { return two(PowScalar(m, 2), PowScalar(m, 3)) }},
		{"Exp", func(m, _ *Matrix) []*Matrix { return one(Exp(m)) }},
		{"Log", func(m, _ *Matrix) []*Matrix { return one(Log(m)) }},
		{"Sqrt", func(m, _ *Matrix) []*Matrix { return one(Sqrt(m)) }},
		{"Abs", func(m, _ *Matrix) []*Matrix { return one(Abs(m)) }},
		{"Sigmoid", func(m, _ *Matrix) []*Matrix { return one(Sigmoid(m)) }},
		{"Sum", func(m, _ *Matrix) []*Matrix { return scalar(Sum(m)) }},
		{"Mean", func(m, _ *Matrix) []*Matrix { return scalar(Mean(m)) }},
		{"Min", func(m, _ *Matrix) []*Matrix { return scalar(Min(m)) }},
		{"Max", func(m, _ *Matrix) []*Matrix { return scalar(Max(m)) }},
		{"RowSums", func(m, _ *Matrix) []*Matrix { return one(RowSums(m)) }},
		{"ColSums", func(m, _ *Matrix) []*Matrix { return one(ColSums(m)) }},
		{"ColMeans", func(m, _ *Matrix) []*Matrix { return one(ColMeans(m)) }},
		{"ColVars", func(m, _ *Matrix) []*Matrix { return one(ColVars(m)) }},
		{"ColMaxs", func(m, _ *Matrix) []*Matrix { return one(ColMaxs(m)) }},
		{"ColMins", func(m, _ *Matrix) []*Matrix { return one(ColMins(m)) }},
		{"RowMaxIndex", func(m, _ *Matrix) []*Matrix { return one(RowMaxIndex(m)) }},
		{"MatMul", func(m, _ *Matrix) []*Matrix {
			return []*Matrix{MatMul(m, cols(m, 1)), MatMul(m, cols(m, 3)), MatMul(m, cols(m, 7)), MatMul(Transpose(cols(m, 5)), Transpose(m))}
		}},
		{"MatMulT", func(m, y *Matrix) []*Matrix { return two(MatMulT(m, y), MatMulT(y, m)) }},
		{"Transpose", func(m, _ *Matrix) []*Matrix { return one(Transpose(m)) }},
		{"TSMM", func(m, _ *Matrix) []*Matrix { return one(TSMM(m)) }},
		{"Solve", func(m, _ *Matrix) []*Matrix {
			// m as the right-hand side of a well-posed system of its own height.
			a := AddScalar(Identity(m.Rows), 0.25)
			return one(Solve(a, m))
		}},
		{"SolveA", func(m, _ *Matrix) []*Matrix {
			// m as the coefficient matrix: square ranges only (panics otherwise,
			// on the view and on the copy alike).
			return one(Solve(m, Ones(m.Rows, 2)))
		}},
		{"Norm2", func(m, _ *Matrix) []*Matrix { return scalar(Norm2(m)) }},
		{"PCA", func(m, _ *Matrix) []*Matrix { return one(PCA(m, 2, 5)) }},
		{"ReLU", func(m, _ *Matrix) []*Matrix { return one(ReLU(m)) }},
		{"Softmax", func(m, _ *Matrix) []*Matrix { return one(Softmax(m)) }},
		{"Dropout", func(m, _ *Matrix) []*Matrix { return two(Dropout(m, 0.4, 9), Dropout(m, 0, 9)) }},
		{"Conv2D", func(m, _ *Matrix) []*Matrix { return one(Conv2D(m, filt, 1, 3, 4, 2, 2, 1, 1)) }},
		{"Conv2DFilter", func(m, _ *Matrix) []*Matrix {
			// m as the filter bank: each 12-cell row is one 3x2x2 filter.
			return one(Conv2D(RandNorm(3, 3*4*4, 0, 1, 8), m, 3, 4, 4, 2, 2, 1, 0))
		}},
		{"MaxPool", func(m, _ *Matrix) []*Matrix { return one(MaxPool(m, 1, 3, 4, 2, 2, 1)) }},
		{"ImputeByMean", func(m, _ *Matrix) []*Matrix { return one(ImputeByMean(m)) }},
		{"ImputeByMode", func(m, _ *Matrix) []*Matrix { return one(ImputeByMode(m)) }},
		{"OutlierByIQR", func(m, _ *Matrix) []*Matrix { return one(OutlierByIQR(m)) }},
		{"Standardize", func(m, _ *Matrix) []*Matrix { return one(Standardize(m)) }},
		{"MinMaxScale", func(m, _ *Matrix) []*Matrix { return one(MinMaxScale(m)) }},
		{"UnderSample", func(m, y *Matrix) []*Matrix { return two(UnderSample(m, y, 3)) }},
		{"Bin", func(m, _ *Matrix) []*Matrix { return one(Bin(m, 4)) }},
		{"Recode", func(m, _ *Matrix) []*Matrix { return one(Recode(m)) }},
		{"OneHot", func(m, _ *Matrix) []*Matrix { return one(OneHot(m)) }},
		{"OneHotFixed", func(m, _ *Matrix) []*Matrix { return one(OneHotFixed(m, 6)) }},
		{"ReplaceNaN", func(m, _ *Matrix) []*Matrix { return one(ReplaceNaN(m, 7)) }},
		{"CountNaN", func(m, _ *Matrix) []*Matrix { return scalar(float64(CountNaN(m))) }},
		{"EvalFused", func(m, _ *Matrix) []*Matrix {
			return two(EvalFused(fused, []*Matrix{m, m}, nil), EvalFused(fused, []*Matrix{m, firstRow(m)}, New(m.Rows, m.Cols)))
		}},
	}
}

// runKernel runs k and reports a panic instead of propagating it: a kernel
// that rejects a shape must reject it on the view exactly as on the copy.
func runKernel(k viewKernel, m, y *Matrix) (out []*Matrix, panicked bool) {
	defer func() {
		if recover() != nil {
			out, panicked = nil, true
		}
	}()
	return k.run(m, y), false
}

// TestKernelsDoNotMutateInputs is the ownership contract of the package
// comment, kernel by kernel: run on a RowView of a larger matrix, every
// exported kernel and transform leaves the base untouched (rows inside and
// outside the range) and computes bit for bit what it computes on a private
// copy of those rows — for ranges at the first row, at the last row, in the
// middle, of one row, and empty.
func TestKernelsDoNotMutateInputs(t *testing.T) {
	const rows, width = 16, 12
	normal := RandNorm(rows, width, 0, 2, 1)
	// Small positive integers with missing cells: what the cleaning
	// transforms (impute, recode, one-hot, bin) are written for.
	coded := New(rows, width)
	for i := range coded.Data {
		coded.Data[i] = float64(1 + (i*7+i/width)%5)
		if i%11 == 3 {
			coded.Data[i] = math.NaN()
		}
	}
	labels := New(rows, 1)
	for i := range labels.Data {
		labels.Data[i] = float64(i % 3 % 2) // unbalanced 0/1 classes
	}
	ranges := [][2]int{{0, 0}, {rows, rows}, {5, 5}, {0, 1}, {rows - 1, rows}, {7, 8}, {0, 6}, {rows - 6, rows}, {2, 14}, {0, rows}}
	kernels := viewKernels()
	ran := map[string]bool{}
	for _, base := range []struct {
		name string
		m    *Matrix
	}{{"normal", normal}, {"coded", coded}} {
		baseSum, labelSum := base.m.Checksum(), labels.Checksum()
		for _, r := range ranges {
			view, yView := base.m.RowView(r[0], r[1]), labels.RowView(r[0], r[1])
			priv, yPriv := base.m.SliceRows(r[0], r[1]), labels.SliceRows(r[0], r[1])
			for _, k := range kernels {
				want, wantPanic := runKernel(k, priv, yPriv)
				got, gotPanic := runKernel(k, view, yView)
				if wantPanic != gotPanic {
					t.Errorf("%s %s rows %v: panicked on the view: %v, on the copy: %v", base.name, k.name, r, gotPanic, wantPanic)
					continue
				}
				for i := range want {
					if !bitwiseEqual(want[i], got[i]) {
						t.Errorf("%s %s rows %v: result %d on the view differs from the copy's", base.name, k.name, r, i)
					}
				}
				if base.m.Checksum() != baseSum || labels.Checksum() != labelSum {
					t.Fatalf("%s %s rows %v: the kernel wrote to its argument's buffer", base.name, k.name, r)
				}
				if !wantPanic && r[1] > r[0] {
					ran[k.name] = true
				}
			}
		}
	}
	for _, k := range kernels {
		if !ran[k.name] {
			t.Errorf("%s rejected every non-empty range: the test does not cover it", k.name)
		}
	}
}

// TestRowViewSharesAndIsCapLimited: a view reads the base's own cells, and an
// append through it reallocates instead of reaching the next row.
func TestRowViewSharesAndIsCapLimited(t *testing.T) {
	base := Seq(0, 1, 12)
	base.Rows, base.Cols = 4, 3
	v := base.RowView(1, 3)
	if v.Rows != 2 || v.Cols != 3 || &v.Data[0] != &base.Data[3] {
		t.Fatalf("view %dx%d does not start at the base's row 1", v.Rows, v.Cols)
	}
	if !bitwiseEqual(v, base.SliceRows(1, 3)) {
		t.Fatalf("view = %v, want rows 1-2 of %v", v, base)
	}
	grown := append(v.Data, 99)
	if base.Data[9] != 9 || &grown[0] == &v.Data[0] {
		t.Fatalf("append through the view reached the base's row 3: %v", base)
	}
	if e := base.RowView(4, 4); e.Rows != 0 || len(e.Data) != 0 {
		t.Fatalf("empty view at the end = %dx%d with %d cells", e.Rows, e.Cols, len(e.Data))
	}
	for _, r := range [][2]int{{-1, 2}, {2, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RowView(%d, %d) of 4 rows did not panic", r[0], r[1])
				}
			}()
			base.RowView(r[0], r[1])
		}()
	}
}
