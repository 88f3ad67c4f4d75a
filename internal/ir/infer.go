package ir

import "fmt"

// Shape is a matrix size estimate; scalars are 1x1.
type Shape struct{ Rows, Cols int }

// Bytes returns the dense size estimate.
func (s Shape) Bytes() int64 { return int64(s.Rows) * int64(s.Cols) * 8 }

// Infer computes the output shape of a node given the shapes of program
// variables. Unknown variables default to 1x1 (scalars). The inference is
// deliberately worst-case where the true size is data-dependent
// (e.g. undersampling), matching SystemDS's conservative estimates.
func Infer(n *Node, env map[string]Shape) Shape {
	sh := func(i int) Shape { return Infer(n.Inputs[i], env) }
	switch n.Op {
	case "var":
		if s, ok := env[n.Attr("name")]; ok {
			return s
		}
		return Shape{1, 1}
	case "lit":
		return Shape{1, 1}
	case "rand":
		return Shape{n.AttrInt("rows", 1), n.AttrInt("cols", 1)}
	case "t":
		a := sh(0)
		return Shape{a.Cols, a.Rows}
	case "mm":
		return Shape{sh(0).Rows, sh(1).Cols}
	case "tsmm":
		a := sh(0)
		return Shape{a.Cols, a.Cols}
	case "cpmm":
		return Shape{sh(0).Cols, sh(1).Cols}
	case "solve":
		return Shape{sh(0).Cols, sh(1).Cols}
	case "+", "-", "*", "/", "min", "max", ">", "<":
		a, b := sh(0), sh(1)
		if a.Rows*a.Cols >= b.Rows*b.Cols {
			return a
		}
		return b
	case FusedOp:
		// A fused elementwise chain has the broadcast-maximal input shape,
		// the same rule applied transitively over its constituent steps.
		best := sh(0)
		for i := 1; i < len(n.Inputs); i++ {
			if b := sh(i); b.Rows*b.Cols > best.Rows*best.Cols {
				best = b
			}
		}
		return best
	case "exp", "log", "sqrt", "abs", "sigmoid", "relu", "softmax", "pow",
		"imputeMean", "imputeMode", "outlierIQR", "scale", "minmax",
		"recode", "bin", "replaceNaN", "dropout":
		return sh(0)
	case "dropoutv":
		return sh(0)
	case "chkpoint":
		return sh(0)
	case "usample":
		return sh(0) // worst case: nothing removed
	case "sum", "mean", "nrow", "ncol":
		return Shape{1, 1}
	case "rowSums", "rowMaxIdx":
		return Shape{sh(0).Rows, 1}
	case "colSums", "colMeans", "colVars", "colMins", "colMaxs":
		return Shape{1, sh(0).Cols}
	case "cbind":
		a, b := sh(0), sh(1)
		return Shape{a.Rows, a.Cols + b.Cols}
	case "rbind":
		a, b := sh(0), sh(1)
		return Shape{a.Rows + b.Rows, a.Cols}
	case "diag":
		a := sh(0)
		if a.Cols == 1 {
			return Shape{a.Rows, a.Rows}
		}
		n := a.Rows
		if a.Cols < n {
			n = a.Cols
		}
		return Shape{n, 1}
	case "slice":
		a := sh(0)
		r0, r1 := n.AttrInt("r0", 0), n.AttrInt("r1", -1)
		c0, c1 := n.AttrInt("c0", 0), n.AttrInt("c1", -1)
		if r1 < 0 {
			r1 = a.Rows
		}
		if c1 < 0 {
			c1 = a.Cols
		}
		return Shape{r1 - r0, c1 - c0}
	case "sliceRows":
		return Shape{n.AttrInt("n", 1), sh(0).Cols}
	case "onehotf":
		a := sh(0)
		return Shape{a.Rows, a.Cols * n.AttrInt("domain", 10)}
	case "onehot":
		a := sh(0)
		// Worst case ~10 categories per column (refined at runtime).
		return Shape{a.Rows, a.Cols * 10}
	case "pca":
		return Shape{sh(0).Rows, n.AttrInt("k", 1)}
	case "cleanPCASplit":
		return Shape{sh(0).Rows, n.AttrInt("k", 8) + 1}
	case "conv2d":
		x := sh(0)
		cOut := sh(1).Rows
		h, w := n.AttrInt("h", 1), n.AttrInt("w", 1)
		kh, kw := n.AttrInt("kh", 1), n.AttrInt("kw", 1)
		stride, pad := n.AttrInt("stride", 1), n.AttrInt("pad", 0)
		outH := (h+2*pad-kh)/stride + 1
		outW := (w+2*pad-kw)/stride + 1
		return Shape{x.Rows, cOut * outH * outW}
	case "maxpool":
		x := sh(0)
		c := n.AttrInt("c", 1)
		h, w := n.AttrInt("h", 1), n.AttrInt("w", 1)
		ph, pw := n.AttrInt("ph", 1), n.AttrInt("pw", 1)
		stride := n.AttrInt("stride", 1)
		outH := (h-ph)/stride + 1
		outW := (w-pw)/stride + 1
		return Shape{x.Rows, c * outH * outW}
	case "call":
		// Calls are resolved by the runtime; shape unknown here.
		return Shape{1, 1}
	default:
		panic(fmt.Sprintf("ir: no shape rule for op %q", n.Op))
	}
}
