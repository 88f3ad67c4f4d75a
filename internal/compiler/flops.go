package compiler

import (
	"memphis/internal/costs"
	"memphis/internal/ir"
)

// flopsOf estimates the floating-point operations of a node given input and
// output shapes.
func flopsOf(n *ir.Node, in []ir.Shape, out ir.Shape) float64 {
	cells := float64(out.Rows) * float64(out.Cols)
	switch n.Op {
	case "mm":
		return costs.MatMulFlops(in[0].Rows, in[0].Cols, in[1].Cols)
	case "tsmm":
		return costs.MatMulFlops(in[0].Cols, in[0].Rows, in[0].Cols)
	case "cpmm":
		return costs.MatMulFlops(in[0].Cols, in[0].Rows, in[1].Cols)
	case "solve":
		return costs.SolveFlops(in[0].Rows) + costs.MatMulFlops(in[0].Rows, in[0].Rows, in[1].Cols)
	case "conv2d":
		cin := n.AttrInt("cin", 1)
		kh, kw := n.AttrInt("kh", 1), n.AttrInt("kw", 1)
		cout := in[1].Rows
		outHW := out.Cols / cout
		return costs.Conv2DFlops(in[0].Rows, cin, cout, outHW, 1, kh, kw)
	case "exp", "log", "sigmoid", "softmax", "pow", "sqrt":
		return costs.ElemwiseFlops(int(cells), 10)
	case "pca", "cleanPCASplit":
		// Covariance + power iterations dominate.
		return costs.MatMulFlops(in[0].Cols, in[0].Rows, in[0].Cols) +
			100*costs.MatMulFlops(in[0].Cols, in[0].Cols, n.AttrInt("k", 1))
	case "imputeMode", "outlierIQR", "recode":
		// Sort/hash-based primitives: per-column sorting or frequency
		// counting costs far more than an arithmetic pass (~n log n with
		// hefty constants).
		return costs.ElemwiseFlops(in[0].Rows*in[0].Cols, 40)
	case "imputeMean", "scale", "minmax", "bin", "onehot", "onehotf":
		// Two passes over the input.
		return costs.ElemwiseFlops(in[0].Rows*in[0].Cols, 4)
	case "var", "lit", "chkpoint":
		return 0
	default:
		// Elementwise, aggregates, structural ops: linear in the larger of
		// input/output cells.
		maxCells := cells
		for _, s := range in {
			if c := float64(s.Rows) * float64(s.Cols); c > maxCells {
				maxCells = c
			}
		}
		return costs.ElemwiseFlops(int(maxCells), 1)
	}
}

// spSupported lists operators with distributed (Spark) physical
// implementations in the runtime.
var spSupported = map[string]bool{
	"tsmm": true, "mm": true, "cpmm": true,
	"+": true, "-": true, "*": true, "/": true,
	"min": true, "max": true, ">": true, "<": true,
	"exp": true, "log": true, "sqrt": true, "abs": true,
	"sigmoid": true, "relu": true, "pow": true, "replaceNaN": true,
	"colSums": true, "colMeans": true, "colVars": true,
	"colMins": true, "colMaxs": true, "sum": true, "mean": true,
	"rowSums":    true,
	"imputeMean": true, "scale": true, "minmax": true,
	"chkpoint": true,
}

// gpuSupported lists operators with GPU kernels in the runtime.
var gpuSupported = map[string]bool{
	"mm": true, "tsmm": true, "t": true,
	"+": true, "-": true, "*": true, "/": true,
	"min": true, "max": true,
	"exp": true, "log": true, "sqrt": true, "abs": true,
	"sigmoid": true, "relu": true, "softmax": true, "pow": true,
	"dropout": true, "dropoutv": true, "conv2d": true, "maxpool": true,
	"rowSums": true, "colSums": true, "sum": true,
	"scale": true, "minmax": true,
}

// computeIntensive marks operators worth shipping to the GPU even at
// moderate sizes (dense BLAS-3 and convolutions).
var computeIntensive = map[string]bool{
	"mm": true, "tsmm": true, "conv2d": true, "maxpool": true,
	"dropout": true, "dropoutv": true, "softmax": true,
	"relu": true, "sigmoid": true,
}

// GPUSupported reports whether op has a device kernel in the runtime.
func GPUSupported(op string) bool { return gpuSupported[op] }
