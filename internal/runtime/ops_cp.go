package runtime

import (
	"errors"
	"fmt"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/gpu"
	"memphis/internal/ir"
)

// execOp dispatches an instruction to its backend. A GPU instruction that
// cannot allocate device memory falls back to local execution, mirroring
// frameworks that degrade to CPU under device OOM.
func (ctx *Context) execOp(inst *compiler.Instruction) (*Value, error) {
	switch inst.Backend {
	case core.BackendSpark:
		ctx.Stats.SPInsts++
		return ctx.execSP(inst)
	case core.BackendGPU:
		ctx.Stats.GPUInsts++
		v, err := ctx.execGPU(inst)
		if errors.Is(err, gpu.ErrOOM) {
			ctx.Stats.GPUFallbacks++
			return ctx.execCP(inst)
		}
		return v, err
	default:
		ctx.Stats.CPInsts++
		return ctx.execCP(inst)
	}
}

// hostIn fetches operand i as a host matrix.
func (ctx *Context) hostIn(inst *compiler.Instruction, i int) (*data.Matrix, error) {
	v, err := ctx.operand(inst, i)
	if err != nil {
		return nil, err
	}
	return ctx.ensureHost(v), nil
}

// binFunc maps elementwise opcodes to data kernels.
func binFunc(op string) func(a, b *data.Matrix) *data.Matrix {
	switch op {
	case "+":
		return data.Add
	case "-":
		return data.Sub
	case "*":
		return data.Mul
	case "/":
		return data.Div
	case "min":
		return data.MinElem
	case "max":
		return data.MaxElem
	case ">":
		return data.Greater
	case "<":
		return data.Less
	default:
		return nil
	}
}

// unaryFunc maps unary opcodes to data kernels; attrs supply parameters.
func unaryFunc(inst *compiler.Instruction) func(a *data.Matrix) *data.Matrix {
	switch inst.Op {
	case "exp":
		return data.Exp
	case "log":
		return data.Log
	case "sqrt":
		return data.Sqrt
	case "abs":
		return data.Abs
	case "sigmoid":
		return data.Sigmoid
	case "relu":
		return data.ReLU
	case "softmax":
		return data.Softmax
	case "pow":
		p := attrFloat(inst, "p", 2)
		return func(a *data.Matrix) *data.Matrix { return data.PowScalar(a, p) }
	case "replaceNaN":
		v := attrFloat(inst, "value", 0)
		return func(a *data.Matrix) *data.Matrix { return data.ReplaceNaN(a, v) }
	case "imputeMean":
		return data.ImputeByMean
	case "imputeMode":
		return data.ImputeByMode
	case "outlierIQR":
		return data.OutlierByIQR
	case "scale":
		return data.Standardize
	case "minmax":
		return data.MinMaxScale
	case "recode":
		return data.Recode
	case "onehot":
		return data.OneHot
	default:
		return nil
	}
}

func attrFloat(inst *compiler.Instruction, k string, def float64) float64 {
	if s := inst.Attr(k); s != "" {
		var f float64
		if _, err := fmt.Sscanf(s, "%g", &f); err == nil {
			return f
		}
	}
	return def
}

func attrInt(inst *compiler.Instruction, k string, def int) int {
	if s := inst.Attr(k); s != "" {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err == nil {
			return n
		}
	}
	return def
}

// execCP runs an instruction on the local backend, charging compute from
// the estimated FLOPs. A transpose is charged like any other op but binds a
// deferred value: the buffer is built only if a consumer other than a CP
// matmul's left operand asks for it (ensureHost).
func (ctx *Context) execCP(inst *compiler.Instruction) (*Value, error) {
	ctx.Clock.Advance(costs.Compute(inst.Flops, ctx.Model.CPUFlops))
	if inst.Op == "t" {
		a, err := ctx.hostIn(inst, 0)
		if err != nil {
			return nil, err
		}
		return newDeferredT(a), nil
	}
	out, err := ctx.evalCP(inst)
	if err != nil {
		return nil, err
	}
	return NewHostValue(out), nil
}

// evalCP computes the instruction's value with local kernels.
func (ctx *Context) evalCP(inst *compiler.Instruction) (*data.Matrix, error) {
	in := func(i int) (*data.Matrix, error) { return ctx.hostIn(inst, i) }
	switch inst.Op {
	case "rand":
		return data.Rand(attrInt(inst, "rows", 1), attrInt(inst, "cols", 1),
			attrFloat(inst, "min", 0), attrFloat(inst, "max", 1),
			attrFloat(inst, "sparsity", 1), int64(attrInt(inst, "seed", 0))), nil
	case "randn":
		return data.RandNorm(attrInt(inst, "rows", 1), attrInt(inst, "cols", 1),
			attrFloat(inst, "mu", 0), attrFloat(inst, "sd", 1),
			int64(attrInt(inst, "seed", 0))), nil
	case "mm":
		l, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		if src := l.tSrc; src != nil {
			// The left operand is a transpose nobody has asked to see yet:
			// multiply straight from its source and never build it.
			b, err := in(1)
			if err != nil {
				return nil, err
			}
			return data.MatMulT(src, b), nil
		}
		a := ctx.ensureHost(l)
		b, err := in(1)
		if err != nil {
			return nil, err
		}
		return data.MatMul(a, b), nil
	case "cpmm":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		b, err := in(1)
		if err != nil {
			return nil, err
		}
		return data.MatMulT(a, b), nil
	case "tsmm":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.TSMM(a), nil
	case "solve":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		b, err := in(1)
		if err != nil {
			return nil, err
		}
		return data.Solve(a, b), nil
	case ir.FusedOp:
		return ctx.evalFused(inst)
	case "+", "-", "*", "/", "min", "max", ">", "<":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		b, err := in(1)
		if err != nil {
			return nil, err
		}
		return binFunc(inst.Op)(a, b), nil
	case "sum":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.Scalar(data.Sum(a)), nil
	case "mean":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.Scalar(data.Mean(a)), nil
	case "rowSums":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.RowSums(a), nil
	case "colSums":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.ColSums(a), nil
	case "colMeans":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.ColMeans(a), nil
	case "colVars":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.ColVars(a), nil
	case "colMins":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.ColMins(a), nil
	case "colMaxs":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.ColMaxs(a), nil
	case "rowMaxIdx":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.RowMaxIndex(a), nil
	case "nrow":
		v, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		return data.Scalar(float64(v.Rows)), nil
	case "ncol":
		v, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		return data.Scalar(float64(v.Cols)), nil
	case "cbind":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		b, err := in(1)
		if err != nil {
			return nil, err
		}
		return data.CBind(a, b), nil
	case "rbind":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		b, err := in(1)
		if err != nil {
			return nil, err
		}
		return data.RBind(a, b), nil
	case "diag":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.Diag(a), nil
	case "slice":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		r0, r1 := attrInt(inst, "r0", 0), attrInt(inst, "r1", -1)
		c0, c1 := attrInt(inst, "c0", 0), attrInt(inst, "c1", -1)
		if r1 < 0 {
			r1 = a.Rows
		}
		if c1 < 0 {
			c1 = a.Cols
		}
		if c0 == 0 && c1 == a.Cols {
			// A row range is contiguous: account it in full, share the cells.
			return ctx.shared(a).RowView(r0, r1), nil
		}
		return a.Slice(r0, r1, c0, c1), nil
	case "sliceRows":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		lo, err := in(1)
		if err != nil {
			return nil, err
		}
		start := int(lo.ScalarValue())
		n := attrInt(inst, "n", 1)
		if start+n > a.Rows {
			n = a.Rows - start
		}
		return ctx.shared(a).RowView(start, start+n), nil
	case "dropout":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.Dropout(a, attrFloat(inst, "p", 0.5), int64(attrInt(inst, "seed", 0))), nil
	case "dropoutv":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		p, err := in(1)
		if err != nil {
			return nil, err
		}
		return data.Dropout(a, p.ScalarValue(), int64(attrInt(inst, "seed", 0))), nil
	case "conv2d":
		x, err := in(0)
		if err != nil {
			return nil, err
		}
		w, err := in(1)
		if err != nil {
			return nil, err
		}
		return data.Conv2D(x, w, attrInt(inst, "cin", 1), attrInt(inst, "h", 1),
			attrInt(inst, "w", 1), attrInt(inst, "kh", 1), attrInt(inst, "kw", 1),
			attrInt(inst, "stride", 1), attrInt(inst, "pad", 0)), nil
	case "maxpool":
		x, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.MaxPool(x, attrInt(inst, "c", 1), attrInt(inst, "h", 1),
			attrInt(inst, "w", 1), attrInt(inst, "ph", 1), attrInt(inst, "pw", 1),
			attrInt(inst, "stride", 1)), nil
	case "bin":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.Bin(a, attrInt(inst, "bins", 10)), nil
	case "onehotf":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		return data.OneHotFixed(a, attrInt(inst, "domain", 10)), nil
	case "pca":
		a, err := in(0)
		if err != nil {
			return nil, err
		}
		comps := data.PCA(a, attrInt(inst, "k", 2), int64(attrInt(inst, "seed", 0)))
		return data.MatMul(a, comps), nil
	case "cleanPCASplit":
		xy, err := in(0)
		if err != nil {
			return nil, err
		}
		k := attrInt(inst, "k", 8)
		x := xy.Slice(0, xy.Rows, 0, xy.Cols-1)
		y := xy.Col(xy.Cols - 1)
		comps := data.PCA(x, k, int64(attrInt(inst, "seed", 0)))
		return data.CBind(data.MatMul(x, comps), y), nil
	case "usample":
		xy, err := in(0)
		if err != nil {
			return nil, err
		}
		x := xy.Slice(0, xy.Rows, 0, xy.Cols-1)
		y := xy.Col(xy.Cols - 1)
		sx, sy := data.UnderSample(x, y, int64(attrInt(inst, "seed", 0)))
		return data.CBind(sx, sy), nil
	default:
		if f := unaryFunc(inst); f != nil {
			a, err := in(0)
			if err != nil {
				return nil, err
			}
			if inst.Attr("skipLast") == "1" && a.Cols > 1 {
				// Apply the transform to the feature columns only,
				// keeping the trailing label column intact (cleaning
				// pipelines carry labels for row alignment).
				feats := f(a.Slice(0, a.Rows, 0, a.Cols-1))
				return data.CBind(feats, a.Col(a.Cols-1)), nil
			}
			return f(a), nil
		}
		return nil, fmt.Errorf("unknown CP opcode %q", inst.Op)
	}
}
