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

func attrSeed(inst *compiler.Instruction) int64 { return int64(attrInt(inst, "seed", 0)) }

// execCP runs an instruction on the local backend, charging compute from
// the estimated FLOPs. The cases that act on bindings rather than host
// matrices come first: a transpose binds a deferred value, built only if a
// consumer other than a CP matmul's left operand asks for it (ensureHost);
// nrow/ncol read the binding's shape; a fused chain evaluates its leaves.
// Everything else resolves its host operands once, in index order, and runs
// the shared kernel table (slices excepted, whose row views share cells).
func (ctx *Context) execCP(inst *compiler.Instruction) (*Value, error) {
	ctx.Clock.Advance(costs.Compute(inst.Flops, ctx.Model.CPUFlops))
	switch inst.Op {
	case "t", "mm", "nrow", "ncol":
		v, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		switch {
		case inst.Op == "t":
			return newDeferredT(ctx.ensureHost(v)), nil
		case inst.Op == "nrow":
			return NewScalar(float64(v.Rows)), nil
		case inst.Op == "ncol":
			return NewScalar(float64(v.Cols)), nil
		case v.tSrc != nil:
			// The left operand is a transpose nobody has asked to see yet:
			// multiply straight from its source and never build it.
			b, err := ctx.hostIn(inst, 1)
			if err != nil {
				return nil, err
			}
			return NewHostValue(data.MatMulT(v.tSrc, b)), nil
		}
	case ir.FusedOp:
		m, err := ctx.evalFused(inst)
		if err != nil {
			return nil, err
		}
		return NewHostValue(m), nil
	}
	var buf [2]*data.Matrix
	in := buf[:0]
	for i := range inst.Inputs {
		m, err := ctx.hostIn(inst, i)
		if err != nil {
			return nil, err
		}
		in = append(in, m)
	}
	if inst.Op == "slice" || inst.Op == "sliceRows" {
		return NewHostValue(ctx.slice(inst, in)), nil
	}
	m, err := hostKernel(inst, in)
	if err != nil {
		return nil, err
	}
	return NewHostValue(m), nil
}

// slice cuts a slice or sliceRows operand. A row range is contiguous: it is
// accounted in full and shares the operand's cells, which escape the arena.
func (ctx *Context) slice(inst *compiler.Instruction, in []*data.Matrix) *data.Matrix {
	a := in[0]
	if inst.Op == "sliceRows" {
		start := int(in[1].ScalarValue())
		n := attrInt(inst, "n", 1)
		if start+n > a.Rows {
			n = a.Rows - start
		}
		return ctx.shared(a).RowView(start, start+n)
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
		return ctx.shared(a).RowView(r0, r1)
	}
	return a.Slice(r0, r1, c0, c1)
}

// hostKernel computes an instruction's value from its operands with the
// data kernels. It is the one opcode table of the CP and GPU backends — the
// GPU launches it on its device copies — so a lineage item names the same
// value wherever the compiler placed the instruction. It touches no clock:
// each backend charges its own costs around it.
func hostKernel(inst *compiler.Instruction, in []*data.Matrix) (*data.Matrix, error) {
	switch inst.Op {
	case "rand":
		return data.Rand(attrInt(inst, "rows", 1), attrInt(inst, "cols", 1),
			attrFloat(inst, "min", 0), attrFloat(inst, "max", 1),
			attrFloat(inst, "sparsity", 1), attrSeed(inst)), nil
	case "t":
		return data.Transpose(in[0]), nil
	case "mm":
		return data.MatMul(in[0], in[1]), nil
	case "cpmm":
		return data.MatMulT(in[0], in[1]), nil
	case "tsmm":
		return data.TSMM(in[0]), nil
	case "solve":
		return data.Solve(in[0], in[1]), nil
	case "sum":
		return data.Scalar(data.Sum(in[0])), nil
	case "mean":
		return data.Scalar(data.Mean(in[0])), nil
	case "rowSums":
		return data.RowSums(in[0]), nil
	case "colSums":
		return data.ColSums(in[0]), nil
	case "colMeans":
		return data.ColMeans(in[0]), nil
	case "colVars":
		return data.ColVars(in[0]), nil
	case "colMins":
		return data.ColMins(in[0]), nil
	case "colMaxs":
		return data.ColMaxs(in[0]), nil
	case "rowMaxIdx":
		return data.RowMaxIndex(in[0]), nil
	case "cbind":
		return data.CBind(in[0], in[1]), nil
	case "rbind":
		return data.RBind(in[0], in[1]), nil
	case "diag":
		return data.Diag(in[0]), nil
	case "dropout":
		return data.Dropout(in[0], attrFloat(inst, "p", 0.5), attrSeed(inst)), nil
	case "dropoutv":
		return data.Dropout(in[0], in[1].ScalarValue(), attrSeed(inst)), nil
	case "conv2d":
		return data.Conv2D(in[0], in[1], attrInt(inst, "cin", 1), attrInt(inst, "h", 1),
			attrInt(inst, "w", 1), attrInt(inst, "kh", 1), attrInt(inst, "kw", 1),
			attrInt(inst, "stride", 1), attrInt(inst, "pad", 0)), nil
	case "maxpool":
		return data.MaxPool(in[0], attrInt(inst, "c", 1), attrInt(inst, "h", 1),
			attrInt(inst, "w", 1), attrInt(inst, "ph", 1), attrInt(inst, "pw", 1),
			attrInt(inst, "stride", 1)), nil
	case "bin":
		return data.Bin(in[0], attrInt(inst, "bins", 10)), nil
	case "onehotf":
		return data.OneHotFixed(in[0], attrInt(inst, "domain", 10)), nil
	case "pca":
		comps := data.PCA(in[0], attrInt(inst, "k", 2), attrSeed(inst))
		return data.MatMul(in[0], comps), nil
	case "cleanPCASplit":
		xy := in[0]
		x := xy.Slice(0, xy.Rows, 0, xy.Cols-1)
		comps := data.PCA(x, attrInt(inst, "k", 8), attrSeed(inst))
		return data.CBind(data.MatMul(x, comps), xy.Col(xy.Cols-1)), nil
	case "usample":
		xy := in[0]
		sx, sy := data.UnderSample(xy.Slice(0, xy.Rows, 0, xy.Cols-1), xy.Col(xy.Cols-1), attrSeed(inst))
		return data.CBind(sx, sy), nil
	}
	if f := binFunc(inst.Op); f != nil {
		return f(in[0], in[1]), nil
	}
	if f := unaryFunc(inst); f != nil {
		a := in[0]
		if inst.Attr("skipLast") == "1" && a.Cols > 1 {
			// Apply the transform to the feature columns only, keeping the
			// trailing label column intact (cleaning pipelines carry labels
			// for row alignment).
			return data.CBind(f(a.Slice(0, a.Rows, 0, a.Cols-1)), a.Col(a.Cols-1)), nil
		}
		return f(a), nil
	}
	return nil, fmt.Errorf("unknown opcode %q", inst.Op)
}
