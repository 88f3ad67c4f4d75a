package runtime

import (
	"fmt"

	"memphis/internal/compiler"
	"memphis/internal/data"
	"memphis/internal/gpu"
)

// execGPU runs an instruction on the device: inputs are uploaded through
// the memory manager, the output pointer is allocated (preferably by
// recycling an exact-size free pointer, Algorithm 1), and the kernel is
// launched asynchronously on the command stream.
func (ctx *Context) execGPU(inst *compiler.Instruction) (*Value, error) {
	if ctx.GM == nil {
		return nil, fmt.Errorf("gpu backend not configured")
	}
	switch inst.Op {
	case "mm", "+", "-", "*", "/", "min", "max", "conv2d":
		return ctx.execGPUBinary(inst)
	case "t", "tsmm", "exp", "log", "sqrt", "abs", "sigmoid", "relu",
		"softmax", "pow", "dropout", "maxpool", "rowSums", "colSums", "sum",
		"scale", "minmax":
		return ctx.execGPUUnary(inst)
	case "dropoutv":
		return ctx.execGPUDropoutVar(inst)
	default:
		return nil, fmt.Errorf("unknown GPU opcode %q", inst.Op)
	}
}

// gpuIn resolves operand i to a device-resident value; scalar operands stay
// host-side (they are passed to kernels as constants).
func (ctx *Context) gpuIn(inst *compiler.Instruction, i int, height int) (*Value, error) {
	v, err := ctx.operand(inst.Inputs[i])
	if err != nil {
		return nil, err
	}
	if v.IsScalar() {
		return v, nil
	}
	return ctx.ensureGPU(v, height)
}

// inputMatrix returns the matrix a kernel reads for an operand: the device
// value for uploaded inputs, the host scalar otherwise.
func inputMatrix(v *Value) *data.Matrix {
	if v.HasGPU() {
		return v.GPU.Value()
	}
	return v.host()
}

// launch allocates the output and runs the kernel, producing a GPU value.
func (ctx *Context) launch(inst *compiler.Instruction, height int,
	compute func() *data.Matrix) (*Value, error) {
	size := inst.Shape.Bytes()
	out, err := ctx.GM.Allocate(size, height, 0)
	if err != nil {
		return nil, err
	}
	var result *data.Matrix
	ctx.GM.Device().Launch(inst.Flops, out, func() *data.Matrix {
		result = compute()
		return result
	})
	return NewGPUValue(out, result.Rows, result.Cols), nil
}

func (ctx *Context) execGPUBinary(inst *compiler.Instruction) (*Value, error) {
	height := heightOf(ctx, inst)
	a, err := ctx.gpuIn(inst, 0, height)
	if err != nil {
		return nil, err
	}
	b, err := ctx.gpuIn(inst, 1, height)
	if err != nil {
		return nil, err
	}
	return ctx.launch(inst, height, func() *data.Matrix {
		x, y := inputMatrix(a), inputMatrix(b)
		switch inst.Op {
		case "mm":
			return data.MatMul(x, y)
		case "conv2d":
			return data.Conv2D(x, y, attrInt(inst, "cin", 1), attrInt(inst, "h", 1),
				attrInt(inst, "w", 1), attrInt(inst, "kh", 1), attrInt(inst, "kw", 1),
				attrInt(inst, "stride", 1), attrInt(inst, "pad", 0))
		default:
			return binFunc(inst.Op)(x, y)
		}
	})
}

func (ctx *Context) execGPUUnary(inst *compiler.Instruction) (*Value, error) {
	height := heightOf(ctx, inst)
	a, err := ctx.gpuIn(inst, 0, height)
	if err != nil {
		return nil, err
	}
	return ctx.launch(inst, height, func() *data.Matrix {
		x := inputMatrix(a)
		switch inst.Op {
		case "t":
			return data.Transpose(x)
		case "tsmm":
			return data.TSMM(x)
		case "dropout":
			return data.Dropout(x, attrFloat(inst, "p", 0.5), int64(attrInt(inst, "seed", 0)))
		case "maxpool":
			return data.MaxPool(x, attrInt(inst, "c", 1), attrInt(inst, "h", 1),
				attrInt(inst, "w", 1), attrInt(inst, "ph", 1), attrInt(inst, "pw", 1),
				attrInt(inst, "stride", 1))
		case "rowSums":
			return data.RowSums(x)
		case "colSums":
			return data.ColSums(x)
		case "sum":
			return data.Scalar(data.Sum(x))
		default:
			return unaryFunc(inst)(x)
		}
	})
}

// execGPUDropoutVar applies dropout with a runtime scalar rate.
func (ctx *Context) execGPUDropoutVar(inst *compiler.Instruction) (*Value, error) {
	height := heightOf(ctx, inst)
	a, err := ctx.gpuIn(inst, 0, height)
	if err != nil {
		return nil, err
	}
	pv, err := ctx.operand(inst.Inputs[1])
	if err != nil {
		return nil, err
	}
	p := ctx.ensureHost(pv).ScalarValue()
	return ctx.launch(inst, height, func() *data.Matrix {
		return data.Dropout(inputMatrix(a), p, int64(attrInt(inst, "seed", 0)))
	})
}

// heightOf returns the lineage height of the output, used by the GPU
// eviction policy to preserve input-pipeline intermediates (Eq. 2).
func heightOf(ctx *Context, inst *compiler.Instruction) int {
	if li := ctx.LMap.Get(inst.Output()); li != nil {
		return li.Height()
	}
	h := 1
	for _, in := range inst.Inputs {
		if compiler.IsLiteral(in) {
			continue
		}
		if li := ctx.LMap.Get(in); li != nil && li.Height()+1 > h {
			h = li.Height() + 1
		}
	}
	return h
}

// gpuPointerOf is a test helper exposing a variable's device pointer.
func (ctx *Context) gpuPointerOf(name string) *gpu.Pointer {
	if v := ctx.vars[name]; v != nil {
		return v.GPU
	}
	return nil
}
