package runtime

import (
	"fmt"

	"memphis/internal/compiler"
	"memphis/internal/data"
)

// execGPU runs an instruction on the device: inputs are uploaded through
// the memory manager, the output pointer is allocated (preferably by
// recycling an exact-size free pointer, Algorithm 1), and the shared kernel
// table is launched asynchronously on the command stream. Scalar operands
// stay host-side and reach the kernel as constants; so does dropoutv's
// runtime rate, fetched to the host whatever its shape.
func (ctx *Context) execGPU(inst *compiler.Instruction) (*Value, error) {
	if ctx.GM == nil {
		return nil, fmt.Errorf("gpu backend not configured")
	}
	if !compiler.GPUSupported(inst.Op) {
		return nil, fmt.Errorf("unknown GPU opcode %q", inst.Op)
	}
	height := heightOf(ctx, inst)
	var buf [2]*data.Matrix
	in := buf[:0]
	for i := range inst.Inputs {
		v, err := ctx.operand(inst, i)
		if err != nil {
			return nil, err
		}
		switch {
		case inst.Op == "dropoutv" && i == 1:
			in = append(in, ctx.ensureHost(v))
			continue
		case !v.IsScalar():
			if v, err = ctx.ensureGPU(v, height); err != nil {
				return nil, err
			}
		}
		if v.HasGPU() {
			in = append(in, v.GPU.Value())
		} else {
			in = append(in, v.host())
		}
	}
	out, err := ctx.GM.Allocate(inst.Shape.Bytes(), height, 0)
	if err != nil {
		return nil, err
	}
	var result *data.Matrix
	ctx.GM.Device().Launch(inst.Flops, out, func() *data.Matrix {
		// Every opcode compiler.GPUSupported admits has a kernel
		// (the GPU parity tests run each one), so there is no error.
		result, _ = hostKernel(inst, in)
		return result
	})
	return NewGPUValue(out, result.Rows, result.Cols), nil
}

// heightOf returns the lineage height of the output, used by the GPU
// eviction policy to preserve input-pipeline intermediates (Eq. 2).
func heightOf(ctx *Context, inst *compiler.Instruction) int {
	if li := ctx.outCell(inst, 0).li; li != nil {
		return li.Height()
	}
	h := 1
	for i := range inst.Inputs {
		if s := inst.Slot(i); s >= 0 {
			if li := ctx.frame[s].li; li != nil && li.Height()+1 > h {
				h = li.Height() + 1
			}
		}
	}
	return h
}
