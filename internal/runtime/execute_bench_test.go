package runtime

import (
	"testing"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/data"
	"memphis/internal/ir"
)

// BenchmarkExecuteInst executes one prepared, untraced + on 64x8 operands
// per iteration, rebinding its output: on CP, and on the device with both
// operands already resident. It is the per-instruction floor every
// fresh-miss instruction pays on top of its kernel.
func BenchmarkExecuteInst(b *testing.B) {
	for _, backend := range []core.Backend{core.BackendCP, core.BackendGPU} {
		b.Run(backend.String(), func(b *testing.B) {
			ctx := New(testConfig(ReuseNone))
			defer ctx.Close()
			ctx.BindHost("X", data.RandNorm(64, 8, 0, 1, 1))
			ctx.BindHost("Y", data.RandNorm(64, 8, 0, 1, 2))
			sh := ir.Shape{Rows: 64, Cols: 8}
			stream := []compiler.Instruction{{
				Kind: compiler.KindOp, Op: "+", Backend: backend,
				Inputs: []string{"X", "Y"}, Outputs: []string{"Z"},
				Shape: sh, InShapes: []ir.Shape{sh, sh}, Flops: 512,
			}}
			compiler.Prepare(stream)
			inst := &stream[0]
			if err := ctx.Execute(inst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctx.Execute(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
