package runtime

import (
	"fmt"
	"math"

	"memphis/internal/compiler"
	"memphis/internal/data"
	"memphis/internal/spark"
)

// execSP runs an instruction as a distributed (lazy) operation. The
// returned Value carries the output RDD plus the dangling child RDDs and
// broadcasts for the cache's lazy garbage collection.
func (ctx *Context) execSP(inst *compiler.Instruction) (*Value, error) {
	if ctx.SC == nil {
		return nil, fmt.Errorf("spark backend not configured")
	}
	switch inst.Op {
	case "tsmm":
		v, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		x := ctx.ensureRDD(v, inst.Inputs[0])
		return ctx.spValue(spark.TSMM(x), x), nil
	case "cpmm":
		a, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		b, err := ctx.operand(inst, 1)
		if err != nil {
			return nil, err
		}
		ra := ctx.ensureRDD(a, inst.Inputs[0])
		rb := ctx.ensureRDD(b, inst.Inputs[1])
		if ra.NumPartitions() != rb.NumPartitions() {
			// Fall back to broadcasting the smaller side.
			if a.SizeBytes() <= b.SizeBytes() {
				bc := ctx.ensureBcast(a)
				out := spark.VecMM(bc, rb)
				return ctx.spValueB(out, []*spark.RDD{rb}, bc), nil
			}
			return nil, fmt.Errorf("cpmm partition mismatch %d vs %d",
				ra.NumPartitions(), rb.NumPartitions())
		}
		return ctx.spValue(spark.CPMM(ra, rb), ra, rb), nil
	case "mm":
		return ctx.execSPMatMul(inst)
	case "+", "-", "*", "/", "min", "max", ">", "<":
		return ctx.execSPBinary(inst)
	case "exp", "log", "sqrt", "abs", "sigmoid", "relu", "pow", "replaceNaN":
		v, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		x := ctx.ensureRDD(v, inst.Inputs[0])
		f := unaryFunc(inst)
		out := spark.MapElementwise(x, nil, inst.Op,
			func(p, _ *data.Matrix) *data.Matrix { return f(p) })
		return ctx.spValue(out, x), nil
	case "rowSums":
		v, err := ctx.operand(inst, 0)
		if err != nil {
			return nil, err
		}
		x := ctx.ensureRDD(v, inst.Inputs[0])
		cells := float64(v.Rows * v.Cols)
		out := x.MapPartitions("rowSums", v.Rows, 1,
			func(int) float64 { return cells }, nil,
			func(_ int, p *data.Matrix) *data.Matrix { return data.RowSums(p) })
		return ctx.spValue(out, x), nil
	case "colSums", "colMeans", "colVars", "colMins", "colMaxs", "sum", "mean":
		return ctx.execSPAggregate(inst)
	case "imputeMean":
		return ctx.execSPImputeMean(inst)
	case "scale":
		return ctx.execSPScale(inst)
	case "minmax":
		return ctx.execSPMinMax(inst)
	default:
		return nil, fmt.Errorf("unknown SP opcode %q", inst.Op)
	}
}

// spValue wraps an RDD result recording its parents for lazy GC.
func (ctx *Context) spValue(out *spark.RDD, children ...*spark.RDD) *Value {
	v := NewRDDValue(out)
	v.children = children
	return v
}

func (ctx *Context) spValueB(out *spark.RDD, children []*spark.RDD, bcs ...*spark.Broadcast) *Value {
	v := NewRDDValue(out)
	v.children = children
	v.bcasts = bcs
	return v
}

// execSPMatMul selects the distributed matmul variant: a broadcast row
// vector on the left (vecmm), a broadcastable right operand (mapmm), or a
// zip cross-product.
func (ctx *Context) execSPMatMul(inst *compiler.Instruction) (*Value, error) {
	a, err := ctx.operand(inst, 0)
	if err != nil {
		return nil, err
	}
	b, err := ctx.operand(inst, 1)
	if err != nil {
		return nil, err
	}
	switch {
	case a.Rows == 1:
		// v^T X: broadcast the vector, shuffle-free map plus small agg.
		rb := ctx.ensureRDD(b, inst.Inputs[1])
		bc := ctx.ensureBcast(a)
		return ctx.spValueB(spark.VecMM(bc, rb), []*spark.RDD{rb}, bc), nil
	case b.SizeBytes() <= ctx.Conf.Compiler.OpMemBudget:
		// X W with small W: broadcast-based multiply.
		ra := ctx.ensureRDD(a, inst.Inputs[0])
		bc := ctx.ensureBcast(b)
		return ctx.spValueB(spark.MapMM(ra, bc, inst.Inputs[1]), []*spark.RDD{ra}, bc), nil
	case a.SizeBytes() <= ctx.Conf.Compiler.OpMemBudget:
		// Small left operand against a distributed right: broadcast A and
		// sum partition partials behind a shuffle.
		rb := ctx.ensureRDD(b, inst.Inputs[1])
		bc := ctx.ensureBcast(a)
		return ctx.spValueB(spark.LeftMM(bc, rb), []*spark.RDD{rb}, bc), nil
	default:
		return nil, fmt.Errorf("distributed mm with two large operands is not supported")
	}
}

// execSPBinary runs a distributed elementwise op: co-partitioned zip when
// both sides are large, broadcast otherwise.
func (ctx *Context) execSPBinary(inst *compiler.Instruction) (*Value, error) {
	a, err := ctx.operand(inst, 0)
	if err != nil {
		return nil, err
	}
	b, err := ctx.operand(inst, 1)
	if err != nil {
		return nil, err
	}
	f := binFunc(inst.Op)
	// The larger side is distributed; swap so a is the distributed one but
	// preserve operand order in the kernel.
	swapped := false
	if b.SizeBytes() > a.SizeBytes() {
		a, b = b, a
		swapped = true
	}
	apply := func(x, y *data.Matrix) *data.Matrix {
		if swapped {
			return f(y, x)
		}
		return f(x, y)
	}
	ra := ctx.ensureRDD(a, inst.Inputs[0])
	if b.SizeBytes() <= ctx.Conf.Compiler.OpMemBudget || b.Rows != a.Rows {
		bc := ctx.ensureBcast(b)
		out := spark.MapElementwise(ra, bc, inst.Op, apply)
		return ctx.spValueB(out, []*spark.RDD{ra}, bc), nil
	}
	rb := ctx.ensureRDD(b, inst.Inputs[1])
	if ra.NumPartitions() != rb.NumPartitions() {
		bc := ctx.ensureBcast(b)
		out := spark.MapElementwise(ra, bc, inst.Op, apply)
		return ctx.spValueB(out, []*spark.RDD{ra}, bc), nil
	}
	out := spark.Elementwise(ra, rb, inst.Op, apply)
	return ctx.spValue(out, ra, rb), nil
}

// execSPAggregate implements full and column aggregates behind shuffles.
func (ctx *Context) execSPAggregate(inst *compiler.Instruction) (*Value, error) {
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return nil, err
	}
	x := ctx.ensureRDD(v, inst.Inputs[0])
	rows := float64(v.Rows)
	switch inst.Op {
	case "colSums":
		return ctx.spValue(spark.ColAggregate(x, "sum", data.ColSums, data.Add), x), nil
	case "colMins":
		return ctx.spValue(spark.ColAggregate(x, "min", data.ColMins, data.MinElem), x), nil
	case "colMaxs":
		return ctx.spValue(spark.ColAggregate(x, "max", data.ColMaxs, data.MaxElem), x), nil
	case "colMeans":
		sums := spark.ColAggregate(x, "sum", data.ColSums, data.Add)
		out := spark.MapElementwise(sums, nil, "/n",
			func(p, _ *data.Matrix) *data.Matrix { return data.MulScalar(p, 1/rows) })
		return ctx.spValue(out, x, sums), nil
	case "colVars":
		stats := spark.ColAggregate(x, "var",
			func(p *data.Matrix) *data.Matrix {
				return data.RBind(data.ColSums(p), data.ColSums(data.PowScalar(p, 2)))
			},
			data.Add)
		out := spark.MapElementwise(stats, nil, "finvar",
			func(p, _ *data.Matrix) *data.Matrix {
				res := data.New(1, p.Cols)
				for j := 0; j < p.Cols; j++ {
					mu := p.At(0, j) / rows
					res.Set(0, j, p.At(1, j)/rows-mu*mu)
				}
				return res
			})
		return ctx.spValue(out, x, stats), nil
	case "sum", "mean":
		agg := spark.ColAggregate(x, "sum", data.ColSums, data.Add)
		div := 1.0
		if inst.Op == "mean" {
			div = rows * float64(v.Cols)
		}
		out := spark.MapElementwise(agg, nil, "total",
			func(p, _ *data.Matrix) *data.Matrix {
				if inst.Op == "mean" {
					return data.Scalar(data.Sum(p) / div)
				}
				return data.Scalar(data.Sum(p))
			})
		return ctx.spValue(out, x, agg), nil
	}
	return nil, fmt.Errorf("unknown SP aggregate %q", inst.Op)
}

// colStats collects per-column (sum, count) over observed values of a
// distributed matrix; the collect is a reusable Spark action.
func (ctx *Context) nanColMeans(x *spark.RDD, cols int) *data.Matrix {
	stats := spark.ColAggregate(x, "nanstats",
		func(p *data.Matrix) *data.Matrix {
			sums := data.New(1, p.Cols)
			counts := data.New(1, p.Cols)
			for i := 0; i < p.Rows; i++ {
				for j := 0; j < p.Cols; j++ {
					if v := p.At(i, j); !math.IsNaN(v) {
						sums.Data[j] += v
						counts.Data[j]++
					}
				}
			}
			return data.RBind(sums, counts)
		}, data.Add)
	collected := ctx.SC.Collect(stats)
	means := data.New(1, cols)
	for j := 0; j < cols; j++ {
		if c := collected.At(1, j); c > 0 {
			means.Data[j] = collected.At(0, j) / c
		}
	}
	return means
}

// execSPImputeMean replaces NaNs column-wise in two distributed phases.
func (ctx *Context) execSPImputeMean(inst *compiler.Instruction) (*Value, error) {
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return nil, err
	}
	x := ctx.ensureRDD(v, inst.Inputs[0])
	means := ctx.nanColMeans(x, v.Cols)
	bc := ctx.SC.NewBroadcast(means, false)
	out := spark.MapElementwise(x, bc, "impute", func(p, mu *data.Matrix) *data.Matrix {
		res := p.Clone()
		for i := 0; i < res.Rows; i++ {
			for j := 0; j < res.Cols; j++ {
				if math.IsNaN(res.At(i, j)) {
					res.Set(i, j, mu.At(0, j))
				}
			}
		}
		return res
	})
	return ctx.spValueB(out, []*spark.RDD{x}, bc), nil
}

// execSPScale standardizes columns in two distributed phases.
func (ctx *Context) execSPScale(inst *compiler.Instruction) (*Value, error) {
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return nil, err
	}
	x := ctx.ensureRDD(v, inst.Inputs[0])
	rows := float64(v.Rows)
	stats := spark.ColAggregate(x, "scstats",
		func(p *data.Matrix) *data.Matrix {
			return data.RBind(data.ColSums(p), data.ColSums(data.PowScalar(p, 2)))
		}, data.Add)
	collected := ctx.SC.Collect(stats)
	musd := data.New(2, v.Cols)
	for j := 0; j < v.Cols; j++ {
		mu := collected.At(0, j) / rows
		va := collected.At(1, j)/rows - mu*mu
		musd.Set(0, j, mu)
		if va > 0 {
			musd.Set(1, j, math.Sqrt(va))
		}
	}
	bc := ctx.SC.NewBroadcast(musd, false)
	out := spark.MapElementwise(x, bc, "scale", func(p, ms *data.Matrix) *data.Matrix {
		res := data.New(p.Rows, p.Cols)
		for i := 0; i < p.Rows; i++ {
			for j := 0; j < p.Cols; j++ {
				d := p.At(i, j) - ms.At(0, j)
				if sd := ms.At(1, j); sd > 0 {
					d /= sd
				}
				res.Set(i, j, d)
			}
		}
		return res
	})
	return ctx.spValueB(out, []*spark.RDD{x, stats}, bc), nil
}

// execSPMinMax rescales columns to [0,1] in two distributed phases.
func (ctx *Context) execSPMinMax(inst *compiler.Instruction) (*Value, error) {
	v, err := ctx.operand(inst, 0)
	if err != nil {
		return nil, err
	}
	x := ctx.ensureRDD(v, inst.Inputs[0])
	lo := ctx.SC.Collect(spark.ColAggregate(x, "min", data.ColMins, data.MinElem))
	hi := ctx.SC.Collect(spark.ColAggregate(x, "max", data.ColMaxs, data.MaxElem))
	lohi := data.RBind(lo, hi)
	bc := ctx.SC.NewBroadcast(lohi, false)
	out := spark.MapElementwise(x, bc, "minmax", func(p, b *data.Matrix) *data.Matrix {
		res := data.New(p.Rows, p.Cols)
		for i := 0; i < p.Rows; i++ {
			for j := 0; j < p.Cols; j++ {
				if r := b.At(1, j) - b.At(0, j); r > 0 {
					res.Set(i, j, (p.At(i, j)-b.At(0, j))/r)
				}
			}
		}
		return res
	})
	return ctx.spValueB(out, []*spark.RDD{x}, bc), nil
}
