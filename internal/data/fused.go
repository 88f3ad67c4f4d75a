package data

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Fused elementwise interpreter. The compiler's fusion pass collapses a
// chain of elementwise/unary/scalar instructions into one instruction
// whose "prog" attribute encodes the chain as a tiny step program:
//
//	step    := op [ "{p=" raw "}" ] "(" arg ("," arg)* ")"
//	arg     := "$" leafIndex | "@" stepIndex
//	program := step (";" step)*
//
// Leaves are the fused instruction's inputs (matrices or scalar literals);
// "@k" references the value of an earlier step. The last step is the
// program's output. EvalFused executes the whole program as one loop with
// zero intermediate matrices when every step has the output's shape, and
// falls back to op-at-a-time evaluation with the ordinary kernels when
// runtime shapes drifted from the compile-time estimates (e.g. a clamped
// sliceRows) — both paths are bitwise-identical to unfused execution.

// FusedArg references either a leaf input (Leaf >= 0) or an earlier step's
// value (Leaf < 0, Step set).
type FusedArg struct {
	Leaf int
	Step int
}

// FusedStep is one constituent op of a fused program.
type FusedStep struct {
	Op   string
	PStr string // raw pow exponent as it appeared in the source attrs
	P    float64
	Args []FusedArg

	code uint8 // opcode resolved at parse time (no string dispatch per cell)
}

// Opcode enum for the per-cell inner loop.
const (
	opAdd uint8 = iota
	opSub
	opMul
	opDiv
	opMin
	opMax
	opGt
	opLt
	opExp
	opLog
	opSqrt
	opAbs
	opSigmoid
	opReLU
	opPow
	opBad
)

func opCode(op string) uint8 {
	switch op {
	case "+":
		return opAdd
	case "-":
		return opSub
	case "*":
		return opMul
	case "/":
		return opDiv
	case "min":
		return opMin
	case "max":
		return opMax
	case ">":
		return opGt
	case "<":
		return opLt
	case "exp":
		return opExp
	case "log":
		return opLog
	case "sqrt":
		return opSqrt
	case "abs":
		return opAbs
	case "sigmoid":
		return opSigmoid
	case "relu":
		return opReLU
	case "pow":
		return opPow
	default:
		return opBad
	}
}

// FusedProgram is a parsed fused-elementwise chain. The shape scratch makes
// repeated EvalFused calls allocation-free; a program must therefore not be
// evaluated concurrently with itself (the runtime driver is single-threaded
// per session, and each session parses its own programs).
type FusedProgram struct {
	Steps  []FusedStep
	Leaves int // number of leaf inputs referenced

	shapeR, shapeC []int        // per-step shape scratch, sized on first Eval
	fetch          []fusedFetch // per-arg fetch plan scratch (2 slots per step)
}

// fusedFetch is one argument's resolved access mode for the current
// evaluation: how to read the value at output cell (i, j).
type fusedFetch struct {
	mode uint8 // fetch mode (fetchEqual..fetchStep)
	idx  int   // leaf index (fetch modes) or step index (fetchStep)
}

const (
	fetchEqual uint8 = iota // leaf has the output shape: flat index
	fetchScalar
	fetchRow // 1 x cols leaf: index by j
	fetchCol // rows x 1 leaf: index by i
	fetchStep
	fetchNone // unary second slot
)

// ParseFused parses the "prog" attribute of a fused instruction.
func ParseFused(prog string) (*FusedProgram, error) {
	fp := &FusedProgram{}
	if prog == "" {
		return nil, fmt.Errorf("data: empty fused program")
	}
	for si, stepStr := range strings.Split(prog, ";") {
		open := strings.IndexByte(stepStr, '(')
		if open < 0 || !strings.HasSuffix(stepStr, ")") {
			return nil, fmt.Errorf("data: fused step %d %q: missing argument list", si, stepStr)
		}
		head, argStr := stepStr[:open], stepStr[open+1:len(stepStr)-1]
		st := FusedStep{}
		if brace := strings.IndexByte(head, '{'); brace >= 0 {
			param := head[brace:]
			head = head[:brace]
			if !strings.HasPrefix(param, "{p=") || !strings.HasSuffix(param, "}") {
				return nil, fmt.Errorf("data: fused step %d: bad parameter %q", si, param)
			}
			st.PStr = param[3 : len(param)-1]
			p, err := strconv.ParseFloat(st.PStr, 64)
			if err != nil {
				return nil, fmt.Errorf("data: fused step %d: bad exponent %q", si, st.PStr)
			}
			st.P = p
		}
		st.Op = head
		st.code = opCode(head)
		if st.PStr != "" && st.Op != "pow" {
			return nil, fmt.Errorf("data: fused step %d: op %q takes no parameter", si, st.Op)
		}
		if st.Op == "pow" && st.PStr == "" {
			st.P = 2 // pow defaults to squaring, matching the unfused attr default
		}
		for _, a := range strings.Split(argStr, ",") {
			if len(a) < 2 {
				return nil, fmt.Errorf("data: fused step %d: bad arg %q", si, a)
			}
			idx, err := strconv.Atoi(a[1:])
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("data: fused step %d: bad arg %q", si, a)
			}
			switch a[0] {
			case '$':
				st.Args = append(st.Args, FusedArg{Leaf: idx})
				if idx+1 > fp.Leaves {
					fp.Leaves = idx + 1
				}
			case '@':
				if idx >= si {
					return nil, fmt.Errorf("data: fused step %d: forward reference @%d", si, idx)
				}
				st.Args = append(st.Args, FusedArg{Leaf: -1, Step: idx})
			default:
				return nil, fmt.Errorf("data: fused step %d: bad arg %q", si, a)
			}
		}
		if n := len(st.Args); fusedBinary(st.Op) && n != 2 || !fusedBinary(st.Op) && n != 1 {
			return nil, fmt.Errorf("data: fused step %d: op %q with %d args", si, st.Op, n)
		}
		if !fusedBinary(st.Op) && !fusedUnary(st.Op) {
			return nil, fmt.Errorf("data: fused step %d: unknown op %q", si, st.Op)
		}
		fp.Steps = append(fp.Steps, st)
	}
	return fp, nil
}

func fusedBinary(op string) bool {
	switch op {
	case "+", "-", "*", "/", "min", "max", ">", "<":
		return true
	}
	return false
}

func fusedUnary(op string) bool {
	switch op {
	case "exp", "log", "sqrt", "abs", "sigmoid", "relu", "pow":
		return true
	}
	return false
}

// fusedStepVal computes one step's value from its (already broadcast)
// operands, replicating each unfused kernel's arithmetic exactly.
func fusedStepVal(code uint8, p, x, y float64) float64 {
	switch code {
	case opAdd:
		return x + y
	case opSub:
		return x - y
	case opMul:
		return x * y
	case opDiv:
		return x / y
	case opMin:
		return math.Min(x, y)
	case opMax:
		return math.Max(x, y)
	case opGt:
		if x > y {
			return 1
		}
		return 0
	case opLt:
		if x < y {
			return 1
		}
		return 0
	case opExp:
		return math.Exp(x)
	case opLog:
		return math.Log(x)
	case opSqrt:
		return math.Sqrt(x)
	case opAbs:
		return math.Abs(x)
	case opSigmoid:
		return 1 / (1 + math.Exp(-x))
	case opReLU:
		if x > 0 {
			return x
		}
		return 0
	case opPow:
		if p == 2 {
			return x * x
		}
		return math.Pow(x, p)
	default:
		panic(fmt.Sprintf("data: fused step with unknown opcode %d", code))
	}
}

// fetchVal reads one argument value at output cell (i, j); base is i*cols.
// The modes reproduce broadcastIndex's indexing exactly.
func fetchVal(f fusedFetch, leaves []*Matrix, vals []float64, base, i, j int) float64 {
	switch f.mode {
	case fetchEqual:
		return leaves[f.idx].Data[base+j]
	case fetchScalar:
		return leaves[f.idx].Data[0]
	case fetchRow:
		return leaves[f.idx].Data[j]
	case fetchCol:
		return leaves[f.idx].Data[i]
	default: // fetchStep
		return vals[f.idx]
	}
}

// simulateShapes fills the per-step shape scratch from the actual leaf
// shapes using the same rule as outShape (larger cell count wins, ties keep
// the first argument) and reports whether every step — not just the last —
// lands on the final output shape, which is the precondition for the
// single-loop fast path.
func (fp *FusedProgram) simulateShapes(leaves []*Matrix) (rows, cols int, uniform bool) {
	if fp.shapeR == nil {
		fp.shapeR = make([]int, len(fp.Steps))
		fp.shapeC = make([]int, len(fp.Steps))
	}
	argShape := func(a FusedArg) (int, int) {
		if a.Leaf >= 0 {
			return leaves[a.Leaf].Rows, leaves[a.Leaf].Cols
		}
		return fp.shapeR[a.Step], fp.shapeC[a.Step]
	}
	for i, st := range fp.Steps {
		r, c := argShape(st.Args[0])
		if len(st.Args) == 2 {
			r2, c2 := argShape(st.Args[1])
			if r2*c2 > r*c {
				r, c = r2, c2
			}
		}
		fp.shapeR[i], fp.shapeC[i] = r, c
	}
	last := len(fp.Steps) - 1
	rows, cols = fp.shapeR[last], fp.shapeC[last]
	for i := range fp.Steps {
		if fp.shapeR[i] != rows || fp.shapeC[i] != cols {
			return rows, cols, false
		}
	}
	return rows, cols, true
}

// EvalFused executes a fused program over the given leaf matrices. When all
// step shapes match the output shape the whole chain runs as one loop with
// zero intermediate matrices, writing into dst when dst holds exactly
// rows x cols cells (a caller recycling its own previous output) and into a
// fresh matrix otherwise; when the shapes drifted it falls back to
// op-at-a-time evaluation with the ordinary kernels and ignores dst. Both
// paths produce bitwise-identical results to executing the constituent
// instructions one by one, at any parallelism.
func EvalFused(fp *FusedProgram, leaves []*Matrix, dst *Matrix) *Matrix {
	if len(leaves) < fp.Leaves {
		panic(fmt.Sprintf("data: fused program wants %d leaves, got %d", fp.Leaves, len(leaves)))
	}
	rows, cols, uniform := fp.simulateShapes(leaves)
	if !uniform {
		return fp.evalStepwise(leaves)
	}
	out := dst
	if out != nil && len(out.Data) == rows*cols {
		out.Rows, out.Cols = rows, cols
	} else {
		out = New(rows, cols)
	}
	steps := fp.Steps
	// Resolve each argument's broadcast mode against the output shape once
	// per evaluation; the per-cell loop then runs on integer dispatch only.
	// Mode resolution mirrors broadcastIndex's case order (equal, scalar,
	// row, col) including its panic for non-broadcastable shapes.
	if fp.fetch == nil {
		fp.fetch = make([]fusedFetch, 2*len(steps))
	}
	for k := range steps {
		st := &steps[k]
		for ai := 0; ai < 2; ai++ {
			f := fusedFetch{mode: fetchNone}
			if ai < len(st.Args) {
				a := st.Args[ai]
				if a.Leaf < 0 {
					f = fusedFetch{mode: fetchStep, idx: a.Step}
				} else {
					b := leaves[a.Leaf]
					switch {
					case b.Rows == rows && b.Cols == cols:
						f = fusedFetch{mode: fetchEqual, idx: a.Leaf}
					case b.IsScalar():
						f = fusedFetch{mode: fetchScalar, idx: a.Leaf}
					case b.Rows == 1 && b.Cols == cols:
						f = fusedFetch{mode: fetchRow, idx: a.Leaf}
					case b.Cols == 1 && b.Rows == rows:
						f = fusedFetch{mode: fetchCol, idx: a.Leaf}
					default:
						panic(fmt.Sprintf("data: shapes %dx%d and %dx%d not broadcastable",
							rows, cols, b.Rows, b.Cols))
					}
				}
			}
			fp.fetch[2*k+ai] = f
		}
	}
	fetch := fp.fetch
	last := len(steps) - 1
	flops := float64(rows*cols) * float64(len(steps))
	parallelFor(rows, flops, func(lo, hi int) {
		vals := make([]float64, len(steps))
		for i := lo; i < hi; i++ {
			base := i * cols
			for j := 0; j < cols; j++ {
				for k := range steps {
					st := &steps[k]
					x := fetchVal(fetch[2*k], leaves, vals, base, i, j)
					var y float64
					if f := fetch[2*k+1]; f.mode != fetchNone {
						y = fetchVal(f, leaves, vals, base, i, j)
					}
					vals[k] = fusedStepVal(st.code, st.P, x, y)
				}
				out.Data[base+j] = vals[last]
			}
		}
	})
	return out
}

// evalStepwise runs the program one constituent kernel at a time — the
// bitwise reference semantics, used when runtime shapes are not uniform.
func (fp *FusedProgram) evalStepwise(leaves []*Matrix) *Matrix {
	vals := make([]*Matrix, len(fp.Steps))
	arg := func(a FusedArg) *Matrix {
		if a.Leaf >= 0 {
			return leaves[a.Leaf]
		}
		return vals[a.Step]
	}
	for i, st := range fp.Steps {
		a := arg(st.Args[0])
		if fusedBinary(st.Op) {
			vals[i] = binKernel(st.Op)(a, arg(st.Args[1]))
			continue
		}
		switch st.Op {
		case "exp":
			vals[i] = Exp(a)
		case "log":
			vals[i] = Log(a)
		case "sqrt":
			vals[i] = Sqrt(a)
		case "abs":
			vals[i] = Abs(a)
		case "sigmoid":
			vals[i] = Sigmoid(a)
		case "relu":
			vals[i] = ReLU(a)
		case "pow":
			vals[i] = PowScalar(a, st.P)
		}
	}
	return vals[len(vals)-1]
}

// binKernel maps a binary opcode to its exported kernel.
func binKernel(op string) func(a, b *Matrix) *Matrix {
	switch op {
	case "+":
		return Add
	case "-":
		return Sub
	case "*":
		return Mul
	case "/":
		return Div
	case "min":
		return MinElem
	case "max":
		return MaxElem
	case ">":
		return Greater
	case "<":
		return Less
	default:
		panic(fmt.Sprintf("data: no binary kernel for %q", op))
	}
}
