// Package compiler lowers ir programs to backend-placed instruction
// streams, mirroring SystemDS's dynamic recompilation: a basic block is
// compiled against the current variable sizes, so operator placement
// (CP/Spark/GPU) reflects the actual data. It also implements MEMPHIS's
// compiler integration (§5): prefetch and broadcast operator insertion,
// checkpoint placement, eviction injection, delay-factor/storage-level
// auto-tuning, and the MAXPARALLELIZE operator-ordering algorithm.
package compiler

import (
	"fmt"
	"strings"

	"memphis/internal/core"
	"memphis/internal/ir"
)

// Kind distinguishes ordinary operators from the special cache-management
// and data-exchange operators MEMPHIS adds.
type Kind int

const (
	// KindOp is an ordinary computational instruction.
	KindOp Kind = iota
	// KindPrefetch asynchronously fetches a remote (Spark/GPU) result to
	// the host without blocking the instruction stream (§5.1).
	KindPrefetch
	// KindBroadcast asynchronously registers a local matrix as a Spark
	// broadcast variable (§5.1).
	KindBroadcast
	// KindCheckpoint persists an RDD-backed variable (§5.2).
	KindCheckpoint
	// KindFree releases a block-local temporary at its last-use point.
	// Inserted by the memory planner (internal/memplan) so intermediates
	// are dropped deterministically instead of waiting for block end.
	KindFree
)

func (k Kind) String() string {
	switch k {
	case KindPrefetch:
		return "prefetch"
	case KindBroadcast:
		return "broadcast"
	case KindCheckpoint:
		return "chkpoint"
	case KindFree:
		return "free"
	default:
		return "op"
	}
}

// Instruction is one element of a linearized instruction stream. Operands
// reference variables by name; literal scalar operands are encoded as
// "#<value>".
type Instruction struct {
	Kind    Kind
	Op      string
	Inputs  []string
	Outputs []string
	Attrs   map[string]string
	Backend core.Backend

	// Shape is the compile-time output size estimate; Flops the estimated
	// compute cost in floating-point operations.
	Shape ir.Shape
	Flops float64

	// InShapes carries the compile-time input size estimates (parallel to
	// Inputs; literals get the 1x1 scalar shape). The memory planner's
	// liveness analysis sizes block-external operands from these.
	InShapes []ir.Shape

	// prep is the execution-ready view Prepare fills in; nil until then.
	prep *prepared
}

// Attr returns an instruction attribute or "".
func (in *Instruction) Attr(k string) string {
	if in.Attrs == nil {
		return ""
	}
	return in.Attrs[k]
}

// Output returns the single output name (panics for multi-output).
func (in *Instruction) Output() string {
	if len(in.Outputs) != 1 {
		panic(fmt.Sprintf("compiler: instruction %s has %d outputs", in.Op, len(in.Outputs)))
	}
	return in.Outputs[0]
}

// Cacheable reports whether the instruction's output is subject to
// fine-grained reuse: assignments, checkpoints, function calls and
// dimension queries never probe or put the lineage cache.
func (in *Instruction) Cacheable() bool {
	switch in.Op {
	case "assign", "chkpoint", "call", "nrow", "ncol":
		return false
	}
	return true
}

// String renders the instruction in SystemDS's "BACKEND op outputs <- inputs"
// style for debugging and tests. Fused instructions render their
// constituent op list so trace dumps and profile diffs stay readable.
func (in *Instruction) String() string {
	if in.Op == ir.FusedOp {
		return fmt.Sprintf("%s fused[%s] %s <- %s", in.Backend,
			FusedOpList(in.Attr("prog")),
			strings.Join(in.Outputs, ","), strings.Join(in.Inputs, ","))
	}
	return fmt.Sprintf("%s %s %s <- %s", in.Backend, in.Op,
		strings.Join(in.Outputs, ","), strings.Join(in.Inputs, ","))
}

// IsLiteral reports whether an operand name encodes an inline literal.
func IsLiteral(operand string) bool { return strings.HasPrefix(operand, "#") }

// LiteralOperand encodes a scalar literal as an operand name.
func LiteralOperand(v string) string { return "#" + v }

// LiteralValue decodes a literal operand.
func LiteralValue(operand string) string { return strings.TrimPrefix(operand, "#") }
