// Package ir defines the program representation of the mini ML system:
// programs are hierarchies of blocks (basic blocks, for/while/if blocks,
// function definitions) where each basic block carries a DAG of operator
// nodes, mirroring SystemDS's program compilation model (§2.1). The
// compiler package lowers blocks to backend-placed instruction streams; the
// runtime interprets them with lineage tracing and reuse.
package ir

import (
	"fmt"
	"strconv"
)

// Node is one operator in an expression DAG. Nodes are pure values; all
// operator-specific parameters (seeds, dimensions, conv geometry) live in
// Attrs so they appear in lineage data items.
type Node struct {
	Op     string
	Inputs []*Node
	Attrs  map[string]string
}

// NewNode constructs an operator node.
func NewNode(op string, inputs ...*Node) *Node {
	return &Node{Op: op, Inputs: inputs}
}

// WithAttr returns the node after setting an attribute (chainable).
func (n *Node) WithAttr(k, v string) *Node {
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
	n.Attrs[k] = v
	return n
}

// Attr returns an attribute value or "".
func (n *Node) Attr(k string) string {
	if n.Attrs == nil {
		return ""
	}
	return n.Attrs[k]
}

// AttrInt returns an integer attribute, or def if absent.
func (n *Node) AttrInt(k string, def int) int {
	if s := n.Attr(k); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// Leaf constructors.

// Var references a program variable.
func Var(name string) *Node { return NewNode("var").WithAttr("name", name) }

// Lit is a scalar literal.
func Lit(v float64) *Node {
	return NewNode("lit").WithAttr("value", strconv.FormatFloat(v, 'g', -1, 64))
}

// Operator constructors (the public expression-building API).

// Rand creates a uniform random matrix; sparsity 1 means dense.
func Rand(rows, cols int, min, max, sparsity float64, seed int64) *Node {
	return NewNode("rand").
		WithAttr("rows", strconv.Itoa(rows)).WithAttr("cols", strconv.Itoa(cols)).
		WithAttr("min", fmt.Sprint(min)).WithAttr("max", fmt.Sprint(max)).
		WithAttr("sparsity", fmt.Sprint(sparsity)).WithAttr("seed", fmt.Sprint(seed))
}

// T transposes.
func T(a *Node) *Node { return NewNode("t", a) }

// MatMul multiplies matrices.
func MatMul(a, b *Node) *Node { return NewNode("mm", a, b) }

// TSMM computes a^T a.
func TSMM(a *Node) *Node { return NewNode("tsmm", a) }

// Solve solves a linear system.
func Solve(a, b *Node) *Node { return NewNode("solve", a, b) }

// Binary elementwise operators with broadcasting.
func Add(a, b *Node) *Node { return NewNode("+", a, b) }
func Sub(a, b *Node) *Node { return NewNode("-", a, b) }
func Mul(a, b *Node) *Node { return NewNode("*", a, b) }
func Div(a, b *Node) *Node { return NewNode("/", a, b) }
func Min(a, b *Node) *Node { return NewNode("min", a, b) }
func Max(a, b *Node) *Node { return NewNode("max", a, b) }
func Gt(a, b *Node) *Node  { return NewNode(">", a, b) }
func Lt(a, b *Node) *Node  { return NewNode("<", a, b) }

// Unary elementwise operators.
func Exp(a *Node) *Node     { return NewNode("exp", a) }
func Log(a *Node) *Node     { return NewNode("log", a) }
func Sqrt(a *Node) *Node    { return NewNode("sqrt", a) }
func Abs(a *Node) *Node     { return NewNode("abs", a) }
func Sigmoid(a *Node) *Node { return NewNode("sigmoid", a) }
func ReLU(a *Node) *Node    { return NewNode("relu", a) }
func Softmax(a *Node) *Node { return NewNode("softmax", a) }

// Pow raises elementwise to a scalar power.
func Pow(a *Node, p float64) *Node {
	return NewNode("pow", a).WithAttr("p", fmt.Sprint(p))
}

// Aggregations.
func Sum(a *Node) *Node       { return NewNode("sum", a) }
func Mean(a *Node) *Node      { return NewNode("mean", a) }
func RowSums(a *Node) *Node   { return NewNode("rowSums", a) }
func ColSums(a *Node) *Node   { return NewNode("colSums", a) }
func ColMeans(a *Node) *Node  { return NewNode("colMeans", a) }
func ColVars(a *Node) *Node   { return NewNode("colVars", a) }
func ColMins(a *Node) *Node   { return NewNode("colMins", a) }
func ColMaxs(a *Node) *Node   { return NewNode("colMaxs", a) }
func RowMaxIdx(a *Node) *Node { return NewNode("rowMaxIdx", a) }
func Nrow(a *Node) *Node      { return NewNode("nrow", a) }
func Ncol(a *Node) *Node      { return NewNode("ncol", a) }

// Structural operators.
func CBind(a, b *Node) *Node { return NewNode("cbind", a, b) }
func RBind(a, b *Node) *Node { return NewNode("rbind", a, b) }
func Diag(a *Node) *Node     { return NewNode("diag", a) }

// Slice extracts rows [r0,r1) and cols [c0,c1); -1 bounds mean "end".
func Slice(a *Node, r0, r1, c0, c1 int) *Node {
	return NewNode("slice", a).
		WithAttr("r0", strconv.Itoa(r0)).WithAttr("r1", strconv.Itoa(r1)).
		WithAttr("c0", strconv.Itoa(c0)).WithAttr("c1", strconv.Itoa(c1))
}

// SliceRowsVar slices rows [lo, lo+n) where lo is a scalar variable value;
// used for mini-batch extraction inside loops.
func SliceRowsVar(a, lo *Node, n int) *Node {
	return NewNode("sliceRows", a, lo).WithAttr("n", strconv.Itoa(n))
}

// NN operators.
func Dropout(a *Node, p float64, seed int64) *Node {
	return NewNode("dropout", a).WithAttr("p", fmt.Sprint(p)).WithAttr("seed", fmt.Sprint(seed))
}

// DropoutVar uses a scalar variable as the dropout rate (for tuning loops).
func DropoutVar(a, p *Node, seed int64) *Node {
	return NewNode("dropoutv", a, p).WithAttr("seed", fmt.Sprint(seed))
}

// Conv2D performs 2-D convolution; w rows are filters.
func Conv2D(x, w *Node, cIn, h, width, kH, kW, stride, pad int) *Node {
	return NewNode("conv2d", x, w).
		WithAttr("cin", strconv.Itoa(cIn)).
		WithAttr("h", strconv.Itoa(h)).WithAttr("w", strconv.Itoa(width)).
		WithAttr("kh", strconv.Itoa(kH)).WithAttr("kw", strconv.Itoa(kW)).
		WithAttr("stride", strconv.Itoa(stride)).WithAttr("pad", strconv.Itoa(pad))
}

// MaxPool performs 2-D max pooling.
func MaxPool(x *Node, c, h, width, poolH, poolW, stride int) *Node {
	return NewNode("maxpool", x).
		WithAttr("c", strconv.Itoa(c)).
		WithAttr("h", strconv.Itoa(h)).WithAttr("w", strconv.Itoa(width)).
		WithAttr("ph", strconv.Itoa(poolH)).WithAttr("pw", strconv.Itoa(poolW)).
		WithAttr("stride", strconv.Itoa(stride))
}

// Feature transformations.
func ImputeMean(a *Node) *Node { return NewNode("imputeMean", a) }
func ImputeMode(a *Node) *Node { return NewNode("imputeMode", a) }
func OutlierIQR(a *Node) *Node { return NewNode("outlierIQR", a) }
func Scale(a *Node) *Node      { return NewNode("scale", a) }
func MinMax(a *Node) *Node     { return NewNode("minmax", a) }
func Recode(a *Node) *Node     { return NewNode("recode", a) }
func OneHot(a *Node) *Node     { return NewNode("onehot", a) }
func OneHotFixed(a *Node, domain int) *Node {
	return NewNode("onehotf", a).WithAttr("domain", strconv.Itoa(domain))
}
func Bin(a *Node, n int) *Node { return NewNode("bin", a).WithAttr("bins", strconv.Itoa(n)) }
func ReplaceNaN(a *Node, v float64) *Node {
	return NewNode("replaceNaN", a).WithAttr("value", fmt.Sprint(v))
}
func PCA(a *Node, k int, seed int64) *Node {
	return NewNode("pca", a).WithAttr("k", strconv.Itoa(k)).WithAttr("seed", fmt.Sprint(seed))
}
func UnderSample(xy *Node, seed int64) *Node {
	return NewNode("usample", xy).WithAttr("seed", fmt.Sprint(seed))
}
