package ir

import "memphis/internal/key"

// FusedOp is the opcode of a compiler-fused elementwise chain: a single
// instruction whose "prog" attribute encodes the constituent elementwise/
// unary/scalar steps (see internal/data's fused interpreter for the step
// grammar). The compiler's fusion pass emits these over the linearized
// stream.
const FusedOp = "fused"

// FingerprintNode returns a structural hash of one expression sub-DAG with
// the same DAG-memoized node identity as Program.Fingerprint. The fusion
// pass stamps each fused instruction with the fingerprint of the sub-DAG it
// collapsed, so two fused chains are identical exactly when their source
// DAGs are.
func FingerprintNode(n *Node) uint64 {
	fp := fingerprinter{ids: make(map[*Node]int)}
	return fp.node(key.New(), n).Sum64()
}
