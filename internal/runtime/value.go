// Package runtime interprets compiled instruction streams with MEMPHIS's
// lineage tracing and reuse integrated on the main execution path (paper
// Figure 4): every instruction is traced, probed against the hierarchical
// lineage cache, and either skipped (reuse) or executed on its backend and
// PUT into the cache. The runtime owns the multi-backend data objects of
// Figure 2(a): a variable's value may simultaneously exist as a host
// matrix, a (possibly unmaterialized) RDD, a broadcast handle, and a GPU
// pointer, with transfers charged lazily when a backend needs it.
package runtime

import (
	"memphis/internal/data"
	"memphis/internal/gpu"
	"memphis/internal/lineage"
	"memphis/internal/spark"
	"memphis/internal/vtime"
)

// Value is a multi-backend data object.
type Value struct {
	Rows, Cols int

	M     *data.Matrix
	RDD   *spark.RDD
	Bcast *spark.Broadcast
	GPU   *gpu.Pointer

	// tSrc marks a deferred host value: the logical matrix is t(tSrc) and no
	// buffer exists until a consumer asks for host data (host). A CP
	// transpose binds one, so a following CP matmul can read the source
	// directly (data.MatMulT) and the transpose is never built. Every
	// accounting path sees the logical Rows x Cols.
	tSrc *data.Matrix

	// Pending is an in-flight asynchronous fetch of the host copy
	// (prefetch); the first host access waits on it.
	Pending *vtime.FutureChain

	// Lin is the lineage item identifying this value.
	Lin *lineage.Item

	// children and bcasts record the dangling child RDDs and broadcast
	// variables a distributed value depends on, handed to the lineage
	// cache for lazy garbage collection (§4.1).
	children []*spark.RDD
	bcasts   []*spark.Broadcast
}

// NewHostValue wraps a host matrix.
func NewHostValue(m *data.Matrix) *Value {
	return &Value{Rows: m.Rows, Cols: m.Cols, M: m}
}

// NewScalar wraps a scalar.
func NewScalar(v float64) *Value { return NewHostValue(data.Scalar(v)) }

// NewRDDValue wraps a distributed matrix.
func NewRDDValue(r *spark.RDD) *Value {
	rows, cols := r.Dims()
	return &Value{Rows: rows, Cols: cols, RDD: r}
}

// NewGPUValue wraps a device-resident matrix.
func NewGPUValue(p *gpu.Pointer, rows, cols int) *Value {
	return &Value{Rows: rows, Cols: cols, GPU: p}
}

// IsScalar reports whether the value is 1x1.
func (v *Value) IsScalar() bool { return v.Rows == 1 && v.Cols == 1 }

// SizeBytes returns the dense size of the logical matrix.
func (v *Value) SizeBytes() int64 { return int64(v.Rows) * int64(v.Cols) * 8 }

// newDeferredT returns the deferred value t(src).
func newDeferredT(src *data.Matrix) *Value {
	return &Value{Rows: src.Cols, Cols: src.Rows, tSrc: src}
}

// HasHost reports whether a host copy exists (possibly still in flight, or
// deferred and not yet materialized).
func (v *Value) HasHost() bool { return v.M != nil || v.tSrc != nil }

// host returns the host copy without waiting on Pending, materializing a
// deferred value on first use; nil when the value lives on another backend
// only. It is the one place a deferred transpose is built.
func (v *Value) host() *data.Matrix {
	if v.M == nil && v.tSrc != nil {
		v.M = data.Transpose(v.tSrc)
		v.tSrc = nil
	}
	return v.M
}

// HasGPU reports whether a valid device copy exists.
func (v *Value) HasGPU() bool { return v.GPU != nil && v.GPU.Valid() }
