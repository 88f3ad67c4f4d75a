package costs

import (
	"math"
	"math/bits"
)

// Thresholds are the compiler's static placement cut-offs, derived from a
// cost model's break-even points instead of free-standing constants.
type Thresholds struct {
	// OpMemBudget is the operation-memory bytes above which operators
	// compile to Spark.
	OpMemBudget int64
	// GPUMinCells is the minimum output cell count for starting a GPU
	// chain.
	GPUMinCells int
}

// The simulation-scale anchors: the hand-calibrated thresholds every seed
// baseline was pinned under (1 MB plays the role of the paper's 7 GB;
// 4096 cells the smallest profitable GPU chain start). DeriveThresholds
// scales the anchors by the ratio of the model's break-even points to
// Default()'s, so DeriveThresholds(Default()) reproduces the anchors
// exactly while a model with, say, double the Spark job overhead moves
// the CP/Spark cut proportionally higher.
const (
	anchorOpMemBudget = 1 << 20
	anchorGPUMinCells = 4096
	// transWeight is the transcendental elementwise flop weight
	// (ElemwiseFlops weight ~10 for exp/log), the op class whose GPU
	// crossover the GPU anchor models.
	transWeight = 10
)

// sparkBreakEvenCells is the unit-weight cell count at which local compute
// equals the Spark job launch overhead — the scale where shipping the
// operator to the cluster starts paying for itself.
func sparkBreakEvenCells(m *Model) float64 {
	adv := 1/m.CPUFlops - 1/m.SparkFlops
	if adv <= 0 {
		return math.Inf(1)
	}
	return m.SparkJobOverhead / adv
}

// gpuBreakEvenCells is the transcendental-weight cell count at which local
// compute equals the GPU fixed overheads (allocation, kernel launch, copy
// latency).
func gpuBreakEvenCells(m *Model) float64 {
	adv := transWeight/m.CPUFlops - transWeight/m.GPUFlops
	if adv <= 0 {
		return math.Inf(1)
	}
	return (m.CudaMalloc + m.KernelLaunch + m.CopyLatency) / adv
}

// DeriveThresholds computes placement thresholds for a model by scaling
// the simulation anchors with the model's break-even points relative to
// Default(). A backend whose break-even diverges (it never pays off under
// the model) keeps the anchor: placement is static and needs a finite cut.
func DeriveThresholds(m *Model) Thresholds {
	ref := Default()
	t := Thresholds{OpMemBudget: anchorOpMemBudget, GPUMinCells: anchorGPUMinCells}
	if r := sparkBreakEvenCells(m) / sparkBreakEvenCells(ref); usableRatio(r) {
		t.OpMemBudget = scalePositive(anchorOpMemBudget, r)
	}
	if r := gpuBreakEvenCells(m) / gpuBreakEvenCells(ref); usableRatio(r) {
		t.GPUMinCells = int(scalePositive(anchorGPUMinCells, r))
	}
	return t
}

func usableRatio(r float64) bool {
	return r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r)
}

// scalePositive scales v by r, clamped to [1, 2^61] so derived thresholds
// stay positive and overflow-free.
func scalePositive(v int64, r float64) int64 {
	s := float64(v) * r
	if s < 1 {
		return 1
	}
	if s > float64(int64(1)<<61) {
		return int64(1) << 61
	}
	return int64(s)
}

// ShapeClass buckets an output cell count into a power-of-two size class
// (floor(log2(cells))), the granularity of reuse tallies. Non-positive
// counts map to class 0.
func ShapeClass(cells int64) int {
	if cells <= 0 {
		return 0
	}
	return bits.Len64(uint64(cells)) - 1
}
