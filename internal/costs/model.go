// Package costs defines the analytic cost model that the MEMPHIS simulator
// charges onto the virtual clock. The constants are calibrated against the
// paper's measurements: Table 2 (backend bandwidths), Figure 2(c) (Spark job
// overheads dominating eager caching), Figure 2(d) (GPU allocation/free 4.6x
// and copy 9x of kernel compute for a small affine layer), and Figure 11
// (per-instruction interpretation, tracing, and probing overheads).
package costs

// Model holds all tunable cost constants. Times are seconds, sizes bytes,
// rates bytes/second or FLOP/second.
type Model struct {
	// Compute throughputs (effective, not peak).
	CPUFlops   float64 // local driver, multi-threaded ops
	GPUFlops   float64 // single GPU stream
	SparkFlops float64 // aggregate cluster throughput

	// Bandwidths (Table 2; host-to-device is pageable).
	SparkExchangeBW float64 // aggregate shuffle bandwidth
	CollectBW       float64 // executors -> driver link
	BroadcastBW     float64 // driver -> executors link
	H2DBW           float64 // host to GPU device
	D2HBW           float64 // GPU device to host
	DiskBW          float64 // local disk spill/restore
	MemBW           float64 // host memory copy

	// Spark scheduling overheads.
	SparkJobOverhead   float64 // DAGScheduler job launch
	SparkStageOverhead float64 // per stage
	SparkTaskOverhead  float64 // per task (partition)
	ExecutorReplace    float64 // replacing a lost executor (re-registration)

	// GPU driver overheads.
	CudaMalloc   float64 // cudaMalloc fixed cost
	CudaFree     float64 // cudaFree fixed cost (also syncs the stream)
	KernelLaunch float64 // per-kernel launch latency
	CopyLatency  float64 // per-copy fixed latency (H2D/D2H)

	// Interpreter overheads per instruction (Figure 11(a): Base is
	// dominated by interpretation for tiny inputs; tracing adds ~0.3x and
	// probing ~1x on top).
	Interpret float64 // variable/statistics management per instruction
	Trace     float64 // lineage-item construction + map insert
	Probe     float64 // cache probe (hash + equals)
	CachePut  float64 // cache insert + metadata

	// Buffer-pool / disk-spill management.
	SpillSetup float64 // fixed cost per spill or restore
}

// Default returns the calibrated model used by all experiments.
func Default() *Model {
	return &Model{
		CPUFlops:   50e9,  // ~ multi-threaded BLAS on one node
		GPUFlops:   10e12, // effective dense throughput of one A40
		SparkFlops: 400e9, // 8 workers

		SparkExchangeBW: 15e9, // Table 2
		CollectBW:       1.5e9,
		BroadcastBW:     1.5e9,
		H2DBW:           6.1e9, // Table 2, pageable
		D2HBW:           6.1e9,
		DiskBW:          0.5e9,
		MemBW:           20e9,

		SparkJobOverhead:   80e-3,
		SparkStageOverhead: 20e-3,
		SparkTaskOverhead:  1e-3,
		ExecutorReplace:    200e-3,

		CudaMalloc:   60e-6,
		CudaFree:     50e-6,
		KernelLaunch: 5e-6,
		CopyLatency:  20e-6,

		Interpret: 2e-6,
		Trace:     0.6e-6,
		Probe:     2e-6,
		CachePut:  1e-6,

		SpillSetup: 2e-3,
	}
}

// MatMulFlops returns the FLOP count of an (m x k) * (k x n) product.
func MatMulFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// ElemwiseFlops returns the FLOP count of an elementwise op over n cells.
// Weight scales for transcendental ops (exp, log ~ weight 10).
func ElemwiseFlops(n int, weight float64) float64 { return float64(n) * weight }

// SolveFlops returns the FLOP count of solving an n x n dense system.
func SolveFlops(n int) float64 { f := float64(n); return 2.0 / 3.0 * f * f * f }

// Conv2DFlops returns the FLOP count of a direct 2-D convolution.
func Conv2DFlops(batch, cIn, cOut, outH, outW, kH, kW int) float64 {
	return 2 * float64(batch) * float64(cOut) * float64(outH) * float64(outW) *
		float64(cIn) * float64(kH) * float64(kW)
}

// Transfer returns the time to move size bytes at rate bw with fixed latency.
func Transfer(size int64, bw, latency float64) float64 {
	if size <= 0 {
		return latency
	}
	return latency + float64(size)/bw
}

// Compute returns the time for flops work at rate r, never negative.
func Compute(flops, r float64) float64 {
	if flops <= 0 {
		return 0
	}
	return flops / r
}
