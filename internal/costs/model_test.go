package costs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCalibration(t *testing.T) {
	m := Default()
	// Table 2: Spark exchange bandwidth 15 GB/s, H2D 6.1 GB/s.
	if m.SparkExchangeBW != 15e9 {
		t.Errorf("SparkExchangeBW = %g, want 15e9", m.SparkExchangeBW)
	}
	if m.H2DBW != 6.1e9 {
		t.Errorf("H2DBW = %g, want 6.1e9", m.H2DBW)
	}
	// Figure 2(d) shape: for a 128x1000 affine output, alloc+free should be
	// a few times the kernel compute, and D2H copy larger still.
	compute := Compute(MatMulFlops(128, 1000, 1000), m.GPUFlops)
	allocFree := m.CudaMalloc + m.CudaFree
	copyT := Transfer(128*1000*8, m.D2HBW, m.CopyLatency)
	if allocFree < 2*compute || allocFree > 10*compute {
		t.Errorf("alloc+free/compute = %.2f, want within [2,10]", allocFree/compute)
	}
	if copyT < 4*compute || copyT > 16*compute {
		t.Errorf("copy/compute = %.2f, want within [4,16]", copyT/compute)
	}
	// Probing should cost at least as much as tracing (Figure 11(a)).
	if m.Probe < m.Trace {
		t.Errorf("Probe (%g) < Trace (%g)", m.Probe, m.Trace)
	}
}

func TestMatMulFlops(t *testing.T) {
	if got := MatMulFlops(2, 3, 4); got != 48 {
		t.Fatalf("MatMulFlops(2,3,4) = %g, want 48", got)
	}
}

func TestSolveFlops(t *testing.T) {
	if got := SolveFlops(3); got < 17 || got > 19 {
		t.Fatalf("SolveFlops(3) = %g, want ~18", got)
	}
}

func TestConv2DFlops(t *testing.T) {
	// 1 image, 1 in-channel, 1 out-channel, 2x2 output, 3x3 kernel.
	if got := Conv2DFlops(1, 1, 1, 2, 2, 3, 3); got != 72 {
		t.Fatalf("Conv2DFlops = %g, want 72", got)
	}
}

func TestTransferZeroSize(t *testing.T) {
	if got := Transfer(0, 1e9, 5e-6); got != 5e-6 {
		t.Fatalf("Transfer(0) = %g, want latency only", got)
	}
}

func TestComputeNonNegative(t *testing.T) {
	f := func(flops float64) bool { return Compute(flops, 1e9) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferMonotoneInSize(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return Transfer(x, 1e9, 1e-6) <= Transfer(y, 1e9, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Model)
	}{
		{"zero CPUFlops", func(m *Model) { m.CPUFlops = 0 }},
		{"negative Probe", func(m *Model) { m.Probe = -1e-6 }},
		{"NaN CollectBW", func(m *Model) { m.CollectBW = math.NaN() }},
		{"Inf SparkJobOverhead", func(m *Model) { m.SparkJobOverhead = math.Inf(1) }},
		{"zero SpillSetup", func(m *Model) { m.SpillSetup = 0 }},
	} {
		m := Default()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid model", tc.name)
		}
	}
}
