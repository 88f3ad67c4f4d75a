package costs

import "testing"

func TestShapeClass(t *testing.T) {
	cases := []struct {
		cells int64
		want  int
	}{{-1, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1 << 40, 40}}
	for _, c := range cases {
		if got := ShapeClass(c.cells); got != c.want {
			t.Errorf("ShapeClass(%d) = %d, want %d", c.cells, got, c.want)
		}
	}
}

func TestDeriveThresholdsAnchoredAtDefault(t *testing.T) {
	th := DeriveThresholds(Default())
	if th.OpMemBudget != 1<<20 {
		t.Fatalf("OpMemBudget = %d, want %d", th.OpMemBudget, 1<<20)
	}
	if th.GPUMinCells != 4096 {
		t.Fatalf("GPUMinCells = %d, want 4096", th.GPUMinCells)
	}
}

func TestDeriveThresholdsScale(t *testing.T) {
	// Doubling the Spark job overhead doubles the CP/Spark break-even, so
	// the derived operation budget doubles too.
	m := Default()
	m.SparkJobOverhead *= 2
	th := DeriveThresholds(m)
	if th.OpMemBudget != 2<<20 {
		t.Fatalf("OpMemBudget = %d, want %d", th.OpMemBudget, 2<<20)
	}
	if th.GPUMinCells != 4096 {
		t.Fatalf("GPUMinCells moved: %d", th.GPUMinCells)
	}
	// Halving GPU fixed overheads halves the GPU break-even.
	m2 := Default()
	m2.CudaMalloc /= 2
	m2.KernelLaunch /= 2
	m2.CopyLatency /= 2
	if th2 := DeriveThresholds(m2); th2.GPUMinCells != 2048 {
		t.Fatalf("GPUMinCells = %d, want 2048", th2.GPUMinCells)
	}
	// A cluster slower than the driver never breaks even; the anchor holds.
	m3 := Default()
	m3.SparkFlops = m3.CPUFlops / 2
	if th3 := DeriveThresholds(m3); th3.OpMemBudget != 1<<20 {
		t.Fatalf("diverging break-even moved the anchor: %d", th3.OpMemBudget)
	}
}
