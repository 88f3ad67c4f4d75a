package spark

import (
	"math"
	"testing"

	"memphis/internal/data"
)

// runPrewarmScenario builds a small but representative job DAG — narrow
// maps over a parallelized input, a broadcast map-side multiply, and a wide
// TSMM aggregate — in a storage-constrained context, runs it twice (the
// second run exercises block-manager hits and shuffle-file reuse), and
// returns the final collected value plus the context for stats inspection.
func runPrewarmScenario() (*data.Matrix, *Context) {
	c, _ := newTestContext(96 << 10)
	x := data.RandNorm(512, 24, 0, 1, 7)
	w := data.RandNorm(24, 24, 0, 1, 9)
	rx := c.Parallelize(x, 8, "X").Persist(StorageMemoryAndDisk)
	bw := c.NewBroadcast(w, false)
	prod := MapMM(rx, bw, "W")
	sq := prod.MapPartitions("sq", prod.nrows, prod.ncols,
		func(int) float64 { return float64(prod.nrows * prod.ncols) }, nil,
		func(_ int, p *data.Matrix) *data.Matrix { return data.Mul(p, p) })
	gram := TSMM(sq)
	first := c.Collect(gram)
	second := c.Collect(gram) // hits shuffle files / caches
	return data.Add(first, second), c
}

// TestRunJobParallelMatchesSerial is the end-to-end determinism contract of
// the partition prewarm: values, statistics, and the virtual clock must be
// identical whether partition compute fans out or runs serially.
func TestRunJobParallelMatchesSerial(t *testing.T) {
	data.SetParallelism(1)
	wantVal, wantCtx := runPrewarmScenario()
	data.SetParallelism(8)
	defer data.SetParallelism(0)
	gotVal, gotCtx := runPrewarmScenario()

	if wantVal.Rows != gotVal.Rows || wantVal.Cols != gotVal.Cols {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", wantVal.Rows, wantVal.Cols, gotVal.Rows, gotVal.Cols)
	}
	for i := range wantVal.Data {
		if math.Float64bits(wantVal.Data[i]) != math.Float64bits(gotVal.Data[i]) {
			t.Fatalf("cell %d differs bitwise: %v vs %v", i, wantVal.Data[i], gotVal.Data[i])
		}
	}
	if wantCtx.Stats != gotCtx.Stats {
		t.Fatalf("stats diverge:\n serial   %+v\n parallel %+v", wantCtx.Stats, gotCtx.Stats)
	}
	if w, g := wantCtx.clock.Now(), gotCtx.clock.Now(); w != g {
		t.Fatalf("virtual time diverges: serial %v parallel %v", w, g)
	}
}
