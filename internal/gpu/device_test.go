package gpu

import (
	"errors"
	"testing"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/vtime"
)

func newTestDevice(capacity int64) (*Device, *vtime.Clock) {
	clock := vtime.New()
	return NewDevice(clock, costs.Default(), "gpu0", capacity), clock
}

func TestMallocFree(t *testing.T) {
	d, _ := newTestDevice(1024)
	p, err := d.Malloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if d.Used() != 512 || !p.Valid() {
		t.Fatalf("Used = %d, want 512", d.Used())
	}
	d.Free(p)
	if d.Used() != 0 || p.Valid() {
		t.Fatal("Free did not release memory")
	}
	if d.Stats.Mallocs != 1 || d.Stats.Frees != 1 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

func TestMallocOOM(t *testing.T) {
	d, _ := newTestDevice(100)
	if _, err := d.Malloc(200); !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	d, _ := newTestDevice(1024)
	p, _ := d.Malloc(10)
	d.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	d.Free(p)
}

// TestH2DAndD2HRoundTrip pins the copy contract: a transfer may share the
// matrix instead of duplicating it, but it is counted and charged in full,
// and a value read back stays intact when the pointer it came from is
// recycled for another output and when it is freed.
func TestH2DAndD2HRoundTrip(t *testing.T) {
	d, clock := newTestDevice(1 << 20)
	model := costs.Default()
	m := data.Rand(8, 8, -1, 1, 1, 3)
	want, size := m.Clone(), m.SizeBytes()

	p, err := d.H2D(m)
	if err != nil {
		t.Fatal(err)
	}
	// The clock adds each charge in turn, so the expected times add the same way.
	now := model.CudaMalloc + costs.Transfer(size, model.H2DBW, model.CopyLatency)
	if clock.Now() != now {
		t.Fatalf("after H2D the clock reads %g s, want malloc + transfer = %g", clock.Now(), now)
	}
	back := d.D2H(p)
	now += costs.Transfer(size, model.D2HBW, model.CopyLatency)
	if clock.Now() != now {
		t.Fatalf("after D2H the clock reads %g s, want %g", clock.Now(), now)
	}
	if _, f := d.D2HAsync(p); f == nil || clock.Now() != now {
		t.Fatalf("D2HAsync blocked the host or returned no future")
	}
	if s := d.Stats; s.H2DCopies != 1 || s.H2DBytes != size || s.D2HCopies != 2 || s.D2HBytes != 2*size || s.Mallocs != 1 {
		t.Fatalf("copy counters = %+v, want 1 H2D and 2 D2H of %d bytes", s, size)
	}
	if !data.AllClose(want, back, 0) {
		t.Fatal("H2D/D2H round trip changed values")
	}

	// The pointer is reused for a kernel output, then for an upload, then
	// freed: the host value read earlier and the uploaded source are untouched.
	d.Launch(1, p, func() *data.Matrix { return data.Zeros(8, 8) })
	if !data.AllClose(want, back, 0) || !data.AllClose(want, m, 0) {
		t.Fatal("a kernel writing to the recycled pointer changed a host value")
	}
	d.CopyIn(p, data.Ones(8, 8))
	if s := d.Stats; s.H2DCopies != 2 || s.H2DBytes != 2*size {
		t.Fatalf("CopyIn not counted: %+v", s)
	}
	ones := d.D2H(p)
	d.Free(p)
	if !data.AllClose(want, back, 0) || !data.AllClose(want, m, 0) || !data.AllClose(ones, data.Ones(8, 8), 0) {
		t.Fatal("freeing the pointer changed a host value")
	}
}

func TestKernelAsyncAndSyncBarrier(t *testing.T) {
	d, clock := newTestDevice(1 << 20)
	out, _ := d.Malloc(8 * 8 * 8)
	before := clock.Now()
	// A big kernel: 1e9 flops at 10 TFLOP/s = 100us on the stream.
	d.Launch(1e9, out, func() *data.Matrix { return data.Ones(8, 8) })
	hostAdvance := clock.Now() - before
	if hostAdvance > 1e-5 {
		t.Fatalf("kernel launch blocked host for %g s", hostAdvance)
	}
	// D2H must wait for the kernel (sync barrier).
	_ = d.D2H(out)
	if clock.Now()-before < 1e-4 {
		t.Fatalf("D2H did not synchronize with the stream: elapsed %g", clock.Now()-before)
	}
}

func TestFreeSynchronizesStream(t *testing.T) {
	d, clock := newTestDevice(1 << 20)
	out, _ := d.Malloc(64)
	d.Launch(1e9, out, func() *data.Matrix { return data.Ones(2, 2) })
	d.Free(out)
	if clock.Now() < 1e-4 {
		t.Fatalf("Free did not synchronize: now = %g", clock.Now())
	}
	if d.Stats.Syncs == 0 {
		t.Fatal("no sync recorded")
	}
}

func TestFigure2dShape(t *testing.T) {
	// Reproduce the Figure 2(d) microbenchmark shape at unit scale: for a
	// small affine layer, alloc/free and copy dominate compute.
	d, clock := newTestDevice(1 << 30)
	batch, dim := 128, 1000
	w := data.RandNorm(dim, dim, 0, 0.1, 1)
	x := data.RandNorm(batch, dim, 0, 1, 2)
	wp, _ := d.H2D(w)
	var allocFree, compute, copyT float64
	for i := 0; i < 10; i++ {
		xp, _ := d.H2D(x)
		t0 := clock.Now()
		out, err := d.Malloc(int64(batch*dim) * 8)
		if err != nil {
			t.Fatal(err)
		}
		t1 := clock.Now()
		d.Launch(costs.MatMulFlops(batch, dim, dim), out, func() *data.Matrix {
			return data.ReLU(data.MatMul(x, w.Clone()))
		})
		d.Sync()
		t2 := clock.Now()
		_ = d.D2H(out)
		t3 := clock.Now()
		d.Free(out)
		t4 := clock.Now()
		allocFree += (t1 - t0) + (t4 - t3)
		compute += t2 - t1
		copyT += t3 - t2
		d.Free(xp)
	}
	_ = wp
	if allocFree < 2*compute {
		t.Errorf("alloc+free %.2g < 2x compute %.2g; paper shows 4.6x", allocFree, compute)
	}
	if copyT < 4*compute {
		t.Errorf("copy %.2g < 4x compute %.2g; paper shows 9x", copyT, compute)
	}
}
