package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAdvance(t *testing.T) {
	c := New()
	c.Advance(1.5)
	c.Advance(0.5)
	if !approx(c.Now(), 2.0) {
		t.Fatalf("Now() = %g, want 2.0", c.Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	New().Advance(-1)
}

func TestRunSyncBlocksDriver(t *testing.T) {
	c := New()
	r := c.Resource("spark")
	c.RunSync(r, 2.0)
	if !approx(c.Now(), 2.0) {
		t.Fatalf("Now() = %g, want 2.0", c.Now())
	}
	if !approx(r.TotalBusy(), 2.0) {
		t.Fatalf("TotalBusy() = %g, want 2.0", r.TotalBusy())
	}
}

func TestRunAsyncOverlaps(t *testing.T) {
	c := New()
	gpu := c.Resource("gpu")
	f := c.RunAsync(gpu, 5.0)
	if !approx(c.Now(), 0) {
		t.Fatalf("driver advanced by async work: %g", c.Now())
	}
	c.Advance(2.0) // overlapping driver work
	c.Wait(f)
	if !approx(c.Now(), 5.0) {
		t.Fatalf("Now() = %g, want 5.0 (max of overlap)", c.Now())
	}
}

func TestWaitOnAlreadyReadyFuture(t *testing.T) {
	c := New()
	r := c.Resource("spark")
	f := c.RunAsync(r, 1.0)
	c.Advance(10.0)
	c.Wait(f)
	if !approx(c.Now(), 10.0) {
		t.Fatalf("Now() = %g, want 10.0 (future already ready)", c.Now())
	}
}

func TestWaitNilFuture(t *testing.T) {
	c := New()
	c.Wait(nil) // must not panic
	if !approx(c.Now(), 0) {
		t.Fatalf("Now() = %g, want 0", c.Now())
	}
}

func TestResourceSerializesWork(t *testing.T) {
	c := New()
	r := c.Resource("gpu")
	f1 := c.RunAsync(r, 3.0)
	f2 := c.RunAsync(r, 2.0)
	if !approx(f1.ReadyAt(), 3.0) || !approx(f2.ReadyAt(), 5.0) {
		t.Fatalf("ReadyAt = %g, %g; want 3, 5", f1.ReadyAt(), f2.ReadyAt())
	}
}

func TestSyncBarrier(t *testing.T) {
	c := New()
	gpu := c.Resource("gpu")
	c.RunAsync(gpu, 4.0)
	c.Advance(1.0)
	c.Sync(gpu)
	if !approx(c.Now(), 4.0) {
		t.Fatalf("Now() = %g, want 4.0 after sync", c.Now())
	}
	c.Sync(gpu) // idempotent
	if !approx(c.Now(), 4.0) {
		t.Fatalf("second Sync moved time to %g", c.Now())
	}
}

func TestWorkStartsAtDriverTime(t *testing.T) {
	c := New()
	r := c.Resource("spark")
	c.Advance(7.0)
	f := c.RunAsync(r, 1.0)
	if !approx(f.ReadyAt(), 8.0) {
		t.Fatalf("ReadyAt = %g, want 8.0 (starts at driver time)", f.ReadyAt())
	}
}

func TestResourceIdentity(t *testing.T) {
	c := New()
	if c.Resource("a") != c.Resource("a") {
		t.Fatal("Resource should return the same instance per name")
	}
	if c.Resource("a") == c.Resource("b") {
		t.Fatal("distinct names must map to distinct resources")
	}
	if len(c.Resources()) != 2 {
		t.Fatalf("Resources() len = %d, want 2", len(c.Resources()))
	}
}

// Property: time is monotone under any sequence of non-negative operations.
func TestMonotonicityProperty(t *testing.T) {
	f := func(ops []uint8, durs []float64) bool {
		c := New()
		r := c.Resource("x")
		last := 0.0
		var fut *Future
		for i, op := range ops {
			d := 0.0
			if i < len(durs) {
				d = math.Mod(math.Abs(durs[i]), 10)
				if math.IsNaN(d) {
					d = 0
				}
			}
			switch op % 4 {
			case 0:
				c.Advance(d)
			case 1:
				c.RunSync(r, d)
			case 2:
				fut = c.RunAsync(r, d)
			case 3:
				c.Wait(fut)
			}
			if c.Now() < last {
				return false
			}
			last = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource's busyUntil never precedes the completion of any
// previously scheduled work, i.e. futures are ready in scheduling order.
func TestFutureOrderingProperty(t *testing.T) {
	f := func(durs []float64) bool {
		c := New()
		r := c.Resource("x")
		prev := -1.0
		for _, d := range durs {
			d = math.Mod(math.Abs(d), 5)
			if math.IsNaN(d) {
				d = 0
			}
			fu := c.RunAsync(r, d)
			if fu.ReadyAt() < prev {
				return false
			}
			prev = fu.ReadyAt()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
