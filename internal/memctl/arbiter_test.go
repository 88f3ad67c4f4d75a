package memctl

import (
	"fmt"
	"sync"
	"testing"
)

// fakePool is a scriptable Reclaimer for arbiter tests.
type fakePool struct {
	name      string
	used      int64
	budget    int64
	reclaimed int64 // bytes Reclaim will claim per call
	mu        sync.Mutex
	reclaims  []int64
}

func (p *fakePool) Name() string  { return p.name }
func (p *fakePool) Used() int64   { return p.used }
func (p *fakePool) Budget() int64 { return p.budget }
func (p *fakePool) Reclaim(need int64) int64 {
	p.mu.Lock()
	p.reclaims = append(p.reclaims, need)
	p.mu.Unlock()
	return p.reclaimed
}

// reportPool only reports its bytes: it is not a Reclaimer.
type reportPool struct {
	name         string
	used, budget int64
}

func (p *reportPool) Name() string  { return p.name }
func (p *reportPool) Used() int64   { return p.used }
func (p *reportPool) Budget() int64 { return p.budget }

// TestMakeSpaceLeavesReportOnlyPool: a pool that evicts on its own path
// is reported but never reclaimed from, and MakeSpace on it counts no
// pressure event.
func TestMakeSpaceLeavesReportOnlyPool(t *testing.T) {
	a := NewArbiter()
	cp := &reportPool{name: "cp", used: 100, budget: 100}
	gpu := &fakePool{name: "gpu", used: 10, budget: 100, reclaimed: 10}
	a.Register(cp)
	a.Register(gpu)
	if freed := a.MakeSpace("cp", 50); freed != 0 {
		t.Fatalf("freed=%d want 0 from a report-only pool", freed)
	}
	snap := a.Snapshot()
	if snap[0].Name != "cp" || snap[0].Counters != (Counters{}) {
		t.Fatalf("report-only pool counted %+v", snap[0])
	}
	if snap[0].Used != 100 || snap[0].Pressure != 1 || snap[0].PeakUsed != 100 {
		t.Fatalf("report-only pool row %+v", snap[0])
	}
	if freed := a.MakeSpace("gpu", 10); freed != 10 || len(gpu.reclaims) != 1 || gpu.reclaims[0] != 10 {
		t.Fatalf("reclaimer freed=%d with reclaims %v, want 10 from one Reclaim(10)", freed, gpu.reclaims)
	}
	if got := a.Snapshot()[1].PressureEvents; got != 1 {
		t.Fatalf("reclaimer pressure=%d want 1", got)
	}
}

func TestMakeSpaceUnknownPool(t *testing.T) {
	a := NewArbiter()
	if freed := a.MakeSpace("nope", 10); freed != 0 {
		t.Fatalf("freed=%d want 0", freed)
	}
}

func TestPressureAndHeadroom(t *testing.T) {
	a := NewArbiter()
	a.Register(&fakePool{name: "a", used: 50, budget: 100})
	a.Register(&fakePool{name: "b", used: 150, budget: 300})
	a.Register(&fakePool{name: "unbudgeted", used: 7})
	snap := a.Snapshot()
	for i, want := range []float64{0.5, 0.5, 0} {
		if got := snap[i].Pressure; got != want {
			t.Fatalf("%s: Pressure=%v want %v", snap[i].Name, got, want)
		}
	}
}

// peakPool reports a high-water mark above its current bytes.
type peakPool struct{ reportPool }

func (p *peakPool) Peak() int64 { return 2 * p.used }

// TestMeterCounts: a pool reports through the Meter Register returned, and
// its snapshot row carries those counters and its peak; a nil Meter (a pool
// that was never registered) records nothing.
func TestMeterCounts(t *testing.T) {
	a := NewArbiter()
	m := a.Register(&peakPool{reportPool{name: "spark", used: 5, budget: 10}})
	m.NotePressure()
	m.NoteEviction(2, 200)
	m.NoteDemotion(1, 42)
	var unregistered *Meter
	unregistered.NotePressure()
	unregistered.NoteEviction(1, 1)
	unregistered.NoteDemotion(1, 1)
	snap := a.Snapshot()
	want := PoolStats{Name: "spark", Used: 5, Budget: 10, Pressure: 0.5, PeakUsed: 10,
		Counters: Counters{PressureEvents: 1, Evictions: 2, EvictedBytes: 200, Demotions: 1, DemotedBytes: 42}}
	if len(snap) != 1 || snap[0] != want {
		t.Fatalf("snapshot %+v, want [%+v]", snap, want)
	}
}

// TestArbiterConcurrent is the race-soak target: registration, meter
// notes, MakeSpace and snapshots run concurrently (the serving layer drives
// the arbiter from worker goroutines), and every note and pressure event
// lands on its own pool's row.
func TestArbiterConcurrent(t *testing.T) {
	a := NewArbiter()
	meters := make([]*Meter, 4)
	for i := range meters {
		meters[i] = a.Register(&fakePool{name: fmt.Sprintf("p%d", i), used: int64(i * 10), budget: 100, reclaimed: 5})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name, m := fmt.Sprintf("p%d", g%4), meters[g%4]
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					a.MakeSpace(name, 10)
				case 1:
					m.NoteEviction(1, 10)
				case 2:
					m.NoteDemotion(1, 10)
				case 3:
					_ = a.Snapshot()
				case 4:
					a.Register(&reportPool{name: fmt.Sprintf("g%d-%d", g, i)})
				}
			}
		}(g)
	}
	wg.Wait()
	snap := a.Snapshot()
	// The four reclaimers, then 8 goroutines × 40 registrations.
	if len(snap) != 4+320 {
		t.Fatalf("snapshot len %d, want %d", len(snap), 4+320)
	}
	for i, s := range snap[:4] {
		// Two goroutines per pool, 40 calls of each kind apiece.
		if s.Name != fmt.Sprintf("p%d", i) || s.PressureEvents != 80 || s.Evictions != 80 || s.Demotions != 80 {
			t.Fatalf("row %d: %+v, want p%d with 80 pressure events, evictions and demotions", i, s, i)
		}
	}
}
