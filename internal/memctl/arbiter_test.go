package memctl

import (
	"fmt"
	"sync"
	"testing"
)

// fakePool is a scriptable Pool for arbiter tests.
type fakePool struct {
	name    string
	used    int64
	budget  int64
	demoted int64 // bytes Demote will claim per call
	evicted int64 // bytes Evict will claim per call
	mu      sync.Mutex
	demotes []int64
	evicts  []int64
}

func (p *fakePool) Name() string  { return p.name }
func (p *fakePool) Used() int64   { return p.used }
func (p *fakePool) Budget() int64 { return p.budget }
func (p *fakePool) Demote(need int64) int64 {
	p.mu.Lock()
	p.demotes = append(p.demotes, need)
	p.mu.Unlock()
	return p.demoted
}
func (p *fakePool) Evict(need int64) int64 {
	p.mu.Lock()
	p.evicts = append(p.evicts, need)
	p.mu.Unlock()
	return p.evicted
}

func TestMakeSpaceDemotesFirstWithHeadroom(t *testing.T) {
	a := NewArbiter()
	gpu := &fakePool{name: "gpu", used: 100, budget: 100, demoted: 60, evicted: 40}
	host := &fakePool{name: "cp", used: 10, budget: 1000}
	a.Register(gpu)
	a.Register(host)

	if freed := a.MakeSpace("gpu", 100); freed != 100 {
		t.Fatalf("freed=%d want 100", freed)
	}
	if len(gpu.demotes) != 1 || gpu.demotes[0] != 100 {
		t.Fatalf("demotes=%v want [100]", gpu.demotes)
	}
	if len(gpu.evicts) != 1 || gpu.evicts[0] != 40 {
		t.Fatalf("evicts=%v want [40] (remainder after 60 demoted)", gpu.evicts)
	}
	snap := a.Snapshot()
	if snap[0].Name != "gpu" || snap[1].Name != "cp" {
		t.Fatalf("snapshot order %v", []string{snap[0].Name, snap[1].Name})
	}
	if g := snap[0]; g.PressureEvents != 1 {
		t.Fatalf("gpu counters %+v", g.Counters)
	}
}

func TestMakeSpaceSkipsDemotionWithoutHeadroom(t *testing.T) {
	a := NewArbiter()
	gpu := &fakePool{name: "gpu", used: 100, budget: 100, demoted: 60, evicted: 100}
	full := &fakePool{name: "cp", used: 1000, budget: 1000}
	a.Register(gpu)
	a.Register(full)

	if freed := a.MakeSpace("gpu", 80); freed != 100 {
		t.Fatalf("freed=%d want 100 (eviction only)", freed)
	}
	if len(gpu.demotes) != 0 {
		t.Fatalf("demotes=%v want none: no global headroom", gpu.demotes)
	}
	if len(gpu.evicts) != 1 || gpu.evicts[0] != 80 {
		t.Fatalf("evicts=%v want [80]", gpu.evicts)
	}
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
// is summed into the headroom but never reclaimed from, and MakeSpace on
// it counts no pressure event.
func TestMakeSpaceLeavesReportOnlyPool(t *testing.T) {
	a := NewArbiter()
	cp := &reportPool{name: "cp", used: 100, budget: 100}
	gpu := &fakePool{name: "gpu", used: 10, budget: 100, demoted: 5, evicted: 5}
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
	if got := a.GlobalHeadroom(); got != 90 {
		t.Fatalf("GlobalHeadroom=%d want 90", got)
	}
	if freed := a.MakeSpace("gpu", 10); freed != 10 {
		t.Fatalf("reclaimer freed=%d want 10", freed)
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
	if got := a.GlobalHeadroom(); got != 400-207 {
		t.Fatalf("GlobalHeadroom=%v", got)
	}
}

func TestRegisterReplaceKeepsCounters(t *testing.T) {
	a := NewArbiter()
	a.Register(&fakePool{name: "tenant", used: 1, budget: 10})
	a.NoteEviction("tenant", 3, 300)
	a.Register(&fakePool{name: "tenant", used: 2, budget: 10})
	snap := a.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	if snap[0].Used != 2 || snap[0].Evictions != 3 || snap[0].EvictedBytes != 300 {
		t.Fatalf("replace lost state: %+v", snap[0])
	}
}

func TestNoteBeforeRegister(t *testing.T) {
	a := NewArbiter()
	a.NoteDemotion("early", 1, 42)
	a.NotePressure("early")
	snap := a.Snapshot()
	if len(snap) != 1 || snap[0].Name != "early" {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap[0].Demotions != 1 || snap[0].DemotedBytes != 42 || snap[0].PressureEvents != 1 {
		t.Fatalf("counters %+v", snap[0].Counters)
	}
}

// TestArbiterConcurrent is the race-soak target: concurrent registration,
// counter updates, MakeSpace, and snapshots must be data-race free
// (the serving layer drives the arbiter from worker goroutines).
func TestArbiterConcurrent(t *testing.T) {
	a := NewArbiter()
	for i := 0; i < 4; i++ {
		a.Register(&fakePool{name: fmt.Sprintf("p%d", i), used: int64(i * 10), budget: 100, evicted: 5})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("p%d", g%4)
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					a.MakeSpace(name, 10)
				case 1:
					a.NoteEviction(name, 1, 10)
				case 2:
					a.NoteDemotion(name, 1, 10)
				case 3:
					_ = a.Snapshot()
				case 4:
					_ = a.GlobalHeadroom()
					_ = a.Pool(name)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := a.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	var evictions int64
	for _, s := range snap {
		evictions += s.Evictions
	}
	// 8 goroutines × 40 NoteEviction calls each.
	if evictions != 320 {
		t.Fatalf("evictions=%d want 320", evictions)
	}
}
