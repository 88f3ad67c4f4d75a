package data

import (
	"strings"
	"testing"

	"memphis/internal/memctl"
)

func TestArenaGetPutRecycles(t *testing.T) {
	a := NewArena(1 << 20)
	m := a.Get(4, 8)
	if m.Rows != 4 || m.Cols != 8 || len(m.Data) != 32 {
		t.Fatalf("got %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	a.Put(m)
	// Same cell count, different shape: the flat buffer is reusable.
	n := a.Get(8, 4)
	if n != m {
		t.Errorf("expected the same backing matrix back")
	}
	if n.Rows != 8 || n.Cols != 4 {
		t.Errorf("recycled shape %dx%d, want 8x4", n.Rows, n.Cols)
	}
	gets, reuses, puts, _ := a.Stats()
	if gets != 2 || reuses != 1 || puts != 1 {
		t.Errorf("stats gets=%d reuses=%d puts=%d, want 2/1/1", gets, reuses, puts)
	}
}

func TestArenaEscapePreventsRecycle(t *testing.T) {
	a := NewArena(1 << 20)
	m := a.Get(4, 4)
	a.Escape(m)
	a.Put(m) // must be ignored: the buffer left arena ownership
	n := a.Get(4, 4)
	if n == m {
		t.Errorf("escaped buffer was recycled")
	}
	_, _, _, escapes := a.Stats()
	if escapes != 1 {
		t.Errorf("escapes = %d, want 1", escapes)
	}
}

func TestArenaBudgetTrims(t *testing.T) {
	a := NewArena(1024) // 128 floats retained at most
	big := a.Get(16, 8) // 128 cells = 1024 bytes
	sml := a.Get(4, 4)  // 16 cells = 128 bytes
	a.Put(sml)
	a.Put(big) // retaining both exceeds the budget; the largest class trims
	if a.Used() > 1024 {
		t.Errorf("retained %d bytes over budget 1024", a.Used())
	}
	if a.evicted == 0 {
		t.Errorf("no eviction recorded despite over-budget Put")
	}
}

// TestArenaEvictAndPoolShape: the arena is a report-only arbiter pool
// (Name/Used/Budget and Peak, nothing to reclaim through); it evicts by
// trimming itself when a Put overflows its budget.
func TestArenaEvictAndPoolShape(t *testing.T) {
	const buf = 32 * 32 * 8
	a := NewArena(3 * buf)
	var pool memctl.Pool = a
	if _, ok := pool.(memctl.Reclaimer); ok {
		t.Errorf("the arena is a memctl.Reclaimer; it only reports")
	}
	if _, ok := pool.(memctl.PeakReporter); !ok {
		t.Errorf("the arena does not report its peak")
	}
	ms := make([]*Matrix, 4)
	for i := range ms {
		ms[i] = a.Get(32, 32)
	}
	for _, m := range ms {
		a.Put(m)
	}
	if a.Name() != "arena" || a.Budget() != 3*buf {
		t.Errorf("Name = %q, Budget = %d", a.Name(), a.Budget())
	}
	if a.Used() != 3*buf || a.Peak() != 4*buf || a.evicted != buf {
		t.Errorf("Used=%d Peak=%d Evicted=%d, want the fourth Put to trim one buffer (%d)",
			a.Used(), a.Peak(), a.evicted, buf)
	}
}

// TestVerifyArenaTrace checks the debug-trace checker against each
// violation class, mirroring memplan.VerifyStream's role for free points.
func TestVerifyArenaTrace(t *testing.T) {
	ok := []ArenaEvent{
		{Op: "get", ID: 1}, {Op: "use", ID: 1}, {Op: "put", ID: 1},
		{Op: "get", ID: 1}, {Op: "escape", ID: 1},
	}
	if err := VerifyArenaTrace(ok); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []struct {
		name   string
		events []ArenaEvent
		want   string
	}{
		{"double-put",
			[]ArenaEvent{{Op: "get", ID: 1}, {Op: "put", ID: 1}, {Op: "put", ID: 1}},
			"double-put"},
		{"use-after-put",
			[]ArenaEvent{{Op: "get", ID: 1}, {Op: "put", ID: 1}, {Op: "use", ID: 1}},
			"after put"},
		{"put-unvended",
			[]ArenaEvent{{Op: "put", ID: -1}},
			"unvended"},
		{"escape-after-put",
			[]ArenaEvent{{Op: "get", ID: 1}, {Op: "put", ID: 1}, {Op: "escape", ID: 1}},
			"after put"},
		{"get-twice",
			[]ArenaEvent{{Op: "get", ID: 1}, {Op: "get", ID: 1}},
			"twice"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := VerifyArenaTrace(tc.events)
			if err == nil {
				t.Fatalf("violation not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestArenaDebugTraceClean runs real traffic with debug tracing on and
// checks the recorded event stream verifies cleanly.
func TestArenaDebugTraceClean(t *testing.T) {
	a := NewArena(1 << 20)
	a.SetDebug(true)
	m1 := a.Get(8, 8)
	m2 := a.Get(8, 8)
	a.Put(m1)
	m3 := a.Get(8, 8) // recycles m1's buffer under a fresh ID
	a.Escape(m2)
	a.Put(m3)
	if err := VerifyArenaTrace(a.Events()); err != nil {
		t.Errorf("live trace failed verification: %v", err)
	}
}
