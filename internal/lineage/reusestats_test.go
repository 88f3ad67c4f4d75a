package lineage

import (
	"sync"
	"testing"
)

func TestReuseStatsNoteAndProb(t *testing.T) {
	s := NewReuseStats()
	for i := 0; i < 8; i++ {
		s.Note("mm", 1, 20, i > 0) // 7/8 hits on Spark
	}
	s.Note("mm", 0, 20, false)
	if p := s.Prob("mm", 1, 20); p != 7.0/8 {
		t.Fatalf("Prob = %v, want 7/8", p)
	}
	if p := s.Prob("mm", 0, 20); p != 0 {
		t.Fatalf("CP Prob = %v, want 0", p)
	}
	if p := s.Prob("tsmm", 0, 20); p != 0 {
		t.Fatalf("unseen Prob = %v, want 0", p)
	}
	// Aggregate across backends: 7 hits over 9 probes.
	if p := s.OpProb("mm"); p != 7.0/9 {
		t.Fatalf("OpProb = %v, want 7/9", p)
	}
}

func TestReuseStatsSnapshotSorted(t *testing.T) {
	s := NewReuseStats()
	s.Note("tsmm", 0, 12, true)
	s.Note("mm", 2, 8, false)
	s.Note("mm", 0, 8, true)
	s.Note("mm", 0, 10, true)
	rows := s.Snapshot()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := []ReuseKey{
		{Op: "mm", Backend: 0, Class: 8},
		{Op: "mm", Backend: 0, Class: 10},
		{Op: "mm", Backend: 2, Class: 8},
		{Op: "tsmm", Backend: 0, Class: 12},
	}
	for i, w := range want {
		if rows[i].ReuseKey != w {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i].ReuseKey, w)
		}
	}
	if rows[0].HitRate != 1 || rows[2].HitRate != 0 {
		t.Fatalf("hit rates wrong: %+v", rows)
	}
}

func TestReuseStatsConcurrent(t *testing.T) {
	s := NewReuseStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Note("mm", 0, 10, i%2 == 0)
			}
		}()
	}
	wg.Wait()
	rows := s.Snapshot()
	if len(rows) != 1 || rows[0].Probes != 8000 || rows[0].Hits != 4000 {
		t.Fatalf("concurrent counts wrong: %+v", rows)
	}
}
