package lineage

import (
	"sort"
	"sync"
)

// ReuseStats records per-(op-type, backend, shape-class) lineage-cache
// probe/hit tallies. The serving layer's shared cache keeps one for its
// cross-tenant probes and reports it (SharedStats.Reuse, OpHitRates).
// Counts are pure functions of the probe sequence, so two replays of the
// same trace produce identical tallies.
//
// A mutex guards the map: the shared cache records from concurrent
// workers.
type ReuseStats struct {
	mu sync.Mutex
	m  map[ReuseKey]*ReuseTally
}

// ReuseKey identifies one probe population. Backend uses the
// core.Backend numbering (CP=0, Spark=1, GPU=2); Class is
// costs.ShapeClass of the output cell count, or -1 when the recording site
// does not know the output size (e.g. a shared-cache miss).
type ReuseKey struct {
	Op      string `json:"op"`
	Backend int    `json:"backend"`
	Class   int    `json:"class"`
}

// ReuseTally is one population's counts.
type ReuseTally struct {
	Probes int64 `json:"probes"`
	Hits   int64 `json:"hits"`
}

// ReuseRow is one sorted snapshot row.
type ReuseRow struct {
	ReuseKey
	ReuseTally
	HitRate float64 `json:"hit_rate"`
}

// NewReuseStats returns an empty recorder.
func NewReuseStats() *ReuseStats {
	return &ReuseStats{m: make(map[ReuseKey]*ReuseTally)}
}

// Note records one probe and whether it was served.
func (s *ReuseStats) Note(op string, backend, class int, hit bool) {
	k := ReuseKey{Op: op, Backend: backend, Class: class}
	s.mu.Lock()
	t := s.m[k]
	if t == nil {
		t = &ReuseTally{}
		s.m[k] = t
	}
	t.Probes++
	if hit {
		t.Hits++
	}
	s.mu.Unlock()
}

// sortedKeys returns the populations in deterministic order.
func (s *ReuseStats) sortedKeys() []ReuseKey {
	keys := make([]ReuseKey, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Backend != b.Backend {
			return a.Backend < b.Backend
		}
		return a.Class < b.Class
	})
	return keys
}

// Prob returns the observed hit rate of one population (0 with no
// probes).
func (s *ReuseStats) Prob(op string, backend, class int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.m[ReuseKey{Op: op, Backend: backend, Class: class}]
	if t == nil || t.Probes == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Probes)
}

// OpProb returns the hit rate of an operator aggregated over backends and
// classes (the serve layer's per-op reuse probability surface).
func (s *ReuseStats) OpProb(op string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var probes, hits int64
	for k, t := range s.m {
		if k.Op == op {
			probes += t.Probes
			hits += t.Hits
		}
	}
	if probes == 0 {
		return 0
	}
	return float64(hits) / float64(probes)
}

// Snapshot returns the sorted rows (deterministic; JSON-stable).
func (s *ReuseStats) Snapshot() []ReuseRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := make([]ReuseRow, 0, len(s.m))
	for _, k := range s.sortedKeys() {
		t := s.m[k]
		row := ReuseRow{ReuseKey: k, ReuseTally: *t}
		if t.Probes > 0 {
			row.HitRate = float64(t.Hits) / float64(t.Probes)
		}
		rows = append(rows, row)
	}
	return rows
}
