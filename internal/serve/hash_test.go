package serve

import (
	"hash/fnv"
	"sort"
	"testing"

	"memphis/internal/data"
	"memphis/internal/workloads"
)

// refHashInputs and refCoalesceKey are the hash/fnv versions that the
// key.Hash folds replaced, kept verbatim as their oracles: conflict and
// coalesce keys decide which requests serialize and which share one
// execution, so the two must agree on every request.
func refHashInputs(inputs map[string]*data.Matrix) hashedInputs {
	if len(inputs) == 0 {
		return hashedInputs{keys: []uint64{0}}
	}
	in := hashedInputs{
		names: make([]string, 0, len(inputs)),
		sums:  make([]uint64, len(inputs)),
		keys:  make([]uint64, len(inputs)),
	}
	for n := range inputs {
		in.names = append(in.names, n)
	}
	sort.Strings(in.names)
	var buf [8]byte
	for i, n := range in.names {
		sum := inputs[n].Fingerprint()
		h := fnv.New64a()
		h.Write([]byte(n))
		h.Write([]byte{0})
		for b := 0; b < 8; b++ {
			buf[b] = byte(sum >> (8 * b))
		}
		h.Write(buf[:])
		in.sums[i], in.keys[i] = sum, h.Sum64()
	}
	return in
}

func refCoalesceKey(progKey uint64, keys []uint64, fetch []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(progKey)
	for _, k := range keys {
		put(k)
	}
	names := append([]string(nil), fetch...)
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestRequestKeysMatchFNVReference: hashInputs and coalesceKey equal their
// hash/fnv references on the traffic bench's classes, the other served
// workloads, input-less requests, and fetch sets in any order.
func TestRequestKeysMatchFNVReference(t *testing.T) {
	svm, pnmf := workloads.L2SVMMicro(48, 6, 2, []float64{0.1, 0.2}, 11), workloads.PNMF(40, 12, 3, 2, 5)
	classes := append(trafficTestConfig(42).Classes,
		TrafficClass{Prog: svm.Prog, Inputs: svm.HostInputs(), Fetch: []string{"acc"}},
		TrafficClass{Prog: pnmf.Prog, Inputs: pnmf.HostInputs(), Fetch: []string{"obj"}},
		TrafficClass{Prog: hcvWorkload().Prog, Fetch: []string{"z", "best", "", "a"}})
	srv := New(DefaultConfig())
	defer srv.Close()
	for i, c := range classes {
		got, want := hashInputs(c.Inputs), refHashInputs(c.Inputs)
		if len(got.keys) != len(want.keys) || len(got.names) != len(want.names) {
			t.Fatalf("class %d: %d keys over %v, reference %d over %v", i, len(got.keys), got.names, len(want.keys), want.names)
		}
		for k := range want.keys {
			if got.keys[k] != want.keys[k] || (want.sums != nil && got.sums[k] != want.sums[k]) {
				t.Fatalf("class %d input %d: key %016x, reference %016x", i, k, got.keys[k], want.keys[k])
			}
		}
		srv.mu.Lock()
		progKey := srv.prepareLocked(c.Prog)
		srv.mu.Unlock()
		for _, fetch := range [][]string{c.Fetch, nil, {"b", "a"}, {"a", "b"}} {
			if got, want := coalesceKey(progKey, got.keys, fetch), refCoalesceKey(progKey, want.keys, fetch); got != want {
				t.Fatalf("class %d fetch %v: coalesce key %016x, reference %016x", i, fetch, got, want)
			}
		}
	}
}
