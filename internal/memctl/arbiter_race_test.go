package memctl

import (
	"fmt"
	"sync"
	"testing"
)

// TestArbiterRegisterRace is the -race regression for the pool-list read
// paths: MakeSpace's pool lookup and Snapshot must not read the shared
// meters slice unlocked while Register appends to it. The serving layer hits
// this interleaving when a publish-driven eviction or a snapshot runs
// concurrently with a new tenant's first touch registering its pool.
func TestArbiterRegisterRace(t *testing.T) {
	const pools, tenants, rounds = 8, 300, 300
	a := NewArbiter()
	for i := 0; i < pools; i++ {
		a.Register(&fakePool{name: fmt.Sprintf("pool%d", i), used: int64(i), budget: 100, reclaimed: 1})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Appends grow the backing array: the write side of the race.
		for i := 0; i < tenants; i++ {
			a.Register(&reportPool{name: fmt.Sprintf("tenant%d", i), used: 1, budget: 100})
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				a.MakeSpace("pool3", 10)
				a.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := a.Snapshot()
	if len(snap) != pools+tenants || snap[3].PressureEvents != 4*rounds {
		t.Fatalf("%d rows with pool3 at %d pressure events, want %d rows and %d",
			len(snap), snap[3].PressureEvents, pools+tenants, 4*rounds)
	}
}
