package memctl

import (
	"fmt"
	"sync"
	"testing"
)

// TestArbiterTotalsRegisterRace is the -race regression for the pool-list
// read paths: totals() (behind GlobalHeadroom, which the GPU pool's reclaim
// consults on every pressure event), MakeSpace's pool lookup and Snapshot
// must not iterate the shared pools slice unlocked while Register replaces
// elements in place. The serving layer hits this interleaving when a
// publish-driven eviction or a snapshot runs concurrently with a new
// tenant's first touch re-registering its pool.
func TestArbiterTotalsRegisterRace(t *testing.T) {
	a := NewArbiter()
	for i := 0; i < 8; i++ {
		a.Register(&fakePool{name: fmt.Sprintf("pool%d", i), used: int64(i), budget: 100})
	}
	stop := make(chan struct{})
	var registrar sync.WaitGroup
	registrar.Add(1)
	go func() {
		defer registrar.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			// Same-name registration replaces the slice element in place —
			// the write side of the race.
			a.Register(&fakePool{name: fmt.Sprintf("pool%d", n%8), used: int64(n), budget: 100})
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				a.GlobalHeadroom()
				a.MakeSpace("pool3", 10)
				a.Snapshot()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				a.NoteEviction(fmt.Sprintf("pool%d", i%8), 1, 10)
				a.NoteDemotion(fmt.Sprintf("pool%d", i%8), 1, 10)
			}
		}()
	}
	readers.Wait()
	close(stop)
	registrar.Wait()
}
