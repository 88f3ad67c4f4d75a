package spark

import (
	"memphis/internal/costs"
	"memphis/internal/data"
)

// Broadcast is a torrent-style broadcast variable. Creation serializes the
// value into 4 MB chunks held in the driver's block manager; the actual
// transfer to executors happens lazily with the first job that references
// the variable (§2.2). Until Destroy, the serialized chunks pin driver
// memory — the dangling-reference problem MEMPHIS's lazy garbage collection
// addresses.
type Broadcast struct {
	value       *data.Matrix
	size        int64
	transferred bool
	destroyed   bool
}

// NewBroadcast registers a broadcast variable for a driver-local matrix.
// If async is true, partitioning/serialization is overlapped with driver
// work (the compiler-placed broadcast operator of §5.1); otherwise the
// driver blocks for the serialization. The serialization is charged in full
// but the broadcast holds m itself, which must not be written to afterwards.
func (c *Context) NewBroadcast(m *data.Matrix, async bool) *Broadcast {
	b := &Broadcast{value: m, size: m.SizeBytes()}
	serialize := costs.Transfer(b.size, c.model.MemBW, 0)
	if async {
		// Serialization runs on a helper thread; it only delays the
		// cluster-side pickup, modeled by charging the cluster resource.
		c.clock.RunAsync(c.freestSlot(), serialize)
	} else {
		c.clock.Advance(serialize)
	}
	c.bcasts = append(c.bcasts, b)
	return b
}

// Value returns the broadcast value (executor-side access).
func (b *Broadcast) Value() *data.Matrix {
	if b.destroyed {
		panic("spark: use of destroyed broadcast")
	}
	return b.value
}

// Destroyed reports whether Destroy has been called.
func (b *Broadcast) Destroyed() bool { return b.destroyed }

// Destroy releases the driver-held chunks and executor copies.
func (b *Broadcast) Destroy() {
	if b.destroyed {
		return
	}
	b.destroyed = true
	b.value = nil
}
