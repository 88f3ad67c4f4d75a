package gpu

import (
	"errors"
	"fmt"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/vtime"
)

// ErrOOM is returned when the device cannot serve an allocation even after
// the memory manager's recycling and eviction steps.
var ErrOOM = errors.New("gpu: out of device memory")

// Pointer is a device memory allocation. The payload is held host-side (the
// simulator computes real values) but is considered device-resident; reading
// it back requires an explicit D2H copy that charges transfer cost and
// synchronizes the stream. Copies in either direction are charged and counted
// in full but share the matrix (data's ownership contract: shared matrices
// are immutable, and a kernel stores a new matrix in its output pointer
// rather than writing into the old one), so a host value outlives the
// recycling or freeing of the pointer it was read from.
type Pointer struct {
	addr  int64
	size  int64
	value *data.Matrix
	freed bool

	// RefCount is the number of live variables referencing the pointer
	// (paper §4.2: only when it reaches zero is the pointer returned to
	// the free list).
	RefCount int

	// Eviction-policy metadata (Eq. 2).
	LastAccess  float64 // virtual timestamp of last (re)use
	Height      int     // height of the producing lineage DAG
	ComputeCost float64 // estimated compute cost of the producing op (seconds)

	// Cached marks pointers wrapped by a lineage cache entry: they are
	// recycled only under memory pressure, preserving reuse potential
	// ("without compromising the reuse potential", paper 4.2).
	Cached bool
}

// Size returns the allocation size in bytes.
func (p *Pointer) Size() int64 { return p.size }

// Valid reports whether the pointer still owns device memory.
func (p *Pointer) Valid() bool { return !p.freed }

// Value returns the device-resident matrix without a transfer. Only the
// device (kernels) may touch it; host code must use D2H.
func (p *Pointer) Value() *data.Matrix { return p.value }

// DeviceStats counts raw device operations.
type DeviceStats struct {
	Mallocs   int64
	Frees     int64
	Kernels   int64
	H2DCopies int64
	D2HCopies int64
	H2DBytes  int64
	D2HBytes  int64
	Syncs     int64
}

// Device is the simulated GPU.
type Device struct {
	clock  *vtime.Clock
	stream *vtime.Resource
	model  *costs.Model
	alloc  *allocator
	Stats  DeviceStats
}

// NewDevice returns a device with the given memory capacity whose command
// stream is a resource of the clock.
func NewDevice(clock *vtime.Clock, model *costs.Model, name string, capacity int64) *Device {
	return &Device{
		clock:  clock,
		stream: clock.Resource(name),
		model:  model,
		alloc:  newAllocator(capacity),
	}
}

// Capacity returns the device memory size in bytes.
func (d *Device) Capacity() int64 { return d.alloc.capacity }

// Used returns the allocated bytes.
func (d *Device) Used() int64 { return d.alloc.capacity - d.alloc.available() }

// Available returns the total free bytes (possibly fragmented).
func (d *Device) Available() int64 { return d.alloc.available() }

// LargestFree returns the largest contiguous free region.
func (d *Device) LargestFree() int64 { return d.alloc.largestFree() }

// Fragmented reports external fragmentation.
func (d *Device) Fragmented() bool { return d.alloc.fragmented() }

// Sync blocks the host until all queued kernels complete.
func (d *Device) Sync() {
	d.Stats.Syncs++
	d.clock.Sync(d.stream)
}

// Malloc allocates size bytes of device memory, charging the cudaMalloc
// overhead. Fails with ErrOOM when no contiguous region fits.
func (d *Device) Malloc(size int64) (*Pointer, error) {
	addr, ok := d.alloc.alloc(size)
	if !ok {
		return nil, fmt.Errorf("%w: need %d, largest free %d (total free %d)",
			ErrOOM, size, d.alloc.largestFree(), d.alloc.available())
	}
	d.Stats.Mallocs++
	d.clock.Advance(d.model.CudaMalloc)
	return &Pointer{addr: addr, size: size, RefCount: 1, LastAccess: d.clock.Now()}, nil
}

// Free releases a pointer's device memory. Like cudaFree it synchronizes
// the stream before the host continues.
func (d *Device) Free(p *Pointer) {
	if p.freed {
		panic("gpu: double free")
	}
	d.Sync()
	d.alloc.release(p.addr, p.size)
	p.freed = true
	p.value = nil
	d.Stats.Frees++
	d.clock.Advance(d.model.CudaFree)
}

// H2D copies a host matrix into a fresh device allocation.
func (d *Device) H2D(m *data.Matrix) (*Pointer, error) {
	p, err := d.Malloc(m.SizeBytes())
	if err != nil {
		return nil, err
	}
	d.Stats.H2DCopies++
	d.Stats.H2DBytes += m.SizeBytes()
	d.clock.Advance(costs.Transfer(m.SizeBytes(), d.model.H2DBW, d.model.CopyLatency))
	p.value = m
	return p, nil
}

// D2H copies a device-resident matrix back to the host. This is a
// synchronization barrier: the host waits for all queued kernels first.
func (d *Device) D2H(p *Pointer) *data.Matrix {
	if p.freed {
		panic("gpu: D2H from freed pointer")
	}
	d.Sync()
	d.Stats.D2HCopies++
	d.Stats.D2HBytes += p.size
	d.clock.Advance(costs.Transfer(p.size, d.model.D2HBW, d.model.CopyLatency))
	return p.value
}

// Launch enqueues a kernel asynchronously: the host thread pays only the
// launch latency while the stream is charged the compute time. The compute
// closure produces the real result, stored into out.
func (d *Device) Launch(flops float64, out *Pointer, compute func() *data.Matrix) {
	if out.freed {
		panic("gpu: kernel output into freed pointer")
	}
	d.Stats.Kernels++
	d.clock.Advance(d.model.KernelLaunch)
	d.clock.RunAsync(d.stream, costs.Compute(flops, d.model.GPUFlops))
	out.value = compute()
	if out.value.SizeBytes() > out.size {
		panic(fmt.Sprintf("gpu: kernel wrote %d bytes into %d-byte allocation",
			out.value.SizeBytes(), out.size))
	}
}

// defragment compacts all live allocations into a contiguous prefix,
// charging a full copy of the used bytes over device memory bandwidth. The
// caller (memory manager) re-addresses live pointers.
func (d *Device) defragment(live []*Pointer) {
	d.Sync()
	var used int64
	for _, p := range live {
		used += p.size
	}
	// Device-internal copies are fast but not free; charge at GPU memory
	// bandwidth approximated as 10x host H2D.
	d.clock.Advance(costs.Transfer(used, 10*d.model.H2DBW, d.model.CopyLatency))
	d.alloc.reset()
	for _, p := range live {
		addr, ok := d.alloc.alloc(p.size)
		if !ok {
			panic("gpu: defragmentation failed to place live pointer")
		}
		p.addr = addr
	}
}

// CopyIn transfers a host matrix into an existing allocation (H2D), e.g. a
// recycled pointer obtained from the memory manager.
func (d *Device) CopyIn(p *Pointer, m *data.Matrix) {
	if p.freed {
		panic("gpu: CopyIn to freed pointer")
	}
	if m.SizeBytes() > p.size {
		panic(fmt.Sprintf("gpu: CopyIn of %d bytes into %d-byte allocation",
			m.SizeBytes(), p.size))
	}
	d.Stats.H2DCopies++
	d.Stats.H2DBytes += m.SizeBytes()
	d.clock.Advance(costs.Transfer(m.SizeBytes(), d.model.H2DBW, d.model.CopyLatency))
	p.value = m
}

// D2HAsync schedules a device-to-host copy behind the queued kernels
// without blocking the host, returning the value and a future for its
// arrival. This backs the prefetch operator for GPU chains (§5.1).
func (d *Device) D2HAsync(p *Pointer) (*data.Matrix, *vtime.Future) {
	if p.freed {
		panic("gpu: D2HAsync from freed pointer")
	}
	d.Stats.D2HCopies++
	d.Stats.D2HBytes += p.size
	f := d.clock.RunAsync(d.stream,
		costs.Transfer(p.size, d.model.D2HBW, d.model.CopyLatency))
	return p.value, f
}
