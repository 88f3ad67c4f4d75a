// Package vtime provides a deterministic virtual clock for the MEMPHIS
// simulator. All backend work (CPU instructions, Spark jobs, GPU kernels,
// data transfers) is charged onto per-resource timelines instead of being
// measured with wall-clock timers. This makes experiments exactly
// reproducible and lets asynchronous overlap (prefetch, broadcast, GPU
// streams) be accounted precisely: asynchronous work advances only the
// resource's timeline while the driver keeps its own position, and a wait on
// a future moves the driver to max(driverNow, future ready time).
//
// All durations and timestamps are in seconds of virtual time.
package vtime

import "fmt"

// Resource is a serially-executing timeline, e.g. the Spark cluster, a GPU
// command stream, or the disk. Work scheduled on a resource begins no
// earlier than the later of the driver's current time and the resource's
// busy-until time.
type Resource struct {
	name      string
	busyUntil float64
	totalBusy float64
}

// Name returns the resource's registered name.
func (r *Resource) Name() string { return r.name }

// BusyUntil returns the virtual timestamp at which all currently scheduled
// work on the resource completes.
func (r *Resource) BusyUntil() float64 { return r.busyUntil }

// TotalBusy returns the cumulative seconds of work charged to the resource.
func (r *Resource) TotalBusy() float64 { return r.totalBusy }

// Future represents the completion of asynchronously scheduled work.
type Future struct {
	readyAt float64
}

// ReadyAt returns the virtual time at which the future's work completes.
func (f *Future) ReadyAt() float64 { return f.readyAt }

// Clock is the virtual clock. The zero value is not usable; call New.
// Clock is not safe for concurrent use: the simulated driver is a single
// instruction stream, matching SystemDS's depth-first interpreter.
type Clock struct {
	now       float64
	resources map[string]*Resource
}

// New returns a clock at time zero with no resources.
func New() *Clock {
	return &Clock{resources: make(map[string]*Resource)}
}

// Now returns the driver's current virtual time.
func (c *Clock) Now() float64 { return c.now }

// Advance charges d seconds of local driver work (e.g. a CPU instruction,
// interpretation overhead, or a cache probe).
func (c *Clock) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative advance %g", d))
	}
	c.now += d
}

// Resource returns the named resource, creating it on first use.
func (c *Clock) Resource(name string) *Resource {
	if r, ok := c.resources[name]; ok {
		return r
	}
	r := &Resource{name: name}
	c.resources[name] = r
	return r
}

// Resources returns all registered resources (order unspecified).
func (c *Clock) Resources() []*Resource {
	out := make([]*Resource, 0, len(c.resources))
	for _, r := range c.resources {
		out = append(out, r)
	}
	return out
}

// RunSync executes d seconds of work on r with the driver blocked: the work
// starts when both the driver and the resource are free, and the driver
// resumes when it completes.
func (c *Clock) RunSync(r *Resource, d float64) {
	end := c.schedule(r, d)
	c.now = end
}

// RunAsync schedules d seconds of work on r without blocking the driver and
// returns a future that becomes ready when the work completes.
func (c *Clock) RunAsync(r *Resource, d float64) *Future {
	end := c.schedule(r, d)
	return &Future{readyAt: end}
}

// schedule appends d seconds of work to r starting no earlier than now and
// returns the completion time.
func (c *Clock) schedule(r *Resource, d float64) float64 {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative work %g on %s", d, r.name))
	}
	start := c.now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + d
	r.totalBusy += d
	return r.busyUntil
}

// Wait blocks the driver until f is ready.
func (c *Clock) Wait(f *Future) {
	if f == nil {
		return
	}
	if f.readyAt > c.now {
		c.now = f.readyAt
	}
}

// Sync blocks the driver until all scheduled work on r completes. This
// models synchronization barriers such as cudaDeviceSynchronize or an
// implicit sync on device-to-host copy.
func (c *Clock) Sync(r *Resource) {
	if r.busyUntil > c.now {
		c.now = r.busyUntil
	}
}

// FutureChain is asynchronous work followed by a serial epilogue charged to
// the driver on wait — e.g. a Spark job whose result must then be
// transferred to the driver. The epilogue is charged exactly once.
type FutureChain struct {
	Job   *Future
	Extra float64
	paid  bool
}

// WaitChain blocks the driver until the chained work completes, charging
// the epilogue on first wait.
func (c *Clock) WaitChain(f *FutureChain) {
	if f == nil {
		return
	}
	c.Wait(f.Job)
	if !f.paid {
		f.paid = true
		c.Advance(f.Extra)
	}
}
