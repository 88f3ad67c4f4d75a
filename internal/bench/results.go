package bench

import "runtime"

// MeasureAllocs runs f and returns the heap allocation delta it incurred:
// allocation count (Mallocs) and bytes (TotalAlloc). A GC runs first so
// retained garbage from earlier work is not attributed to f; the counters
// are cumulative-monotonic, so concurrent background allocation (none in
// the single-process bench driver) would be the only source of noise.
func MeasureAllocs(f func()) (allocs, bytes int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}
