package main

import (
	"fmt"
	"sort"
	"strings"

	"memphis/internal/gpu"
	"memphis/internal/memctl"
	rt "memphis/internal/runtime"
)

// ctxCounts reads every counter a runtime context's layers already export.
// sums are cumulative over the context's life, peaks are high-water marks.
func ctxCounts(ctx *rt.Context) (sums, peaks counts) {
	s, c := ctx.Stats, ctx.Cache.Stats
	sums = counts{
		"rt.insts": float64(s.Instructions), "rt.cp": float64(s.CPInsts), "rt.sp": float64(s.SPInsts),
		"rt.gpu": float64(s.GPUInsts), "rt.reused": float64(s.Reused),
		"rt.func_calls": float64(s.FuncCalls), "rt.func_reuses": float64(s.FuncReuses),
		"rt.prefetches": float64(s.Prefetches), "rt.broadcasts": float64(s.Broadcasts),
		"rt.checkpoints": float64(s.Checkpoints), "rt.gpu_fallbacks": float64(s.GPUFallbacks),
		"lin.traced":  float64(ctx.LMap.Traced()),
		"core.probes": float64(c.Probes), "core.misses": float64(c.Misses), "core.puts": float64(c.Puts),
		"core.evictions": float64(c.EvictionsCP), "core.spills": float64(c.SpillsCP),
		"core.restores": float64(c.RestoresCP), "core.delayed": float64(c.DelayedStores),
		"vt.driver": ctx.Clock.Now(),
	}
	peaks = counts{"core.cp_peak": float64(ctx.Cache.CPPeak()), "core.entries": float64(ctx.Cache.NumEntries())}
	if sc := ctx.SC; sc != nil {
		st := sc.Stats
		sums.add(counts{
			"spark.jobs": float64(st.Jobs), "spark.tasks": float64(st.Tasks),
			"spark.partitions": float64(st.PartitionsComputed), "spark.cache_hits": float64(st.CacheHits),
			"spark.shuffle_bytes": float64(st.ShuffleBytes), "spark.broadcast_bytes": float64(st.BroadcastBytes),
			"spark.evicted": float64(st.PartitionsEvicted),
		})
	}
	if gm := ctx.GM; gm != nil {
		d, m := gm.Device().Stats, gm.Stats
		sums.add(counts{
			"gpu.kernels": float64(d.Kernels), "gpu.mallocs": float64(d.Mallocs), "gpu.recycled": float64(m.Recycled),
			"gpu.h2d_bytes": float64(d.H2DBytes), "gpu.d2h_bytes": float64(d.D2HBytes), "gpu.syncs": float64(d.Syncs),
			"gpu.host_evictions": float64(m.HostEvictions),
		})
	}
	// Resources come in map order; a float sum must not depend on it.
	resources := ctx.Clock.Resources()
	sort.Slice(resources, func(i, j int) bool { return resources[i].Name() < resources[j].Name() })
	for _, r := range resources {
		switch {
		case strings.HasPrefix(r.Name(), "spark-"):
			sums["vt.spark"] += r.TotalBusy()
		case strings.HasPrefix(r.Name(), "gpu"):
			sums["vt.gpu"] += r.TotalBusy()
		}
	}
	pools := ctx.Arb.Snapshot()
	sums.add(poolCounts(pools))
	for _, p := range pools {
		switch p.Name {
		case "spark":
			peaks["spark.bm_peak"] = float64(p.PeakUsed)
		case gpu.PoolName:
			peaks["gpu.peak"] = float64(p.PeakUsed)
		}
	}
	return sums, peaks
}

// poolCounts sums the memory arbiter's per-pool pressure counters.
func poolCounts(pools []memctl.PoolStats) counts {
	c := counts{}
	for _, p := range pools {
		c["memctl.pressure"] += float64(p.PressureEvents)
		c["memctl.evictions"] += float64(p.Evictions)
		c["memctl.evicted_bytes"] += float64(p.EvictedBytes)
		c["memctl.demotions"] += float64(p.Demotions)
	}
	return c
}

// layerCounters turns a phase's raw counters into the (c) layer metrics.
func layerCounters(out map[string]float64, ph *phase) {
	const mb = 1 << 20
	c, ops := ph.counts, float64(ph.pinned)
	per := func(k string) float64 { return ratio(c[k], ops) }
	for name, key := range map[string]string{
		"runtime.insts_per_op": "rt.insts", "runtime.cp_insts_per_op": "rt.cp",
		"runtime.sp_insts_per_op": "rt.sp", "runtime.gpu_insts_per_op": "rt.gpu",
		"runtime.prefetches_per_op": "rt.prefetches", "runtime.broadcasts_per_op": "rt.broadcasts",
		"runtime.checkpoints_per_op":  "rt.checkpoints",
		"lineage.items_traced_per_op": "lin.traced",
		"core.probes_per_op":          "core.probes", "core.puts_per_op": "core.puts",
		"core.evictions_per_op": "core.evictions", "core.spills_per_op": "core.spills",
		"core.restores_per_op": "core.restores", "core.delayed_stores_per_op": "core.delayed",
		"spark.jobs_per_op": "spark.jobs", "spark.tasks_per_op": "spark.tasks",
		"spark.partitions_computed_per_op": "spark.partitions", "spark.cache_hits_per_op": "spark.cache_hits",
		"spark.partitions_evicted_per_op": "spark.evicted",
		"gpu.kernels_per_op":              "gpu.kernels", "gpu.mallocs_per_op": "gpu.mallocs",
		"gpu.recycled_per_op": "gpu.recycled", "gpu.syncs_per_op": "gpu.syncs",
		"gpu.host_evictions_per_op":     "gpu.host_evictions",
		"memctl.pressure_events_per_op": "memctl.pressure", "memctl.evictions_per_op": "memctl.evictions",
		"memctl.demotions_per_op": "memctl.demotions",
		"vtime.driver_busy_s":     "vt.driver", "vtime.spark_busy_s": "vt.spark", "vtime.gpu_busy_s": "vt.gpu",
	} {
		out[name] = per(key)
	}
	for name, key := range map[string]string{
		"spark.shuffle_mb_per_op": "spark.shuffle_bytes", "spark.broadcast_mb_per_op": "spark.broadcast_bytes",
		"gpu.h2d_mb_per_op": "gpu.h2d_bytes", "gpu.d2h_mb_per_op": "gpu.d2h_bytes",
		"memctl.evicted_mb_per_op": "memctl.evicted_bytes",
	} {
		out[name] = per(key) / mb
	}
	out["runtime.gpu_fallbacks"] = c["rt.gpu_fallbacks"]
	out["runtime.reused_share"] = ratio(c["rt.reused"], c["rt.insts"])
	out["runtime.func_reuse_share"] = ratio(c["rt.func_reuses"], c["rt.func_calls"])
	out["core.hit_ratio"] = ratio(c["core.probes"]-c["core.misses"], c["core.probes"])
	out["core.cp_peak_mb"] = ph.peaks["core.cp_peak"] / mb
	out["core.entries"] = ph.peaks["core.entries"]
	out["spark.bm_peak_mb"] = ph.peaks["spark.bm_peak"] / mb
	out["gpu.peak_mb"] = ph.peaks["gpu.peak"] / mb
	out["lineage.max_height"] = ph.peaks["lin.max_height"]
	for k, v := range c {
		if strings.HasPrefix(k, "serve.") {
			out[k] = v
		}
	}
	for class, ms := range ph.classMS {
		out["serve.wall_p50_ms."+class] = median(ms)
	}
}

// isolationFailures checks that a workload keeps off the layers it is meant
// to bypass: a CP-only workload that starts a Spark job or launches a GPU
// kernel, or a non-serving one that touches the server, no longer measures
// what its name says.
func isolationFailures(workload string, ph *phase) []string {
	var fails []string
	nonzero := func(prefix string) {
		for k, v := range ph.counts {
			if strings.HasPrefix(k, prefix) && v != 0 {
				fails = append(fails, fmt.Sprintf("layer isolation: %s ran with %s = %v", workload, k, v))
				return
			}
		}
	}
	switch workload {
	case "reuse-hit", "fresh-miss", "pipe-local":
		nonzero("spark.")
		nonzero("gpu.")
		nonzero("vt.spark")
		nonzero("vt.gpu")
	}
	if workload != "serve-zipf" {
		nonzero("serve.")
	}
	return fails
}
