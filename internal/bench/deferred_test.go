package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"memphis/internal/core"
	"memphis/internal/key"
	"memphis/internal/lineage"
	"memphis/internal/workloads"
)

// hbandQuickTrace runs HBAND at its quick size (32000x64) under MPH as
// Fig. 13(c) configures it and renders everything that must not depend on
// how the kernels or the CP transpose are implemented: output checksums,
// runtime and cache counters, the serialized lineage of the outputs, and
// the virtual clock to the last bit.
func hbandQuickTrace(t *testing.T) string {
	t.Helper()
	env := DefaultEnv()
	env.OpMemBudget = 16 << 20
	env.GPUCapacity = 0
	_, ctx, err := MPH.Run(env, func() *workloads.Workload {
		return workloads.HBand(32000, 64, 3, 4, 3, 50, 13)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	var sb strings.Builder
	for _, name := range []string{"accSvm", "accMlr", "ensScore", "wsvm_b2_c0", "wmlr_b2_c0", "p1", "mix"} {
		v := ctx.Var(name)
		if v == nil {
			t.Fatalf("output %q unbound", name)
		}
		lin := key.New().Str(lineage.Serialize(ctx.LMap.Get(name))).Sum64()
		fmt.Fprintf(&sb, "%s sum=%#x lineage=%#x\n", name, ctx.EnsureHostValue(v).Checksum(), lin)
	}
	fmt.Fprintf(&sb, "stats %+v\n", ctx.Stats)
	fmt.Fprintf(&sb, "cache %+v\n", ctx.Cache.Stats)
	var used int64
	for _, s := range ctx.Arb.Snapshot() {
		if s.Name == core.PoolCP {
			used = s.Used
		}
	}
	fmt.Fprintf(&sb, "cp peak=%d used=%d entries=%d\n", ctx.Cache.CPPeak(), used, ctx.Cache.NumEntries())
	fmt.Fprintf(&sb, "clock %#x\n", math.Float64bits(ctx.Clock.Now()))
	return sb.String()
}

// hbandQuickPinned is hbandQuickTrace as recorded at the commit before the
// register-blocked kernels and the deferred CP transpose (PR 12's tree).
const hbandQuickPinned = `accSvm sum=0x1ca2fd0f981278cb lineage=0xdda9d60a204b6e36
accMlr sum=0xbe997f63f2450da6 lineage=0x8d333ba9fed3c4dc
ensScore sum=0xca1a1862d7531336 lineage=0x418a91a39d6d260a
wsvm_b2_c0 sum=0x91de907f9a31450a lineage=0x23646fbbdfa2584c
wmlr_b2_c0 sum=0xbf36398122f43432 lineage=0x8fdca6de075655c1
p1 sum=0xa1952d152da39287 lineage=0xcbd554e915da976b
mix sum=0xecc73d6353d21677 lineage=0xb37772c2341e9b53
stats {Instructions:1136 CPInsts:966 SPInsts:0 GPUInsts:0 Reused:170 ActionReuses:0 FuncCalls:24 FuncReuses:6 Prefetches:0 Broadcasts:0 Checkpoints:0 Evicts:0 GPUFallbacks:0 Collects:0 D2HFetches:0 SharedProbes:0 SharedHits:0 SharedPuts:0 PlanBlocks:0 EarlyFrees:0}
cache {Probes:1160 HitsCP:170 HitsRDD:0 HitsGPU:0 HitsFunc:6 HitsActon:0 Misses:984 Puts:984 Placeholders:351 DelayedStores:1 EvictionsCP:515 SpillsCP:0 RestoresCP:0 UnpersistsSpark:0 GPUInvalidated:0 GCBroadcasts:0 GCChildRDDs:0 AsyncMats:0 GPUToHost:0 SpillErrorsCP:0}
cp peak=5242408 used=5152296 entries=414
clock 0x3f939668a9e60016
`

// TestHBandQuickMatchesPinned holds the whole run to the pre-change trace:
// every t(X) of the gradient steps is now a deferred value that is never
// built (13 MB, larger than the 5 MB driver cache), yet each one is still
// traced, probed, charged and put exactly as before.
func TestHBandQuickMatchesPinned(t *testing.T) {
	if got := hbandQuickTrace(t); got != hbandQuickPinned {
		t.Errorf("HBAND quick under MPH diverged from the pinned trace:\n--- got\n%s--- want\n%s", got, hbandQuickPinned)
	}
}
