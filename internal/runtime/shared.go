package runtime

import (
	"sort"

	"memphis/internal/data"
	"memphis/internal/key"
	"memphis/internal/lineage"
)

// SharedCache is a second, cross-session reuse level consulted after the
// session-local lineage cache misses. The serving layer (internal/serve)
// provides a concurrency-safe implementation shared by every tenant, so
// identical sub-programs submitted by different tenants reuse each other's
// results.
//
// Lineage leaves of bound inputs are keyed by variable NAME only, which is
// sound within one session but not across tenants: two tenants may bind
// different data under the same name. Callers therefore pass sig, a
// content signature folding the fingerprints (data.Matrix.Fingerprint) of
// every read-leaf input the item depends on; implementations must key entries
// by (item, sig).
//
// Both methods return the virtual-time cost the probing/publishing session
// must charge on its own clock. Implementations never touch session clocks
// (session clocks are not concurrency-safe) and the returned costs depend
// only on hit/miss and object size, keeping per-session virtual time
// deterministic when conflicting requests are serialized in a fixed order.
type SharedCache interface {
	// Probe looks up (item, sig); on a hit it returns the stored matrix,
	// which the session only reads (the ownership contract of
	// internal/data), the producer's estimated compute cost (for local cache
	// admission), and the virtual cost of the probe plus a copy.
	Probe(tenant string, item *lineage.Item, sig uint64) (m *data.Matrix, computeCost, charge float64, ok bool)
	// Publish offers a freshly computed driver-local value, which may be
	// stored as is: the session never writes it afterwards. It reports
	// whether the object was stored and the virtual cost of the put.
	Publish(tenant string, item *lineage.Item, sig uint64, m *data.Matrix, computeCost float64) (charge float64, stored bool)
}

// AttachShared connects the context to a shared reuse level under the given
// tenant identity. It must be called before inputs are bound, so input
// fingerprints are recorded for content signatures.
func (ctx *Context) AttachShared(sc SharedCache, tenant string) {
	ctx.Shared = sc
	ctx.Tenant = tenant
	if ctx.inputSigs == nil {
		ctx.inputSigs = make(map[string]uint64)
	}
	if ctx.leafMemo == nil {
		ctx.leafMemo = make(map[*lineage.Item][]string)
	}
}

// readLeafNames returns the sorted, distinct variable names of the "read"
// leaves the item's DAG depends on, memoized per item. Sorting and
// deduplication make the result independent of how shared sub-DAGs alias
// inside structurally equal items.
func (ctx *Context) readLeafNames(it *lineage.Item) []string {
	if names, ok := ctx.leafMemo[it]; ok {
		return names
	}
	var names []string
	if it.Opcode() == "read" {
		names = []string{it.Data()}
	} else if ins := it.Inputs(); len(ins) > 0 {
		set := make(map[string]struct{})
		for _, in := range ins {
			for _, n := range ctx.readLeafNames(in) {
				set[n] = struct{}{}
			}
		}
		names = make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	ctx.leafMemo[it] = names
	return names
}

// shareSig computes the content signature of an item: an FNV-1a fold over
// its sorted read-leaf names and the fingerprints of the matrices bound under
// those names. It reports false when the item has no read leaves (sharing
// literal-only values across tenants would make hit patterns depend on
// request interleaving) or when a leaf's content is unknown (e.g. an RDD
// input or a leaf synthesized for an untracked variable) — both cases are
// conservatively excluded from sharing.
func (ctx *Context) shareSig(it *lineage.Item) (uint64, bool) {
	names := ctx.readLeafNames(it)
	if len(names) == 0 {
		return 0, false
	}
	h := key.New()
	for _, n := range names {
		sum, ok := ctx.inputSigs[n]
		if !ok {
			return 0, false
		}
		h = h.Str(n).Byte(0).U64(sum)
	}
	return h.Sum64(), true
}

// shareProbe consults the shared level for an item, charging the returned
// virtual cost on the session clock. On a hit it returns the shared matrix
// and the producer's compute-cost estimate.
func (ctx *Context) shareProbe(it *lineage.Item) (*data.Matrix, float64, bool) {
	if ctx.Shared == nil {
		return nil, 0, false
	}
	sig, ok := ctx.shareSig(it)
	if !ok {
		return nil, 0, false
	}
	ctx.Stats.SharedProbes++
	m, computeCost, charge, hit := ctx.Shared.Probe(ctx.Tenant, it, sig)
	ctx.Clock.Advance(charge)
	if !hit {
		return nil, 0, false
	}
	ctx.Stats.SharedHits++
	return m, computeCost, true
}

// sharePublish offers a computed driver-local value to the shared level,
// charging the returned virtual cost on the session clock. A deferred value
// is materialized only once the offer is really made.
func (ctx *Context) sharePublish(it *lineage.Item, v *Value, computeCost float64) {
	if ctx.Shared == nil {
		return
	}
	sig, ok := ctx.shareSig(it)
	if !ok {
		return
	}
	charge, stored := ctx.Shared.Publish(ctx.Tenant, it, sig, v.host(), computeCost)
	ctx.Clock.Advance(charge)
	if stored {
		ctx.Stats.SharedPuts++
	}
}
