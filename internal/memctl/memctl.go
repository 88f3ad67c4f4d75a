// Package memctl is MEMPHIS's cross-backend memory layer: one pool
// registry shared by every memory region in the system — the driver's
// lineage cache (CP), the reuse share of Spark cluster storage, the Spark
// block manager's partition region, the GPU device pool, and the serving
// layer's per-tenant shared-cache shares. As in the paper's holistic
// memory management (§4), the regions share one lineage cache and each
// evicts by its own rule, scored next to the code that ranks with it: the
// driver cache by LIMA's Cost&Size ratio plus recency, the Spark reuse
// share by Eq. (1), the GPU manager by Eq. (2), the block manager by least
// recent touch, the serving layer oldest-first.
//
// Registry. Every region registers with an Arbiter, which hands it a Meter
// for its pressure/eviction/demotion counters and lists every pool in
// Snapshot. The arbiter decides nothing: the driver cache, the Spark reuse
// share, the block manager, the GPU device pool (Algorithm 1, whose step 5
// demotes cached device pointers to the host cache) and the serving
// layer's shared cache and tenant shares (oldest-first) evict on their own
// paths and note what they did.
package memctl
