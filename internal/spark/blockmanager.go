package spark

import (
	"math"
	"sort"

	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/memctl"
)

// PoolName is the arbiter pool name of the cluster storage region.
const PoolName = "spark"

// blockKey identifies one cached partition.
type blockKey struct {
	rdd  int
	part int
}

// block is one cached partition.
type block struct {
	m      *data.Matrix
	size   int64
	onDisk bool
	level  StorageLevel
	// seq is the monotone touch sequence of the block's last access; the
	// in-memory block with the minimum sequence is the LRU victim.
	seq int64
}

// BlockManager models the cluster's aggregate storage region: cached
// partitions live in memory up to a budget; on pressure, the least recently
// used partitions of other RDDs are evicted — dropped for MEMORY-level
// RDDs (recomputed from Spark lineage on next access) or spilled for
// MEMORY_AND_DISK (§2.2). LRU is the minimum touch sequence.
type BlockManager struct {
	budget int64
	used   int64
	peak   int64 // high-water mark of in-memory cached bytes
	blocks map[blockKey]*block
	// seq is the touch-sequence counter; every access gets a fresh value,
	// so block sequences are unique and victim selection is deterministic.
	seq int64
	// inj injects deterministic spill I/O errors; nil means none.
	inj *faults.Injector
	// meter reports the storage region's pressure, evictions and
	// demotions to the arbiter; nil (no arbiter) reports nothing.
	meter *memctl.Meter
}

func newBlockManager(budget int64) *BlockManager {
	return &BlockManager{budget: budget, blocks: make(map[blockKey]*block)}
}

// Name returns the arbiter pool name of the storage region. The block
// manager registers itself as a report-only memctl.Pool (and PeakReporter):
// the region evicts on its own path (put: LRU partitions of other RDDs,
// spilled or dropped by storage level) and notes what it did.
func (b *BlockManager) Name() string { return PoolName }

// Budget returns the storage memory budget.
func (b *BlockManager) Budget() int64 { return b.budget }

// Used returns the bytes of in-memory cached partitions.
func (b *BlockManager) Used() int64 { return b.used }

// Peak returns the high-water mark of in-memory cached bytes.
func (b *BlockManager) Peak() int64 { return b.peak }

// touch records a fresh access to an in-memory block.
func (b *BlockManager) touch(k blockKey) {
	if blk, ok := b.blocks[k]; ok {
		b.seq++
		blk.seq = b.seq
	}
}

// get returns a cached partition, reporting whether it came from disk.
func (b *BlockManager) get(rdd, part int) (m *data.Matrix, onDisk, ok bool) {
	blk, found := b.blocks[blockKey{rdd, part}]
	if !found {
		return nil, false, false
	}
	if !blk.onDisk {
		b.touch(blockKey{rdd, part})
	}
	return blk.m, blk.onDisk, true
}

// peek returns a cached partition value without touching LRU state or
// statistics. Used by the parallel partition prewarm, which must observe
// the block manager read-only so the serial accounting pass stays bitwise
// reproducible.
func (b *BlockManager) peek(rdd, part int) (*data.Matrix, bool) {
	blk, ok := b.blocks[blockKey{rdd, part}]
	if !ok {
		return nil, false
	}
	return blk.m, true
}

// contains reports whether the partition is cached (memory or disk).
func (b *BlockManager) contains(rdd, part int) bool {
	_, ok := b.blocks[blockKey{rdd, part}]
	return ok
}

// put caches a freshly computed partition, evicting LRU partitions of other
// RDDs as needed. It returns how many victim partitions were spilled to
// disk, how many were dropped, and how many spill writes failed (an
// injected I/O error turns the spill into a drop — the victim is recomputed
// from lineage on next access rather than read back from disk). A partition
// larger than the whole budget goes straight to disk if its level allows,
// else it is not cached (Spark semantics).
func (b *BlockManager) put(rdd, part int, m *data.Matrix, level StorageLevel) (spilled, dropped, spillErrs int) {
	k := blockKey{rdd, part}
	if _, ok := b.blocks[k]; ok {
		return 0, 0, 0
	}
	size := m.SizeBytes()
	if size > b.budget {
		if level == StorageMemoryAndDisk {
			if b.inj.Fail(faults.SparkSpill) {
				return 0, 0, 1
			}
			b.blocks[k] = &block{m: m, size: size, onDisk: true, level: level}
		}
		return 0, 0, 0
	}
	if b.used+size > b.budget {
		b.meter.NotePressure()
	}
	for b.used+size > b.budget {
		victim := b.pickVictim(rdd)
		if victim == nil {
			// Everything in memory belongs to this RDD; skip caching.
			return spilled, dropped, spillErrs
		}
		s, d, e := b.evictBlock(*victim)
		spilled += s
		dropped += d
		spillErrs += e
	}
	b.seq++
	b.blocks[k] = &block{m: m, size: size, level: level, seq: b.seq}
	b.used += size
	if b.used > b.peak {
		b.peak = b.used
	}
	return spilled, dropped, spillErrs
}

// evictBlock pushes one in-memory block out of the memory region: spilled
// to disk for MEMORY_AND_DISK blocks (the storage region's rung of the
// demotion ladder), dropped for MEMORY-level blocks (recomputed from Spark
// lineage on next access). An injected spill I/O error turns the spill
// into a drop.
func (b *BlockManager) evictBlock(k blockKey) (spilled, dropped, spillErrs int) {
	vb := b.blocks[k]
	b.used -= vb.size
	if vb.level == StorageMemoryAndDisk {
		if b.inj.Fail(faults.SparkSpill) {
			delete(b.blocks, k)
			b.meter.NoteEviction(1, vb.size)
			return 0, 1, 1
		}
		vb.onDisk = true
		b.meter.NoteDemotion(1, vb.size)
		return 1, 0, 0
	}
	delete(b.blocks, k)
	b.meter.NoteEviction(1, vb.size)
	return 0, 1, 0
}

// pickVictim returns the LRU in-memory block not belonging to the RDD
// currently being written (Spark never evicts blocks of the same RDD to
// admit its own partitions): the one with the minimum touch sequence.
// In-memory sequences are unique, so the argmin over map iteration is
// deterministic.
func (b *BlockManager) pickVictim(writingRDD int) *blockKey {
	var victim *blockKey
	var best int64 = math.MaxInt64
	for k, blk := range b.blocks {
		if blk.onDisk || k.rdd == writingRDD {
			continue
		}
		if blk.seq < best {
			k := k
			best, victim = blk.seq, &k
		}
	}
	return victim
}

// dropExecutor deletes every block (memory and disk) placed on the given
// executor, modeling executor loss. Keys are visited in sorted order so the
// walk — and any downstream accounting — is deterministic. Returns the
// number of blocks lost.
func (b *BlockManager) dropExecutor(victim, numExec int) int {
	keys := make([]blockKey, 0, len(b.blocks))
	for k := range b.blocks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rdd != keys[j].rdd {
			return keys[i].rdd < keys[j].rdd
		}
		return keys[i].part < keys[j].part
	})
	lost := 0
	for _, k := range keys {
		if executorOf(k.rdd, k.part, numExec) != victim {
			continue
		}
		blk := b.blocks[k]
		if !blk.onDisk {
			b.used -= blk.size
		}
		delete(b.blocks, k)
		lost++
	}
	return lost
}

// remove drops all blocks (memory and disk) of an RDD (unpersist).
func (b *BlockManager) remove(rdd int) {
	for k, blk := range b.blocks {
		if k.rdd == rdd {
			if !blk.onDisk {
				b.used -= blk.size
			}
			delete(b.blocks, k)
		}
	}
}

// clear drops every cached block (memory and disk) across all RDDs.
func (b *BlockManager) clear() {
	b.blocks = make(map[blockKey]*block)
	b.seq = 0
	b.used = 0
}
