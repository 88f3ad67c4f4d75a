package core

// cpPool is the arbiter view of the driver lineage cache region. Evict
// runs the LIMA policy (spill expensive victims, drop cheap ones); Demote
// force-spills victims to disk — the host-to-disk rung of the ladder.
type cpPool struct{ c *Cache }

func (p cpPool) Name() string  { return PoolCP }
func (p cpPool) Used() int64   { return p.c.cpUsed }
func (p cpPool) Peak() int64   { return p.c.cpPeak }
func (p cpPool) Budget() int64 { return p.c.conf.CPBudget }

func (p cpPool) Evict(need int64) int64 {
	defer p.c.cpRank.drop()
	var freed int64
	for freed < need {
		n, ok := p.c.evictOneCP()
		if !ok {
			break
		}
		freed += n
	}
	return freed
}

func (p cpPool) Demote(need int64) int64 {
	// The spill-or-drop decision inside evictOneCP is the ladder's disk
	// rung: expensive victims land on disk and stay reusable, cheap ones
	// are recomputed from lineage.
	return p.Evict(need)
}

// sparkReusePool is the arbiter view of the reuse share of cluster
// storage. Unpersisted RDDs stay recomputable from lineage, so eviction
// here is already "drop-for-lineage-recompute"; there is no lower tier.
type sparkReusePool struct{ c *Cache }

func (p sparkReusePool) Name() string            { return PoolSparkReuse }
func (p sparkReusePool) Used() int64             { return p.c.sparkUsed }
func (p sparkReusePool) Peak() int64             { return p.c.sparkPeak }
func (p sparkReusePool) Budget() int64           { return p.c.conf.SparkBudget }
func (p sparkReusePool) Demote(need int64) int64 { return 0 }

func (p sparkReusePool) Evict(need int64) int64 {
	defer p.c.sparkRank.drop()
	var freed int64
	for freed < need {
		n, ok := p.c.evictOneSpark()
		if !ok {
			break
		}
		freed += n
	}
	return freed
}
