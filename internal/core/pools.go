package core

// cpPool reports the driver lineage cache region to the arbiter. The
// region evicts on its own MAKE_SPACE (MakeSpaceCP: LIMA's policy, spill
// expensive victims, drop cheap ones) and notes what it did.
type cpPool struct{ c *Cache }

func (p cpPool) Name() string  { return PoolCP }
func (p cpPool) Used() int64   { return p.c.cpUsed }
func (p cpPool) Peak() int64   { return p.c.cpPeak }
func (p cpPool) Budget() int64 { return p.c.conf.CPBudget }

// sparkReusePool reports the reuse share of cluster storage to the
// arbiter. The share evicts on its own MAKE_SPACE (MakeSpaceSpark: Eq. (1),
// unpersisting RDDs that stay recomputable from lineage).
type sparkReusePool struct{ c *Cache }

func (p sparkReusePool) Name() string  { return PoolSparkReuse }
func (p sparkReusePool) Used() int64   { return p.c.sparkUsed }
func (p sparkReusePool) Peak() int64   { return p.c.sparkPeak }
func (p sparkReusePool) Budget() int64 { return p.c.conf.SparkBudget }
