// Package memctl is MEMPHIS's cross-backend memory layer: one
// victim-scoring function and one pool registry shared by every memory
// region in the system — the driver's lineage cache (CP), the reuse share
// of Spark cluster storage, the Spark block manager's partition region,
// the GPU device pool, and the serving layer's per-tenant shared-cache
// shares. As in the paper's holistic memory management (§4), the regions
// share one lineage cache and one scoring function, and each evicts by its
// own rule.
//
// Scoring. Every backend ranks eviction candidates with Score, a single
// hybrid of four normalized terms — cost-per-byte ratio, recency, DAG
// height, and raw compute cost — weighted per pool:
//
//	score(o) = w_r·(freq(o)·c(o)/s(o))/maxRatio + w_a·T_a(o)
//	         + w_h·1/h(o) + w_c·c(o)/maxCost
//
// The driver cache uses LIMA's hybrid (ratio + recency), Spark reuse
// RDDs use Eq. (1) ((r_h+r_m+r_j)·c/s, unnormalized), the GPU manager
// uses Eq. (2) (recency + 1/height + cost), and the block manager's LRU
// is the degenerate recency-only instance. Lower scores evict first.
//
// Registry. Every region registers with an Arbiter, which hands it a Meter
// for its pressure/eviction/demotion counters and lists every pool in
// Snapshot. The arbiter decides nothing: the driver cache, the Spark reuse
// share, the block manager, the GPU device pool (Algorithm 1, whose step 5
// demotes cached device pointers to the host cache) and the serving
// layer's shared cache and tenant shares (oldest-first) evict on their own
// paths and note what they did.
package memctl

// Candidate is the backend-independent description of one eviction
// candidate: the metadata every pool already tracks per object, lifted
// into a common shape so a single scoring function can rank them.
type Candidate struct {
	Hits   int64 // r_h: successful reuses
	Misses int64 // r_m: touches while a placeholder
	Jobs   int64 // r_j: jobs that referenced the object (Spark)

	ComputeCost float64 // c(o): estimated compute cost, seconds
	Size        int64   // s(o): object size, bytes
	Height      int     // h(o): producing lineage-DAG height
	LastAccess  float64 // T_a(o): virtual time (or sequence) of last use
}

// Lifetime is the planner's static liveness classification of a cached
// object relative to the currently executing instruction stream. Victim
// selection orders groups before scores: dead objects evict first,
// soon-reused objects are protected, and the hybrid Score breaks ties
// within a group (Deca-style lifetime-grouped eviction).
type Lifetime int

const (
	// LifeDead marks an object with no further use in the current plan
	// (a block-local temporary past its last-use point): evict first.
	LifeDead Lifetime = iota - 1
	// LifeUnknown is the zero value: no plan information, rank by score
	// alone (the pre-planner behavior).
	LifeUnknown
	// LifeSoon marks an object the plan reads again within the protection
	// window: evict last.
	LifeSoon
)

func (l Lifetime) String() string {
	switch l {
	case LifeDead:
		return "dead"
	case LifeSoon:
		return "soon"
	default:
		return "unknown"
	}
}

// PreferVictim reports whether candidate a is a strictly better victim
// than b under lifetime-grouped selection: the lower lifetime group wins
// (dead < unknown < soon), and within a group the lower hybrid score
// wins. This is the single comparison the planner-aware pools share.
func PreferVictim(lifeA Lifetime, scoreA float64, lifeB Lifetime, scoreB float64) bool {
	if lifeA != lifeB {
		return lifeA < lifeB
	}
	return scoreA < scoreB
}

// Weights selects which score terms a pool uses and how strongly. The
// zero value scores everything 0; use one of the preset instances.
type Weights struct {
	// CostSize weights the normalized cost-per-byte ratio
	// freq·c/s / maxRatio (LIMA's Cost&Size term).
	CostSize float64
	// EqOne switches the ratio's frequency factor from the driver's
	// hit-weighted r_h+1 to Spark Eq. (1)'s r_h+r_m+r_j.
	EqOne bool
	// Recency weights the normalized last-access time T_a = last/now.
	Recency float64
	// Height weights the inverse lineage height 1/h (Eq. 2: deep
	// intermediates are cheap to lose, input-pipeline roots are not).
	Height float64
	// Cost weights the normalized compute cost c/maxCost (Eq. 2).
	Cost float64
}

// Preset weight vectors reproducing each backend's historical policy as
// an instance of the one shared formula.
var (
	// CPWeights is the driver cache's hybrid of Cost&Size and recency.
	CPWeights = Weights{CostSize: 1, Recency: 1}
	// SparkWeights is Eq. (1): (r_h+r_m+r_j)·c/s. Pass Norms.MaxRatio=1
	// to keep the historical unnormalized ordering.
	SparkWeights = Weights{CostSize: 1, EqOne: true}
	// GPUWeights is Eq. (2): T_a + 1/h + c/maxCost.
	GPUWeights = Weights{Recency: 1, Height: 1, Cost: 1}
	// LRUWeights is recency-only: with a monotone touch sequence as
	// LastAccess, the minimum score is exactly the LRU victim (the block
	// manager's partition policy, §2.2).
	LRUWeights = Weights{Recency: 1}
)

// Norms carries the pool-wide normalization constants of one victim
// selection pass. Non-positive fields disable their term (matching the
// historical guards: an empty pool has no max ratio, time zero has no
// recency ordering).
type Norms struct {
	MaxRatio float64 // max freq·c/s across candidates (1 = unnormalized)
	MaxCost  float64 // running max compute cost (GPU manager)
	Now      float64 // current virtual time or sequence counter
}

// Ratio returns the cost-per-byte ratio freq·c/s of a candidate: the
// Cost&Size numerator with the hit-weighted frequency r_h+1, or Spark
// Eq. (1)'s r_h+r_m+r_j when eqOne is set. Sizes are clamped to one byte
// so zero-sized metadata objects rank as maximally cheap to keep.
func Ratio(c Candidate, eqOne bool) float64 {
	s := float64(c.Size)
	if s <= 0 {
		s = 1
	}
	freq := float64(c.Hits + 1)
	if eqOne {
		freq = float64(c.Hits + c.Misses + c.Jobs)
	}
	return freq * c.ComputeCost / s
}

// Score is the unified victim score; the minimum across a pool's
// candidates is evicted (or recycled, or demoted) first. Terms are
// accumulated in a fixed order (ratio, recency, height, cost) so a pool
// using any weight subset reproduces its historical floating-point
// result bit for bit.
func Score(c Candidate, w Weights, n Norms) float64 {
	ratio := 0.0
	if w.CostSize != 0 {
		ratio = Ratio(c, w.EqOne)
	}
	return ScoreRatio(ratio, c, w, n)
}

// ScoreRatio is Score for a caller that already holds the candidate's
// Ratio(c, w.EqOne): a pool that keeps each candidate's ratio beside it
// scores from that value without recomputing it. The ratio term reads
// ratio in place of the candidate's fields, every other term reads c.
func ScoreRatio(ratio float64, c Candidate, w Weights, n Norms) float64 {
	s := 0.0
	if w.CostSize != 0 && n.MaxRatio > 0 {
		s += w.CostSize * (ratio / n.MaxRatio)
	}
	if w.Recency != 0 && n.Now > 0 {
		s += w.Recency * (c.LastAccess / n.Now)
	}
	if w.Height != 0 {
		h := float64(c.Height)
		if h < 1 {
			h = 1
		}
		s += w.Height * (1 / h)
	}
	if w.Cost != 0 && n.MaxCost > 0 {
		s += w.Cost * (c.ComputeCost / n.MaxCost)
	}
	return s
}
