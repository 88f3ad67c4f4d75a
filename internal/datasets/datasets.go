// Package datasets provides seeded synthetic generators standing in for the
// paper's evaluation datasets (Table 3). Lineage-based reuse is largely
// independent of data skew (§6.3); what the experiments depend on is shape,
// missing-value rate, categorical cardinality, and duplicate rate, which
// these generators reproduce at simulation scale.
package datasets

import (
	"math"
	"math/rand"
	"sort"

	"memphis/internal/data"
)

// Regression returns a dense feature matrix and responses y = X w + noise,
// standing in for the paper's synthetic HCV/HBAND inputs.
func Regression(rows, cols int, seed int64) (x, y *data.Matrix) {
	x = data.RandNorm(rows, cols, 0, 1, seed)
	w := data.RandNorm(cols, 1, 0, 1, seed+1)
	noise := data.RandNorm(rows, 1, 0, 0.1, seed+2)
	y = data.Add(data.MatMul(x, w), noise)
	return x, y
}

// Classification returns features and labels in {0,1} with the given
// positive fraction, linearly separable up to noise.
func Classification(rows, cols int, posFrac float64, seed int64) (x, y *data.Matrix) {
	x = data.RandNorm(rows, cols, 0, 1, seed)
	w := data.RandNorm(cols, 1, 0, 1, seed+1)
	scores := data.MatMul(x, w)
	// Threshold at the quantile that yields posFrac positives.
	sorted := append([]float64(nil), scores.Data...)
	sort.Float64s(sorted)
	thresh := sorted[int(float64(len(sorted))*(1-posFrac))]
	y = data.Map(scores, func(v float64) float64 {
		if v > thresh {
			return 1
		}
		return 0
	})
	return x, y
}

// MovieLens returns an integer-encoded ratings matrix (users x movies)
// mirroring MovieLens 20M's sparsity (~0.5% rated, ratings 1..5).
func MovieLens(users, movies int, seed int64) *data.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := data.New(users, movies)
	perUser := int(math.Max(1, 0.005*float64(movies)))
	for u := 0; u < users; u++ {
		for k := 0; k < perUser; k++ {
			j := rng.Intn(movies)
			m.Set(u, j, float64(1+rng.Intn(5)))
		}
	}
	return m
}

// APS returns a SCANIA-like failure classification set: rows x cols
// features with 0.6% missing values and a heavily imbalanced binary label
// (~1.7% positives, like APS failures).
func APS(rows, cols int, seed int64) (x, y *data.Matrix) {
	x = data.RandNorm(rows, cols, 10, 5, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range x.Data {
		if rng.Float64() < 0.006 {
			x.Data[i] = math.NaN()
		}
	}
	// Inject outliers (~0.5% of cells) so outlier removal has work to do.
	for i := range x.Data {
		if rng.Float64() < 0.005 && !math.IsNaN(x.Data[i]) {
			x.Data[i] *= 50
		}
	}
	y = data.New(rows, 1)
	nPos := int(0.017 * float64(rows))
	if nPos < 2 {
		nPos = 2
	}
	for _, i := range rng.Perm(rows)[:nPos] {
		y.Data[i] = 1
	}
	return x, y
}

// KDD98 returns a donation-regression-like set: the first catCols columns
// are categorical codes (cardinalities 2..12), the rest numeric; the target
// is a noisy linear mix.
func KDD98(rows, cols, catCols int, seed int64) (x, y *data.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	x = data.New(rows, cols)
	for j := 0; j < cols; j++ {
		if j < catCols {
			card := 2 + rng.Intn(11)
			for i := 0; i < rows; i++ {
				x.Set(i, j, float64(1+rng.Intn(card)))
			}
		} else {
			for i := 0; i < rows; i++ {
				x.Set(i, j, rng.NormFloat64()*3+5)
			}
		}
	}
	w := data.RandNorm(cols, 1, 0, 0.5, seed+1)
	y = data.Add(data.MatMul(x, w), data.RandNorm(rows, 1, 0, 1, seed+2))
	return x, y
}

// WMT14Words returns a word-ID sequence of the given length drawn from a
// Zipf distribution over vocab, mirroring natural-language duplicate rates
// (the EN2DE prediction-caching opportunity), plus dense word embeddings.
func WMT14Words(length, vocab, dim int, seed int64) (ids []int, embeddings *data.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(vocab-1))
	ids = make([]int, length)
	for i := range ids {
		ids[i] = int(zipf.Uint64())
	}
	embeddings = data.RandNorm(vocab, dim, 0, 1, seed+1)
	return ids, embeddings
}

// Images returns n flattened c*h*w images where dupFrac of them are exact
// duplicates of earlier images (pixel-identified duplicates, Figure 12(b)).
func Images(n, c, h, w int, dupFrac float64, seed int64) *data.Matrix {
	rng := rand.New(rand.NewSource(seed))
	dim := c * h * w
	out := data.New(n, dim)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < dupFrac {
			src := rng.Intn(i)
			copy(out.Data[i*dim:(i+1)*dim], out.Data[src*dim:(src+1)*dim])
			continue
		}
		for j := 0; j < dim; j++ {
			out.Data[i*dim+j] = rng.Float64()
		}
	}
	return out
}
