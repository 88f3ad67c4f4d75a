package datasets

import (
	"math"
	"testing"

	"memphis/internal/data"
)

func TestRegressionDeterministic(t *testing.T) {
	x1, y1 := Regression(50, 5, 7)
	x2, y2 := Regression(50, 5, 7)
	if !data.AllClose(x1, x2, 0) || !data.AllClose(y1, y2, 0) {
		t.Fatal("same seed must reproduce the dataset")
	}
	if x1.Rows != 50 || x1.Cols != 5 || y1.Rows != 50 || y1.Cols != 1 {
		t.Fatal("wrong dims")
	}
}

func TestClassificationBalance(t *testing.T) {
	_, y := Classification(1000, 10, 0.3, 3)
	pos := data.Sum(y)
	if pos < 250 || pos > 350 {
		t.Fatalf("positives = %g, want ~300", pos)
	}
}

// insertionSort is the quadratic sort Classification used before
// sort.Float64s, kept as the oracle of its threshold.
func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestClassificationLabelsMatchInsertionSort: the labels are those the
// threshold of an insertion-sorted copy of the scores gives, bit for bit.
func TestClassificationLabelsMatchInsertionSort(t *testing.T) {
	for _, s := range []struct {
		rows, cols int
		posFrac    float64
	}{{1500, 16, 0.4}, {1000, 10, 0.3}, {64, 8, 0.5}, {4000, 4, 0.4}} {
		x, y := Classification(s.rows, s.cols, s.posFrac, 11)
		w := data.RandNorm(s.cols, 1, 0, 1, 12)
		scores := data.MatMul(x, w)
		sorted := append([]float64(nil), scores.Data...)
		insertionSort(sorted)
		thresh := sorted[int(float64(len(sorted))*(1-s.posFrac))]
		for i, v := range scores.Data {
			want := 0.0
			if v > thresh {
				want = 1
			}
			if y.Data[i] != want {
				t.Fatalf("%dx%d: label %d is %g, the insertion-sorted threshold gives %g", s.rows, s.cols, i, y.Data[i], want)
			}
		}
	}
}

func TestMovieLensSparsity(t *testing.T) {
	m := MovieLens(200, 500, 5)
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
			if v < 1 || v > 5 {
				t.Fatalf("rating %g out of range", v)
			}
		}
	}
	frac := float64(nnz) / float64(m.Cells())
	if frac > 0.02 {
		t.Fatalf("sparsity %g, want <= 0.02 (MovieLens-like)", frac)
	}
}

func TestAPSMissingAndImbalance(t *testing.T) {
	x, y := APS(5000, 20, 9)
	missFrac := float64(data.CountNaN(x)) / float64(x.Cells())
	if missFrac < 0.003 || missFrac > 0.01 {
		t.Fatalf("missing rate = %g, want ~0.006", missFrac)
	}
	posFrac := data.Sum(y) / float64(y.Rows)
	if posFrac < 0.005 || posFrac > 0.04 {
		t.Fatalf("positive rate = %g, want ~0.017", posFrac)
	}
}

func TestKDD98CategoricalCodes(t *testing.T) {
	x, y := KDD98(500, 10, 4, 11)
	for j := 0; j < 4; j++ {
		for i := 0; i < x.Rows; i++ {
			v := x.At(i, j)
			if v != math.Trunc(v) || v < 1 || v > 12 {
				t.Fatalf("cat col %d has non-code value %g", j, v)
			}
		}
	}
	if y.Rows != 500 {
		t.Fatal("bad target")
	}
}

func TestWMT14ZipfDuplicates(t *testing.T) {
	ids, emb := WMT14Words(2000, 500, 16, 13)
	if emb.Rows != 500 || emb.Cols != 16 {
		t.Fatal("bad embeddings")
	}
	seen := make(map[int]bool)
	dups := 0
	for _, id := range ids {
		if id < 0 || id >= 500 {
			t.Fatalf("word id %d out of vocab", id)
		}
		if seen[id] {
			dups++
		}
		seen[id] = true
	}
	// Zipf text repeats heavily: well over half the tokens are repeats.
	if float64(dups)/float64(len(ids)) < 0.5 {
		t.Fatalf("duplicate rate %g too low for Zipf text", float64(dups)/float64(len(ids)))
	}
}

// DuplicateRate reports the fraction of rows that repeat an earlier row
// (the generators' duplicate check).
func DuplicateRate(m *data.Matrix) float64 {
	seen := make(map[string]bool, m.Rows)
	dups := 0
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		key := ""
		for _, v := range row[:min(8, len(row))] {
			key += string(rune(int(v*1e6) % 1114111))
		}
		if seen[key] {
			dups++
		}
		seen[key] = true
	}
	return float64(dups) / float64(m.Rows)
}

func TestImagesDuplicateRate(t *testing.T) {
	imgs := Images(400, 1, 4, 4, 0.4, 17)
	rate := DuplicateRate(imgs)
	if rate < 0.25 || rate > 0.55 {
		t.Fatalf("duplicate rate = %g, want ~0.4", rate)
	}
	none := Images(400, 1, 4, 4, 0, 18)
	if DuplicateRate(none) != 0 {
		t.Fatal("dupFrac=0 must yield unique images")
	}
}
