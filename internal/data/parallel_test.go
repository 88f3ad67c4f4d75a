package data

import (
	"math"
	"sync"
	"testing"
)

// withParallelism runs f under the given shard count and restores the
// GOMAXPROCS default afterwards.
func withParallelism(n int, f func()) {
	SetParallelism(n)
	defer SetParallelism(0)
	f()
}

// bitwiseEqual reports exact bit-level equality (NaN-safe) of two matrices.
func bitwiseEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestShardRangeDisjointCover(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 17, 100, 1023} {
		for _, shards := range []int{1, 2, 3, 4, 7, 16} {
			if shards > n {
				continue
			}
			covered := make([]int, n)
			prevHi := 0
			for s := 0; s < shards; s++ {
				lo, hi := shardRange(n, shards, s)
				if lo != prevHi {
					t.Fatalf("n=%d shards=%d s=%d: lo=%d, want %d", n, shards, s, lo, prevHi)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d shards=%d: ranges end at %d", n, shards, prevHi)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d shards=%d: index %d covered %d times", n, shards, i, c)
				}
			}
		}
	}
}

func TestParallelForRunsEveryIndexOnce(t *testing.T) {
	withParallelism(7, func() {
		const n = 1000
		var mu sync.Mutex
		hits := make([]int, n)
		// Large work estimate forces the parallel path.
		parallelFor(n, 1e9, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				mu.Lock()
				hits[i]++
				mu.Unlock()
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d ran %d times", i, h)
			}
		}
	})
}

func TestParallelForSmallWorkStaysSerial(t *testing.T) {
	withParallelism(8, func() {
		calls := 0
		parallelFor(1000, float64(MinParallelWork-1), func(lo, hi int) {
			calls++
			if lo != 0 || hi != 1000 {
				t.Fatalf("serial path got shard [%d,%d)", lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("serial path ran %d shards", calls)
		}
	})
}

func TestSetParallelismClamp(t *testing.T) {
	SetParallelism(5)
	if Parallelism() != 5 {
		t.Fatalf("Parallelism = %d, want 5", Parallelism())
	}
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism = %d, want >= 1", Parallelism())
	}
}

// TestSerialParallelEquivalence asserts bitwise-identical outputs between
// the serial path and several worker counts, across odd shapes: row/column
// vectors, empty matrices, and dimensions that do not divide evenly into
// shards. This is the determinism contract of the parallel kernel layer.
func TestSerialParallelEquivalence(t *testing.T) {
	type kernel struct {
		name string
		run  func() *Matrix
	}
	// Shapes chosen so larger cases clear MinParallelWork and genuinely
	// fan out, while degenerate ones exercise the edge handling.
	shapes := []struct{ r, c int }{{1, 300}, {300, 1}, {0, 7}, {7, 0}, {33, 65}, {257, 129}}
	kernels := func() []kernel {
		var ks []kernel
		for _, sh := range shapes {
			a := Rand(sh.r, sh.c, -1, 1, 0.9, int64(sh.r*1000+sh.c))
			b := RandNorm(sh.c, 255, 0, 1, int64(sh.r+sh.c))
			d := RandNorm(sh.r, sh.c, 0, 2, 99)
			ks = append(ks,
				kernel{"MatMul", func() *Matrix { return MatMul(a, b) }},
				kernel{"TSMM", func() *Matrix { return TSMM(a) }},
				kernel{"Transpose", func() *Matrix { return Transpose(a) }},
				kernel{"Add", func() *Matrix { return Add(a, d) }},
				kernel{"AddRowVec", func() *Matrix {
					if a.Rows == 0 {
						return a.Clone()
					}
					return Add(a, a.SliceRows(0, 1))
				}},
				kernel{"Exp", func() *Matrix { return Exp(a) }},
				kernel{"Dropout", func() *Matrix { return Dropout(a, 0.3, 17) }},
				kernel{"Softmax", func() *Matrix { return Softmax(a) }},
				kernel{"RowSums", func() *Matrix { return RowSums(a) }},
				kernel{"ColSums", func() *Matrix { return ColSums(a) }},
				kernel{"RowMaxIndex", func() *Matrix { return RowMaxIndex(a) }},
			)
			if sh.r > 0 {
				ks = append(ks,
					kernel{"ColVars", func() *Matrix { return ColVars(a) }},
					kernel{"ColMaxs", func() *Matrix { return ColMaxs(a) }},
				)
			}
		}
		// Conv/pool on a TLVIS-like batch with a non-divisible row count.
		x := RandNorm(37, 3*16*16, 0, 1, 5)
		w := RandNorm(8, 3*3*3, 0, 1, 6)
		ks = append(ks,
			kernel{"Conv2D", func() *Matrix { return Conv2D(x, w, 3, 16, 16, 3, 3, 1, 1) }},
			kernel{"MaxPool", func() *Matrix { return MaxPool(x, 3, 16, 16, 2, 2, 2) }},
		)
		return ks
	}

	var serial []*Matrix
	withParallelism(1, func() {
		for _, k := range kernels() {
			serial = append(serial, k.run())
		}
	})
	for _, p := range []int{2, 3, 7, 16} {
		withParallelism(p, func() {
			for i, k := range kernels() {
				got := k.run()
				if !bitwiseEqual(serial[i], got) {
					t.Errorf("par=%d kernel #%d %s: output differs from serial", p, i, k.name)
				}
			}
		})
	}
}

// TestDropoutMaskIndependentOfParallelism pins the per-row RNG contract:
// the mask of any single row must not depend on how rows are sharded.
func TestDropoutMaskIndependentOfParallelism(t *testing.T) {
	m := Ones(64, 128)
	var want *Matrix
	withParallelism(1, func() { want = Dropout(m, 0.5, 42) })
	withParallelism(5, func() {
		got := Dropout(m, 0.5, 42)
		if !bitwiseEqual(want, got) {
			t.Fatal("dropout mask depends on parallelism")
		}
	})
	// And a sanity check on the rate.
	kept := 0
	for _, v := range want.Data {
		if v != 0 {
			kept++
		}
	}
	frac := float64(kept) / float64(want.Cells())
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("keep fraction %.3f far from 0.5", frac)
	}
}

// BenchmarkKernelsParallel measures wall-clock speedup of the parallel
// kernel layer over the forced-serial path. On a multi-core runner the
// parallel variants should show >=2x for 512x512 matmul and the TLVIS-like
// conv forward pass (on a single-core machine both paths coincide).
func BenchmarkKernelsParallel(b *testing.B) {
	a512 := RandNorm(512, 512, 0, 1, 1)
	b512 := RandNorm(512, 512, 0, 1, 2)
	tall := RandNorm(4096, 256, 0, 1, 3)
	imgs := RandNorm(64, 3*32*32, 0, 1, 4)
	filt := RandNorm(32, 3*3*3, 0, 1, 5)
	cases := []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 0}}
	for _, c := range cases {
		b.Run("MatMul512/"+c.name, func(b *testing.B) {
			withParallelism(c.par, func() {
				for i := 0; i < b.N; i++ {
					MatMul(a512, b512)
				}
			})
		})
		b.Run("TSMM4096x256/"+c.name, func(b *testing.B) {
			withParallelism(c.par, func() {
				for i := 0; i < b.N; i++ {
					TSMM(tall)
				}
			})
		})
		b.Run("Conv2D-TLVIS/"+c.name, func(b *testing.B) {
			withParallelism(c.par, func() {
				for i := 0; i < b.N; i++ {
					Conv2D(imgs, filt, 3, 32, 32, 3, 3, 1, 1)
				}
			})
		})
	}
}
