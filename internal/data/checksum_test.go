package data

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// refChecksum is the hash/fnv digest that Checksum's key.Hash fold replaced,
// kept verbatim as its oracle: tests, the benchmark's correctness gate and
// memphis-serve -verify pin Checksum values, so the two must agree on every
// matrix.
func refChecksum(m *Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, v := range m.Data {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// TestChecksumMatchesFNVReference covers empty, scalar and random matrices
// whose cells include NaN payloads, infinities and negative zero.
func TestChecksumMatchesFNVReference(t *testing.T) {
	special := []float64{math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead00000000),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64, 5e-324}
	r := rand.New(rand.NewSource(3))
	ms := []*Matrix{New(0, 0), New(0, 5), Scalar(-0.5), FromSlice(3, 3, special)}
	for i := 0; i < 50; i++ {
		m := RandNorm(1+r.Intn(40), 1+r.Intn(9), 0, 1, int64(i))
		for j := range m.Data {
			if r.Intn(4) == 0 {
				m.Data[j] = special[r.Intn(len(special))]
			}
		}
		ms = append(ms, m)
	}
	for i, m := range ms {
		if got, want := m.Checksum(), refChecksum(m); got != want {
			t.Fatalf("matrix %d (%dx%d): Checksum %016x, reference %016x", i, m.Rows, m.Cols, got, want)
		}
	}
}

// fpCells returns n cells of varied, non-trivial bit patterns.
func fpCells(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Sqrt(float64(i)+2) * float64(1-2*(i%2))
	}
	return d
}

func TestFingerprintEqualContent(t *testing.T) {
	m := RandNorm(37, 5, 0, 1, 7)
	if got, want := m.Clone().Fingerprint(), m.Fingerprint(); got != want {
		t.Fatalf("clone fingerprints %016x, original %016x", got, want)
	}
	// A view and a copy of the same rows are the same content, for every
	// length modulo the four-cell stride.
	for r0 := 0; r0 < 4; r0++ {
		for r1 := r0; r1 <= m.Rows; r1 += 3 {
			view, cp := m.RowView(r0, r1), m.SliceRows(r0, r1)
			if view.Fingerprint() != cp.Fingerprint() {
				t.Fatalf("rows [%d,%d): view %016x, copy %016x", r0, r1, view.Fingerprint(), cp.Fingerprint())
			}
		}
	}
}

func TestFingerprintDimensions(t *testing.T) {
	d := fpCells(6)
	seen := map[uint64]string{}
	for _, dims := range [][2]int{{2, 3}, {3, 2}, {1, 6}, {6, 1}} {
		fp := FromSlice(dims[0], dims[1], d).Fingerprint()
		name := string(rune('0'+dims[0])) + "x" + string(rune('0'+dims[1]))
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s and %s over the same cells share fingerprint %016x", prev, name, fp)
		}
		seen[fp] = name
	}
	if New(0, 5).Fingerprint() == New(5, 0).Fingerprint() {
		t.Fatal("0x5 and 5x0 share a fingerprint")
	}
	// Data that disagrees with the dimensions (a hand-built header) must not
	// alias the matrix it was cut from.
	short := &Matrix{Rows: 2, Cols: 3, Data: d[:5]}
	if short.Fingerprint() == FromSlice(2, 3, d).Fingerprint() {
		t.Fatal("a truncated buffer shares the full matrix's fingerprint")
	}
}

// TestFingerprintSingleBitFlips flips every bit of every cell at lengths
// 0-9, which covers every tail of the four-cell stride in every lane. All
// flips of one length must differ from the original and from each other: a
// flip of one cell that equals a flip of another (a cell's sign bit against
// bit 30 of the next cell in its lane, with a single multiplication per
// word) is a collision between two matrices.
func TestFingerprintSingleBitFlips(t *testing.T) {
	for n := 0; n <= 9; n++ {
		d := fpCells(n)
		base := FromSlice(1, n, d).Fingerprint()
		seen := map[uint64]bool{base: true}
		for i := 0; i < n; i++ {
			orig := d[i]
			for bit := uint(0); bit < 64; bit++ {
				d[i] = math.Float64frombits(math.Float64bits(orig) ^ 1<<bit)
				fp := FromSlice(1, n, d).Fingerprint()
				if seen[fp] {
					t.Fatalf("len %d: flipping bit %d of cell %d collides (%016x)", n, bit, i, fp)
				}
				seen[fp] = true
			}
			d[i] = orig
		}
	}
}

func TestFingerprintBitPatternsNotValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	for n := 1; n <= 5; n++ {
		for i := 0; i < n; i++ {
			fp := func(v float64) uint64 {
				d := fpCells(n)
				d[i] = v
				return FromSlice(n, 1, d).Fingerprint()
			}
			if fp(0) == fp(negZero) {
				t.Fatalf("len %d cell %d: +0 and -0 share a fingerprint", n, i)
			}
			if fp(nanA) == fp(nanB) {
				t.Fatalf("len %d cell %d: NaN payloads 1 and 2 share a fingerprint", n, i)
			}
			if fp(nanA) != fp(nanA) {
				t.Fatalf("len %d cell %d: the same NaN fingerprints differently", n, i)
			}
		}
	}
}

// TestFingerprintKeyValuedCell plants a cell whose bits equal one of the
// hash's own constants (or differ from it in the last bit), which a
// multiply-and-fold hash answers with a zero or self-cancelling product that
// hides the cell's lane partner. Every bit of every other cell,
// earlier or later, in the same lane or another, must still reach the result.
func TestFingerprintKeyValuedCell(t *testing.T) {
	var keys []uint64
	for _, k := range []uint64{fpM0, fpM1, fpM2, fpM3, fpMW, 0} {
		keys = append(keys, k, k^1) // key^1 makes a factor 1, which cancels the folds that guard a zero factor
	}
	for _, key := range keys {
		for n := 1; n <= 9; n++ {
			for planted := 0; planted < n; planted++ {
				d := fpCells(n)
				d[planted] = math.Float64frombits(key)
				base := FromSlice(1, n, d).Fingerprint()
				for i := 0; i < n; i++ {
					if i == planted {
						continue
					}
					orig := d[i]
					for bit := uint(0); bit < 64; bit++ {
						d[i] = math.Float64frombits(math.Float64bits(orig) ^ 1<<bit)
						if FromSlice(1, n, d).Fingerprint() == base {
							t.Fatalf("key %016x at cell %d of %d hides bit %d of cell %d", key, planted, n, bit, i)
						}
					}
					d[i] = orig
				}
			}
		}
	}
}

// TestFingerprintGolden pins values: shard placement and cache keys derive
// from the fingerprint, so it must not drift between processes, platforms or
// releases without this test saying so.
func TestFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *Matrix
		want uint64
	}{
		{"empty 0x0", New(0, 0), 0xe9bfb22ec01076fe},
		{"scalar 1.5", Scalar(1.5), 0x2df5dde8c45e0bf7},
		{"2x3 of 1..6", FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6}), 0xfaf63d28add5a55d},
		{"3x3 with -0, NaN, Inf", FromSlice(3, 3, []float64{0, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001),
			math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64, -1, 1e-300}), 0x0499ae5f23caf87a},
	} {
		if got := c.m.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}

var hashSink uint64

func BenchmarkFingerprint(b *testing.B) {
	m := RandNorm(4096, 32, 0, 1, 5)
	b.Run("4096x32", func(b *testing.B) {
		b.SetBytes(m.SizeBytes())
		for i := 0; i < b.N; i++ {
			hashSink += m.Fingerprint()
		}
	})
}

func BenchmarkChecksum(b *testing.B) {
	m := RandNorm(4096, 32, 0, 1, 5)
	b.Run("4096x32", func(b *testing.B) {
		b.SetBytes(m.SizeBytes())
		for i := 0; i < b.N; i++ {
			hashSink += m.Checksum()
		}
	})
}
