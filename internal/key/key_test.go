package key

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestAppendsMatchFmt: every typed append hashes exactly the bytes the
// corresponding fmt verb (or raw write) feeds a hash/fnv sum.
func TestAppendsMatchFmt(t *testing.T) {
	ints := []int64{0, 1, -1, 9, 10, 99, 100, 12345, -12345, math.MaxInt64, math.MinInt64}
	u64s := []uint64{0, 1, 0xf, 0x10, 0xdeadbeef, math.MaxUint64, 1 << 63}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ints = append(ints, r.Int63()-r.Int63())
		u64s = append(u64s, r.Uint64())
	}
	for _, v := range ints {
		ref := fnv.New64a()
		fmt.Fprintf(ref, "%d", v)
		if got := New().Int(v).Sum64(); got != ref.Sum64() {
			t.Fatalf("Int(%d) = %016x, fmt %%d gives %016x", v, got, ref.Sum64())
		}
	}
	for _, v := range u64s {
		ref := fnv.New64a()
		fmt.Fprintf(ref, "%016x", v)
		if got := New().Hex16(v).Sum64(); got != ref.Sum64() {
			t.Fatalf("Hex16(%x) = %016x, fmt %%016x gives %016x", v, got, ref.Sum64())
		}
		ref = fnv.New64a()
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		ref.Write(buf[:])
		if got := New().U64(v).Sum64(); got != ref.Sum64() {
			t.Fatalf("U64(%x) = %016x, little-endian write gives %016x", v, got, ref.Sum64())
		}
	}
	for _, s := range []string{"", "a", "X=2000x32;", "opmem=1048576,gpu=false", "\x00\xff"} {
		ref := fnv.New64a()
		ref.Write([]byte(s))
		ref.Write([]byte{'|'})
		if got := New().Str(s).Byte('|').Sum64(); got != ref.Sum64() {
			t.Fatalf("Str(%q).Byte('|') = %016x, want %016x", s, got, ref.Sum64())
		}
	}
	if New().Sum64() != fnv.New64a().Sum64() {
		t.Fatal("New() is not the FNV-1a offset basis")
	}
}

func TestAppendsAllocateNothing(t *testing.T) {
	s := "name"
	if n := testing.AllocsPerRun(100, func() {
		_ = New().Hex16(7).Str(s).Byte('=').Int(-42).U64(9).Sum64()
	}); n != 0 {
		t.Fatalf("%v allocs per hash, want 0", n)
	}
}
