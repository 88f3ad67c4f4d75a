// Package key is the tree's allocation-free hash appender. A Hash is a
// 64-bit FNV-1a state held by value: each typed append folds the bytes that
// the equivalent fmt verb or []byte conversion would have written into a
// hash/fnv sum, without building them. Sums are therefore bit-identical to
// hashing the formatted text through fnv.New64a, so call sites can move onto
// it without moving a cache key, a shard placement or a pinned digest.
//
// A Hash lives on the caller's stack; there is no interface and no buffer:
//
//	h := key.New().Hex16(fp).Byte('|').Str(name)
//	sum := h.Sum64()
package key

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is an FNV-1a-64 state. The zero value is not a valid start; use New.
type Hash uint64

// New returns the FNV-1a-64 offset basis, the state of an empty sum.
func New() Hash { return offset64 }

// Sum64 returns the sum of everything appended so far.
func (h Hash) Sum64() uint64 { return uint64(h) }

// Byte appends one byte.
func (h Hash) Byte(b byte) Hash {
	h ^= Hash(b)
	h *= prime64
	return h
}

// Str appends the bytes of s.
func (h Hash) Str(s string) Hash {
	for i := 0; i < len(s); i++ {
		h ^= Hash(s[i])
		h *= prime64
	}
	return h
}

// U64 appends v as eight little-endian bytes.
func (h Hash) U64(v uint64) Hash {
	for i := 0; i < 8; i++ {
		h ^= Hash(byte(v >> (8 * i)))
		h *= prime64
	}
	return h
}

// Hex16 appends v as sixteen lower-case hex digits, as fmt's %016x writes it.
func (h Hash) Hex16(v uint64) Hash {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		h ^= Hash(digits[(v>>uint(shift))&0xf])
		h *= prime64
	}
	return h
}

// Int appends v in decimal, as fmt's %d writes it.
func (h Hash) Int(v int64) Hash {
	var buf [20]byte
	i := len(buf)
	u := uint64(v)
	if v < 0 {
		h = h.Byte('-')
		u = -u
	}
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	for ; i < len(buf); i++ {
		h ^= Hash(buf[i])
		h *= prime64
	}
	return h
}
