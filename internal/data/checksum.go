package data

import (
	"math"
	"math/bits"

	"memphis/internal/key"
)

// Two content hashes live here, with different jobs.
//
// Checksum is the output digest: tests, the benchmark's correctness gate and
// memphis-serve -verify compare results through it and pin its values, so its
// definition is frozen: FNV-1a over little-endian words, internal/key's U64.
//
// Fingerprint is the identity hash: the serving layer keys conflict, coalesce
// and shared-cache entries by it, and computes it for every input of every
// request. It reads a word at a time and is an order of magnitude faster; its
// values are fixed across processes and platforms (shard placement derives
// from them) but are not part of any stored format.

// Checksum returns a content digest of the matrix: an FNV-1a hash over the
// dimensions and the raw bit patterns of every cell. Two matrices with
// equal dimensions and bitwise-equal values (including NaN payloads) hash
// identically.
func (m *Matrix) Checksum() uint64 {
	h := key.New().U64(uint64(m.Rows)).U64(uint64(m.Cols))
	for _, v := range m.Data {
		h = h.U64(math.Float64bits(v))
	}
	return h.Sum64()
}

// Fingerprint multipliers: fixed odd constants, so the function is the same
// in every process (hash/maphash's per-process seed would move keys between
// shards from run to run). fpM0-fpM3 are the lanes', fpMW scrambles a word
// before any lane sees it.
const (
	fpM0 = 0x9e3779b97f4a7c15
	fpM1 = 0xbf58476d1ce4e5b9
	fpM2 = 0x94d049bb133111eb
	fpM3 = 0xd6e8feb86659fd93
	fpMW = 0xff51afd7ed558ccd
)

// fpStep absorbs one word into a lane. Multiplication by an odd constant,
// rotation and xor are each invertible, so the step is a bijection of the
// state for a fixed word and of the word for a fixed state: no value of one
// can hide the other. A product's top bit depends on its operand's top bit
// alone, so each rotation brings the high bits down to where the next
// multiplication spreads them through carries; without the word's own
// multiply-and-rotate (off the lane's dependency chain), negating one cell
// and flipping bit 30 of the next cell in its lane would cancel exactly.
func fpStep(s, w, m uint64) uint64 {
	return bits.RotateLeft64((s^bits.RotateLeft64(w*fpMW, 32))*m, 31)
}

// Fingerprint returns a 64-bit content hash of the matrix over its
// dimensions and the raw bit patterns of every cell (-0 and +0, and NaNs
// with different payloads, are different content). Bitwise-equal matrices —
// a RowView and its SliceRows copy included — hash identically.
//
// Cells are read a word at a time, four per iteration into four independent
// lanes; the lanes, the dimensions and the length are then folded through the
// same step and a final avalanche. Every stage is a bijection of each of its
// inputs, so two matrices of one shape that differ in exactly one cell never
// share a fingerprint; anything else collides with the probability of a
// 64-bit hash.
func (m *Matrix) Fingerprint() uint64 {
	d := m.Data
	s0, s1, s2, s3 := uint64(fpM1), uint64(fpM2), uint64(fpM3), uint64(fpM0)
	for ; len(d) >= 4; d = d[4:] {
		s0 = fpStep(s0, math.Float64bits(d[0]), fpM0)
		s1 = fpStep(s1, math.Float64bits(d[1]), fpM1)
		s2 = fpStep(s2, math.Float64bits(d[2]), fpM2)
		s3 = fpStep(s3, math.Float64bits(d[3]), fpM3)
	}
	switch len(d) {
	case 3:
		s2 = fpStep(s2, math.Float64bits(d[2]), fpM2)
		fallthrough
	case 2:
		s1 = fpStep(s1, math.Float64bits(d[1]), fpM1)
		fallthrough
	case 1:
		s0 = fpStep(s0, math.Float64bits(d[0]), fpM0)
	}
	h := uint64(fpM0)
	for _, w := range [...]uint64{s0, s1, s2, s3, uint64(m.Rows), uint64(m.Cols), uint64(len(m.Data))} {
		h = fpStep(h, w, fpM1)
	}
	// splitmix64's finalizer (fpM1 and fpM2 are its multipliers): the last
	// words folded have only been through one multiplication.
	h ^= h >> 30
	h *= fpM1
	h ^= h >> 27
	h *= fpM2
	h ^= h >> 31
	return h
}
