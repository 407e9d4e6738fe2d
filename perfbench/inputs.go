package main

import (
	"math"
	"strconv"

	"repro/internal/wire"
)

// Every input the benchmark sends is a pure function of the seed argument
// and the item's position: keys, ranges and batches are derived on demand
// from a counter-based generator instead of being stored, so a 32M-key
// preload costs no client memory and the same seed always yields the same
// bytes on the wire.
//
// Key space layout. Bit 40 separates what is stored from what is provably
// absent: every key the benchmark inserts has bit 40 clear, every absent
// probe key and every empty range has it set. A range of width ≤ 2^40
// placed inside one 2^41-aligned block's upper half therefore cannot
// contain an inserted key, without the client sorting the preload.
const holeBit = uint64(1) << 40

// stream salts keep the sequences of different input kinds independent.
const (
	saltPreload uint64 = 0x5bd1e9955bd1e995
	saltWrite   uint64 = 0x2545f4914f6cdd1d
	saltRead    uint64 = 0x9e3779b97f4a7c15
	saltRange   uint64 = 0xc2b2ae3d27d4eb4f
	saltFPR     uint64 = 0x165667b19e3779f9
	saltTail    uint64 = 0x27d4eb2f165667c5
	saltSched   uint64 = 0x85ebca6b0f3a2c5d
)

// mix64 is the splitmix64 finalizer: a bijection on uint64 with full
// avalanche, used as a counter-mode generator.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a small deterministic generator (splitmix64 stream).
type rng struct{ s uint64 }

func newRNG(seed int64, salt, index uint64) rng {
	return rng{s: mix64(uint64(seed)^salt) ^ mix64(index^salt)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// below returns a uniform value in [0, n).
func (r *rng) below(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// unit returns a uniform float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// storedKey is the i-th key of a stored sequence (preload, writes, WAL
// tail); bit 40 is always clear.
func storedKey(seed int64, salt, i uint64) uint64 {
	return mix64(mix64(uint64(seed)^salt)^i) &^ holeBit
}

// preloadKey is the i-th preloaded key.
func preloadKey(seed int64, i uint64) uint64 { return storedKey(seed, saltPreload, i) }

// absentKey draws a key that is never inserted.
func absentKey(r *rng) uint64 { return r.next() | holeBit }

// width draws a range width log-uniformly over [2^0, 2^maxExp].
func width(r *rng, maxExp int) uint64 {
	w := uint64(math.Exp2(r.unit() * float64(maxExp)))
	if w < 1 {
		w = 1
	}
	return w
}

// emptyRange draws a range of the given width that contains no stored key:
// it lies inside the upper (bit-40-set) half of a 2^41-aligned block.
func emptyRange(r *rng, w uint64) [2]uint64 {
	base := (r.next() &^ (2*holeBit - 1)) | holeBit
	lo := base + r.below(holeBit-w+1)
	return [2]uint64{lo, lo + w - 1}
}

// coveringRange draws a range of the given width that contains key k.
func coveringRange(r *rng, k, w uint64) [2]uint64 {
	off := r.below(w)
	lo := k - off
	if off > k {
		lo = 0
	}
	hi := lo + w - 1
	if hi < lo {
		hi = math.MaxUint64
	}
	return [2]uint64{lo, hi}
}

// encodeKeys renders a key batch in the given codec.
func encodeKeys(dst []byte, c codec, op wire.Op, keys []uint64) []byte {
	if c == codecBinary {
		return wire.AppendKeysRequest(dst, op, keys)
	}
	dst = append(dst, `{"keys":[`...)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, k, 10)
	}
	return append(dst, "]}"...)
}

// encodeRanges renders a range batch in the given codec.
func encodeRanges(dst []byte, c codec, ranges [][2]uint64) []byte {
	if c == codecBinary {
		return wire.AppendRangesRequest(dst, ranges)
	}
	dst = append(dst, `{"ranges":[`...)
	for i, r := range ranges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"lo":`...)
		dst = strconv.AppendUint(dst, r[0], 10)
		dst = append(dst, `,"hi":`...)
		dst = strconv.AppendUint(dst, r[1], 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}
