package core

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync/atomic"
)

// bitArray is a fixed-size bit array backed by uint64 storage. Writers use
// atomic OR and readers atomic loads, so concurrent inserts and probes are
// race-free without locking — bloomRF is an online, parallel structure
// (paper §1 contribution (a), evaluated in Experiment 4).
type bitArray struct {
	words []uint64
}

func newBitArray(nbits uint64) bitArray {
	return bitArray{words: make([]uint64, (nbits+63)/64)}
}

// setBit atomically sets the bit at pos.
func (b *bitArray) setBit(pos uint64) {
	atomic.OrUint64(&b.words[pos>>6], 1<<(pos&63))
}

// getBit reports whether the bit at pos is set.
func (b *bitArray) getBit(pos uint64) bool {
	return atomic.LoadUint64(&b.words[pos>>6])&(1<<(pos&63)) != 0
}

// loadWord returns the whole storage word containing bit position pos. The
// batch probe path gathers one word per pending probe through it in a tight
// load-only loop: the loads carry no dependencies on each other, so the
// memory system overlaps their cache misses (getBit's load+test per call
// hides that parallelism behind the branch on each result).
func (b *bitArray) loadWord(pos uint64) uint64 {
	return atomic.LoadUint64(&b.words[pos>>6])
}

// loadSub extracts a wbits-wide sub-word starting at the aligned bit
// position pos (pos must be a multiple of wbits, wbits a power of two ≤ 64),
// so a filter word never straddles two storage words.
func (b *bitArray) loadSub(pos uint64, wbits uint) uint64 {
	w := atomic.LoadUint64(&b.words[pos>>6])
	if wbits == 64 {
		return w
	}
	return (w >> (pos & 63)) & ((1 << wbits) - 1)
}

// anySet reports whether any bit in the inclusive bit range [lo, hi] is set.
// It scans whole storage words between the masked boundary words.
func (b *bitArray) anySet(lo, hi uint64) bool {
	wl, wh := lo>>6, hi>>6
	maskLo := ^uint64(0) << (lo & 63)
	maskHi := ^uint64(0) >> (63 - hi&63)
	if wl == wh {
		return atomic.LoadUint64(&b.words[wl])&maskLo&maskHi != 0
	}
	if atomic.LoadUint64(&b.words[wl])&maskLo != 0 {
		return true
	}
	for w := wl + 1; w < wh; w++ {
		if atomic.LoadUint64(&b.words[w]) != 0 {
			return true
		}
	}
	return atomic.LoadUint64(&b.words[wh])&maskHi != 0
}

// onesCount returns the number of set bits.
func (b *bitArray) onesCount() uint64 {
	var c uint64
	for i := range b.words {
		c += uint64(bits.OnesCount64(b.words[i]))
	}
	return c
}

// size returns the capacity in bits.
func (b *bitArray) size() uint64 { return uint64(len(b.words)) * 64 }

// snapshot returns a copy of the raw storage words (for scatter analysis).
func (b *bitArray) snapshot() []uint64 {
	out := make([]uint64, len(b.words))
	for i := range b.words {
		out[i] = atomic.LoadUint64(&b.words[i])
	}
	return out
}

// appendWords appends the raw storage words to dst, little endian, each
// loaded atomically: serialization may run concurrently with inserts.
func (b *bitArray) appendWords(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(b.words))[:n+8*len(b.words)]
	out := dst[n:]
	for i := range b.words {
		binary.LittleEndian.PutUint64(out, atomic.LoadUint64(&b.words[i]))
		out = out[8:]
	}
	return dst
}

// readWords fills the storage words from the little-endian p and returns
// the rest of p. p must hold at least 8 bytes per word; the array must not
// be shared yet.
func (b *bitArray) readWords(p []byte) []byte {
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	return p
}

// lowMask returns a mask of the low n bits, handling n ≥ 64.
func lowMask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// rsh is x >> n with n possibly ≥ 64 (Go already defines this as 0 for
// uint64, the helper exists to make call sites self-documenting).
func rsh(x uint64, n uint) uint64 {
	if n >= 64 {
		return 0
	}
	return x >> n
}
