package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/hashutil"
)

// Serialization format (little endian):
//
//	magic "bRF1" | version u8 | domain u8 | k u8 | flags u8
//	deltas k×u8 | replicas k×u8 | segmentOf k×u8
//	nsegs u8 | segBits nsegs×u64 | maxScan u32
//	exactWords u64 | exact payload | per-segment payload
//	checksum u64 over everything before it
//
// The checksum depends on the version byte, which is read before it is
// verified:
//
//	version 2 (written today): CRC-32C (Castagnoli) in the low 32 bits of
//	  the trailer; the high 32 bits must be zero
//	version 1 (read only): FNV-1a with a finalizing mix (hashutil.HashBytes)
//
// Both trailers are 8 bytes, so a block's size does not depend on its
// version. CRC-32C is hardware-accelerated and detects every burst error
// of up to 32 bits; FNV-1a costs a multiply per byte.
//
// Hash seeds are derived deterministically from layer/replica indices, so
// they are not stored: a deserialized filter probes identical positions.
// This is the "filter block" format persisted in SSTables (paper §9).
const (
	serMagic   = "bRF1"
	serVersion = 2

	flagExact   = 1 << 0
	flagPermute = 1 << 1
)

// castagnoli is the CRC-32C table of the version-2 trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a filter block fails structural or checksum
// validation.
var ErrCorrupt = errors.New("core: corrupt filter block")

// MarshalBinary serializes the filter. Concurrent Insert calls during
// serialization yield a consistent-enough snapshot for filter semantics
// (bits may lag, never flip back), but callers that need an exact snapshot
// should quiesce writers first. The words are loaded atomically straight
// into the block; no intermediate copy of the bit arrays is made.
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := f.appendBody()
	return binary.LittleEndian.AppendUint64(buf, uint64(crc32.Checksum(buf, castagnoli))), nil
}

// appendBody returns the version-2 block up to its checksum trailer, in a
// buffer with room for the trailer.
func (f *Filter) appendBody() []byte {
	k := f.k
	size := 4 + 4 + 3*k + 1 + 8*len(f.segs) + 4 + 8
	size += 8 * len(f.exact.words)
	for i := range f.segs {
		size += 8 * len(f.segs[i].words)
	}
	size += 8 // checksum
	buf := make([]byte, 0, size)
	buf = append(buf, serMagic...)
	flags := byte(0)
	if f.hasExact {
		flags |= flagExact
	}
	if f.permute {
		flags |= flagPermute
	}
	buf = append(buf, serVersion, byte(f.domain), byte(k), flags)
	for _, d := range f.cfg.Deltas {
		buf = append(buf, byte(d))
	}
	for i := 0; i < k; i++ {
		buf = append(buf, byte(f.replicas[i]))
	}
	for i := 0; i < k; i++ {
		buf = append(buf, byte(f.segID[i]))
	}
	buf = append(buf, byte(len(f.segs)))
	for i := range f.segs {
		buf = binary.LittleEndian.AppendUint64(buf, f.segs[i].size())
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.maxScan))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f.exact.words)))
	buf = f.exact.appendWords(buf)
	for i := range f.segs {
		buf = f.segs[i].appendWords(buf)
	}
	return buf
}

// UnmarshalFilter reconstructs a filter from MarshalBinary output of any
// supported version. The checksum is always verified before the block is
// parsed.
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < 16+8 || string(data[:4]) != serMagic {
		return nil, ErrCorrupt
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	switch version := body[4]; version {
	case 1:
		if hashutil.HashBytes(body, 0) != sum {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
	case 2:
		if sum>>32 != 0 || uint64(crc32.Checksum(body, castagnoli)) != sum {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	r := &byteReader{data: body[5:]}
	domain, _ := r.u8()
	k, _ := r.u8()
	flags, err := r.u8()
	if err != nil || k == 0 {
		return nil, ErrCorrupt
	}
	cfg := Config{
		Domain:       int(domain),
		Exact:        flags&flagExact != 0,
		PermuteWords: flags&flagPermute != 0,
		Deltas:       make([]int, k),
		Replicas:     make([]int, k),
		SegmentOf:    make([]int, k),
	}
	for i := range cfg.Deltas {
		b, err := r.u8()
		if err != nil {
			return nil, ErrCorrupt
		}
		cfg.Deltas[i] = int(b)
	}
	for i := range cfg.Replicas {
		b, err := r.u8()
		if err != nil {
			return nil, ErrCorrupt
		}
		cfg.Replicas[i] = int(b)
	}
	for i := range cfg.SegmentOf {
		b, err := r.u8()
		if err != nil {
			return nil, ErrCorrupt
		}
		cfg.SegmentOf[i] = int(b)
	}
	nsegs, err := r.u8()
	if err != nil || nsegs == 0 {
		return nil, ErrCorrupt
	}
	cfg.SegBits = make([]uint64, nsegs)
	for i := range cfg.SegBits {
		if cfg.SegBits[i], err = r.u64(); err != nil {
			return nil, ErrCorrupt
		}
	}
	maxScan, err := r.u32()
	if err != nil {
		return nil, ErrCorrupt
	}
	cfg.MaxScanGroups = int(maxScan)
	exactWords, err := r.u64()
	if err != nil {
		return nil, ErrCorrupt
	}
	// The payload must be exactly the words of the exact layer and of every
	// segment. This one check covers every word read below, and it runs
	// before New allocates them, so a block never makes the decoder
	// allocate more filter words than it carries.
	words := uint64(r.len() / 8)
	if r.len()%8 != 0 || exactWords > words {
		return nil, fmt.Errorf("%w: payload length", ErrCorrupt)
	}
	words -= exactWords
	for _, b := range cfg.SegBits {
		if b/64 > words {
			return nil, fmt.Errorf("%w: payload length", ErrCorrupt)
		}
		words -= b / 64
	}
	if words != 0 {
		return nil, fmt.Errorf("%w: payload length", ErrCorrupt)
	}
	f, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if exactWords != uint64(len(f.exact.words)) {
		return nil, ErrCorrupt
	}
	p := r.data[r.off:]
	p = f.exact.readWords(p)
	for s := range f.segs {
		p = f.segs[s].readWords(p)
	}
	return f, nil
}

type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) len() int { return len(r.data) - r.off }

func (r *byteReader) u8() (byte, error) {
	if r.off >= len(r.data) {
		return 0, ErrCorrupt
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}
